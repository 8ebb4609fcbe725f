package repro.bench

/** Table 3 — overall labeling performance (the paper's headline claim:
  * SIMPLE-EM has the best average F1 across the 11 datasets, winning on
  * most of them; Table 3 in the paper shows +9% over the best baseline).
  */
class Table03OverallBench extends BenchSpec {
  test("Table 3: SIMPLE-EM has the best average F1 across methods") {
    val g = exp.table3()
    show(g)
    val avgs = g.columns.map(m => m -> g.avg(m)).toMap
    info(avgs.map { case (m, a) => f"$m=$a%.3f" }.mkString(" "))
    val bestBaseline = (avgs - "SIMPLE-EM").values.max
    assert(avgs("SIMPLE-EM") >= bestBaseline - 1e-9,
      s"SIMPLE-EM avg ${avgs("SIMPLE-EM")} vs best baseline $bestBaseline")
    // Wins on a majority of datasets (paper: 9 of 11).
    val others = g.columns.filter(_ != "SIMPLE-EM")
    val wins = g.rows.count(n => g(n, "SIMPLE-EM") >= others.map(g(n, _)).max - 0.01)
    assert(wins >= 6, s"SIMPLE-EM best-or-near-best on only $wins/11 datasets")
  }
}
