package repro.bench

/** Table 4 — SIMPLE-EM vs the Ditto substitute. Paper shape: Ditto, despite
  * consuming GT labels, beats SIMPLE-EM on at most a couple of datasets.
  */
class Table04DittoBench extends BenchSpec {
  test("Table 4: SIMPLE-EM is competitive with the supervised Ditto substitute") {
    val g = exp.table4()
    show(g)
    val em    = g.row("SIMPLE-EM")
    val ditto = g.row("DittoSim")
    val emAvg = em.sum / em.size; val dAvg = ditto.sum / ditto.size
    info(f"SIMPLE-EM avg $emAvg%.3f vs DittoSim avg $dAvg%.3f")
    // Weak supervision holds its own against the label-consuming comparator
    // on average (paper: better on 10/11 datasets).
    assert(emAvg >= dAvg - 0.1, s"em=$emAvg ditto=$dAvg")
  }
}

/** Table 5 — active-learning comparison. Paper shape: AL needs hundreds-to-
  * thousands of labels to match SIMPLE-EM where it can match it at all.
  */
class Table05ActiveLearningBench extends BenchSpec {
  test("Table 5: AL needs many labels to match SIMPLE-EM, if at all") {
    val g = exp.table5()
    show(g)
    assert(g.rows.size == exp.table5Datasets.size)
    // NaN where AL never matched SIMPLE-EM (rendered "-").
    def labels(n: String): Double = g(n, "# labels to match")
    g.rows.foreach { n =>
      if (!labels(n).isNaN)
        assert(labels(n) >= 20, s"$n: AL matched with suspiciously few labels")
    }
    // The paper's qualitative point at our scale: AL must label a
    // non-trivial fraction of the candidate set (or fail outright) on most
    // datasets. (The paper's absolute label counts are 100x ours because its
    // candidate sets are 100x larger; percentages are the comparable shape.)
    val costly = g.rows.count { n =>
      labels(n).isNaN || g(n, "% of labels") >= 0.02 || labels(n) > 100
    }
    assert(costly >= 4, s"AL matched too cheaply on too many datasets ($costly costly)")
  }
}

/** Table 6 — running time. Absolute times are hardware-bound; the paper's
  * shape is the ordering: MV/SN cheap < D&S/EBCC < SIMPLE-EM; feature-
  * engineering methods (ZE, AL, Ditto) cost more than simple vote models.
  */
class Table06RuntimeBench extends BenchSpec {
  test("Table 6: runtime ordering matches the paper's shape") {
    val g = exp.table6()
    show(g)
    val avg = g.columns.map(c => c -> g.avg(c)).toMap
    info(avg.map { case (k, v) => f"$k=$v%.2f" }.mkString(" "))
    assert(avg("MV") <= avg("SIMPLE-EM"), "MV should be cheaper than SIMPLE-EM")
    assert(avg("SN") <= avg("SIMPLE-EM"), "SN should be cheaper than SIMPLE-EM")
    assert(avg.values.filterNot(_.isNaN).forall(_ >= 0))
  }
}

/** Table 7 — DeepMatcher-substitute end model on SIMPLE-EM labels vs GT. */
class Table07EndModelBench extends BenchSpec {
  test("Table 7: end model on weak labels approaches the GT-trained model") {
    val g = exp.table7()
    show(g)
    val weak = g.col("F1 on SIMPLE-EM labels"); val conv = g.col("converged F1")
    val avgWeak = weak.sum / weak.size
    val avgConv = conv.sum / conv.size
    info(f"avg weak-label F1 $avgWeak%.3f vs converged GT F1 $avgConv%.3f")
    // Paper: weak-label end model is on average ~3% below the converged
    // GT-trained model. Allow slack, but the gap must not be catastrophic.
    assert(avgWeak >= avgConv - 0.15, s"weak=$avgWeak conv=$avgConv")
  }
}
