package repro.bench

/** Table 8 — transitivity handling. Paper shape: SIMPLE-EM (constraint in
  * the E-step) beats both the ZeroER greedy projection and traditional
  * postprocessing, and does not lose to ignoring transitivity.
  */
class Table08TransitivityBench extends BenchSpec {
  test("Table 8: SIMPLE-EM transitivity beats greedy and postprocessing on average") {
    val g = exp.table8()
    show(g)
    val Seq(noTrans, simpleEm, zeTrans, post) = g.columns.map(g.avg)
    info(f"no-trans=$noTrans%.3f simple-em=$simpleEm%.3f zeroer-trans=$zeTrans%.3f post=$post%.3f")
    assert(simpleEm >= noTrans - 1e-9, "transitivity must not hurt on average")
    assert(simpleEm >= zeTrans - 1e-9, "must beat the ZeroER greedy projection")
    assert(simpleEm >= post - 1e-9, "must beat postprocessing")
  }
}

/** Table 9 — injected transitivity violations on M and C. Scores decline as
  * corruption x grows, and SIMPLE-EM stays above SN and MV throughout.
  */
class Table09ViolationsBench extends BenchSpec {
  test("Table 9: SIMPLE-EM dominates under GT corruption; scores decline in x") {
    val g = exp.table9()
    show(g)
    val byMethod = g.rows.map(m => m -> g.row(m)).toMap
    // Monotone-ish decline for every method.
    byMethod.foreach { case (m, xs) =>
      assert(xs.head >= xs.last - 0.02, s"$m should decline as x grows: $xs")
    }
    // SIMPLE-EM at least matches MV at every corruption level.
    byMethod("SIMPLE-EM").zip(byMethod("MV")).zipWithIndex.foreach { case ((em, mv), i) =>
      assert(em >= mv - 0.03, s"x index $i: em=$em mv=$mv")
    }
  }
}

/** Table 10 — data shift: LF reuse saves more target-labeling effort than
  * transferring manual labels.
  */
class Table10DataShiftBench extends BenchSpec {
  test("Table 10: LFs save more effort under shift than manual-label transfer") {
    val g = exp.table10()
    show(g)
    g.rows.foreach { n =>
      val manual = g(n, "manual labeling")
      val lfs    = g(n, "LFs")
      info(s"$n: manual=$manual lfs=$lfs")
      assert(lfs >= 0.6, s"$n: LF reuse should save >=60%")
      assert(lfs >= manual - 0.05, s"$n: LFs should beat manual transfer")
    }
  }
}
