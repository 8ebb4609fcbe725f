package repro.bench

/** Table 4 — SIMPLE-EM vs the Ditto substitute. Paper shape: Ditto, despite
  * consuming GT labels, beats SIMPLE-EM on at most a couple of datasets.
  */
class Table04DittoBench extends BenchSpec {
  test("Table 4: SIMPLE-EM is competitive with the supervised Ditto substitute") {
    val g = exp.table4()
    show(g.table)
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
    val t = exp.table5()
    show(t)
    assert(t.rows.size == exp.table5Datasets.size)
    t.rows.foreach { r =>
      if (r(2) != "-") {
        val labels = r(2).toInt
        assert(labels >= 20, s"${r.head}: AL matched with suspiciously few labels")
      }
    }
    // The paper's qualitative point at our scale: AL must label a
    // non-trivial fraction of the candidate set (or fail outright) on most
    // datasets. (The paper's absolute label counts are 100x ours because its
    // candidate sets are 100x larger; percentages are the comparable shape.)
    val costly = t.rows.count { r =>
      r(2) == "-" || r(3).dropRight(1).toDouble >= 2.0 || r(2).toInt > 100
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
    show(g.table)
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
    val t = exp.table7()
    show(t)
    val gaps = t.rows.map { r =>
      val weak = r(1).toDouble; val conv = r(3).toDouble
      (r.head, weak, conv)
    }
    val avgWeak = gaps.map(_._2).sum / gaps.size
    val avgConv = gaps.map(_._3).sum / gaps.size
    info(f"avg weak-label F1 $avgWeak%.3f vs converged GT F1 $avgConv%.3f")
    // Paper: weak-label end model is on average ~3% below the converged
    // GT-trained model. Allow slack, but the gap must not be catastrophic.
    assert(avgWeak >= avgConv - 0.15, s"weak=$avgWeak conv=$avgConv")
  }
}
