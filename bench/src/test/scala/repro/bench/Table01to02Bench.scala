package repro.bench

import repro.emdata.Datasets
import repro.exp.TableFmt.{Count, Pair}
import repro.lf.LfSuite

/** Table 1 — dataset statistics of the 11 synthetic analogues. */
class Table01DatasetsBench extends BenchSpec {
  test("Table 1: all 11 datasets generate with sane statistics") {
    val g = exp.table1()
    show(g)
    assert(g.rows.size == 11)
    // Blocking recall stays high (paper: 0.88–1.0).
    g.rows.foreach { n =>
      val recall = g(n, "recall")
      assert(recall > 0.7, s"$n recall $recall")
    }
    // Two-table analogues keep the paper's left/right size relations: DS and
    // WA have a much larger right table.
    val Pair(Count(dsL), Count(dsR)) = g.cell("DS", "# tuples L,R")
    assert(dsR > dsL * 1.5)
  }
}

/** Table 2 — LF development effort per dataset. */
class Table02LfStatsBench extends BenchSpec {
  test("Table 2: LF counts match the paper exactly") {
    val g = exp.table2()
    show(g)
    g.rows.foreach { n =>
      val (total, newCnt) = LfSuite.paperCounts(n)
      assert(g(n, "# of LFs") == total && g(n, "# of new LFs") == newCnt, n)
    }
    assert(g.rows == Datasets.all.map(_.name))
  }
}
