package repro.exp

import org.scalatest.funsuite.AnyFunSuite

class TableFmtSpec extends AnyFunSuite {

  private val t = TableFmt.Table("Demo", Seq("a", "bb"), Seq(Seq("1", "2"), Seq("333", "4")))

  test("render contains title, header and all cells") {
    val r = t.render
    assert(r.contains("== Demo =="))
    assert(r.contains("a") && r.contains("bb"))
    assert(r.contains("333") && r.contains("4"))
  }

  test("columns are padded to the widest cell") {
    val lines = t.render.linesIterator.toVector
    // header line and row lines all have identical length
    val dataLines = lines.drop(1)
    assert(dataLines.map(_.length).distinct.size == 1)
  }

  test("separator row uses dashes") {
    assert(t.render.linesIterator.toVector(2).forall(c => c == '-' || c == '|'))
  }

  test("f formats to three decimals") {
    assert(TableFmt.f(0.12345) == "0.123")
    assert(TableFmt.f(1.0) == "1.000")
  }

  test("pct formats to one decimal percent") {
    assert(TableFmt.pct(0.625) == "62.5%")
    assert(TableFmt.pct(-0.232) == "-23.2%")
  }

  test("ragged rows do not crash rendering") {
    val ragged = TableFmt.Table("R", Seq("x", "y"), Seq(Seq("only")))
    assert(ragged.render.contains("only"))
  }

  private val g = TableFmt.Grid("G", Seq("ds", "n"), Seq("a", "b"),
    Seq(Seq("x", "3"), Seq("y", "5")), Seq(Seq(0.12345, Double.NaN), Seq(0.5, 0.25)), avgRow = true)

  test("a grid renders like the hand-built table of its formatted cells") {
    import TableFmt.f
    val expected = TableFmt.Table("G", Seq("ds", "n", "a", "b"), Seq(
      Seq("x", "3", f(0.12345), "-"),
      Seq("y", "5", f(0.5), f(0.25)),
      Seq("Avg.", "-", f((0.12345 + 0.5) / 2), f(0.25))))
    assert(g.table == expected)
    assert(g.table.render == expected.render)
  }

  test("the grid's Avg. row skips NaN cells") {
    assert(g.avg("a") == (0.12345 + 0.5) / 2)
    assert(g.avg("b") == 0.25)
    val allNaN = TableFmt.Grid("N", "ds", Seq("a"), Seq("x" -> Seq(Double.NaN)), avgRow = true)
    assert(allNaN.avg("a").isNaN)
    assert(allNaN.table.rows.last == Seq("Avg.", "-"))
  }

  test("NaN grid cells render as -") {
    assert(g.table.rows.head(3) == "-")
    assert(!g.table.render.contains("NaN"))
  }

  test("grid lookup by row and column returns the unrounded value") {
    assert(g("x", "a") == 0.12345)
    assert(g("y", "b") == 0.25)
    assert(g("x", "b").isNaN)
    assert(g.row("y") == Seq(0.5, 0.25))
    assert(g.col("a") == Seq(0.12345, 0.5))
    assert(g.rows == Seq("x", "y"))
    intercept[IllegalArgumentException](g("z", "a"))
  }
}
