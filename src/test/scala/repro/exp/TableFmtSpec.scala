package repro.exp

import org.scalatest.funsuite.AnyFunSuite
import TableFmt._

class TableFmtSpec extends AnyFunSuite {

  private val t = Grid.ofCells("Demo", "a", Seq("bb"), Seq("1" -> Seq(Count(2)), "333" -> Seq(Count(4))))

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
    assert(Num(0.12345).render == "0.123")
    assert(Num(1.0).render == "1.000")
  }

  test("pct formats to one decimal percent") {
    assert(Pct(0.625).render == "62.5%")
    assert(Pct(-0.232).render == "-23.2%")
  }

  test("ragged rows do not crash rendering") {
    val ragged = Grid("R", Seq("x", "y"), Seq.empty, Seq(Seq("only")), Seq(Seq.empty), avgRow = false)
    assert(ragged.render.contains("only"))
  }

  test("counts, text, pairs and missing values render as the tables print them") {
    assert(Count(5464).render == "5464")
    assert(Text("Same").render == "Same")
    assert(Pair(Count(240), Count(560)).render == "240, 560")
    assert(Pair(Count(66), dash).render == "66, -")
    assert(Pair(flag(false), flag(true)).render == "F, T")
    assert(dash.render == "-")
    assert(Num(Double.NaN).render == "-")
  }

  test("cell values: numbers for numeric kinds, NaN for text and pairs") {
    assert(Count(7).value == 7.0)
    assert(Pct(0.625).value == 0.625)
    assert(Num(0.12345).value == 0.12345)
    assert(Text("Yes").value.isNaN && dash.value.isNaN && Pair(Count(1), Count(2)).value.isNaN)
  }

  private val g = Grid("G", Seq("ds", "n"), Seq("a", "b"),
    Seq(Seq("x", "3"), Seq("y", "5")), Seq(Seq(Num(0.12345), Num(Double.NaN)), Seq(Num(0.5), Num(0.25))),
    avgRow = true)

  test("a grid renders like the hand-built table of its formatted cells") {
    val expected =
      """== G ==
        || ds   | n | a     | b     |
        ||------|---|-------|-------|
        || x    | 3 | 0.123 | -     |
        || y    | 5 | 0.500 | 0.250 |
        || Avg. | - | 0.312 | 0.250 |""".stripMargin
    assert(g.render == expected)
  }

  test("a mixed-cell grid renders like the hand-built string table it replaces") {
    val mixed = Grid.ofCells("Mixed", "dataset", Seq("# tuples L,R", "N_M, N_Non", "% of labels", "dup-free", "helpful?"),
      Seq("DS" -> Seq(Pair(Count(120), Count(300)), Pair(Count(66), dash), Pct(0.0231), Pair(flag(false), flag(true)),
              Text("No")),
          "M" -> Seq(Count(900), Pair(Count(7), Count(8)), dash, dash, Text("Same"))))
    val expected =
      """== Mixed ==
        || dataset | # tuples L,R | N_M, N_Non | % of labels | dup-free | helpful? |
        ||---------|--------------|------------|-------------|----------|----------|
        || DS      | 120, 300     | 66, -      | 2.3%        | F, T     | No       |
        || M       | 900          | 7, 8       | -           | -        | Same     |""".stripMargin
    assert(mixed.render == expected)
    assert(mixed.cell("DS", "dup-free") == Pair(flag(false), flag(true)))
    assert(mixed("M", "# tuples L,R") == 900.0)
    assert(mixed("M", "% of labels").isNaN)
  }

  test("the grid's Avg. row skips NaN cells") {
    assert(g.avg("a") == (0.12345 + 0.5) / 2)
    assert(g.avg("b") == 0.25)
    val allNaN = Grid("N", "ds", Seq("a"), Seq("x" -> Seq(Double.NaN)), avgRow = true)
    assert(allNaN.avg("a").isNaN)
    assert(allNaN.render.linesIterator.toVector.last == "| Avg. | - |")
  }

  test("avg skips text, pair and NaN cells") {
    val m = Grid.ofCells("M", "ds", Seq("c"),
      Seq("x" -> Seq(Count(2)), "y" -> Seq(dash), "z" -> Seq(Num(Double.NaN)), "w" -> Seq(Pct(0.5)),
          "v" -> Seq(Pair(Count(1), Count(9)))))
    assert(m.avg("c") == 1.25)
    assert(mean(Seq.empty).isNaN)
  }

  test("NaN grid cells render as -") {
    assert(g.render.linesIterator.toVector(3).endsWith("| -     |"))
    assert(!g.render.contains("NaN"))
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
