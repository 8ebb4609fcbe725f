package repro.exp

/** The one table value of the reproduction: every evaluation table is a
  * [[TableFmt.Grid]] of typed cells, computed once. Benches assert on the
  * cells, and the benches and the jobs/ entrypoints print its rendering.
  */
object TableFmt {

  /** A table cell: its number (NaN for text and pairs) and its printed text. */
  sealed trait Cell { def value: Double; def render: String }
  /** Three decimals; NaN renders as "-". */
  final case class Num(value: Double) extends Cell { def render: String = if (value.isNaN) "-" else f"$value%.3f" }
  final case class Count(n: Long) extends Cell { def value: Double = n.toDouble; def render: String = n.toString }
  /** A fraction as a percentage to one decimal: 0.625 renders as "62.5%". */
  final case class Pct(value: Double) extends Cell { def render: String = f"${value * 100}%.1f%%" }
  final case class Text(s: String) extends Cell { def value: Double = Double.NaN; def render: String = s }
  /** Two cells in one column, rendered "a, b". */
  final case class Pair(a: Cell, b: Cell) extends Cell {
    def value: Double = Double.NaN
    def render: String = s"${a.render}, ${b.render}"
  }

  /** The cell of a value that does not exist. */
  val dash: Cell = Text("-")
  def flag(b: Boolean): Cell = Text(if (b) "T" else "F")

  /** Mean of the values that are not NaN (NaN if none are). */
  def mean(xs: Seq[Double]): Double = {
    val ys = xs.filterNot(_.isNaN)
    if (ys.isEmpty) Double.NaN else ys.sum / ys.size
  }

  /** A table computed once. Each row starts with its label cells (the row
    * name first) under `labelHeader`, then holds one cell per column. With
    * `avgRow` the rendering ends in an "Avg." row of column means; its other
    * label cells read "-".
    */
  final case class Grid(title: String, labelHeader: Seq[String], columns: Seq[String],
                        labels: Seq[Seq[String]], cells: Seq[Seq[Cell]], avgRow: Boolean) {
    require(labels.size == cells.size && cells.forall(_.size == columns.size), s"ragged grid $title")

    val rows: Seq[String] = labels.map(_.head)

    private def index(names: Seq[String], name: String): Int = {
      val i = names.indexOf(name)
      require(i >= 0, s"$title has no $name")
      i
    }

    def cell(row: String, col: String): Cell = cells(index(rows, row))(index(columns, col))
    def apply(row: String, col: String): Double = cell(row, col).value
    def row(name: String): Seq[Double] = cells(index(rows, name)).map(_.value)
    def col(name: String): Seq[Double] = { val j = index(columns, name); cells.map(_(j).value) }

    /** Mean of a column's numbers, skipping text, pairs and NaN. */
    def avg(col: String): Double = mean(this.col(col))

    /** Title, header, separator and rows, each column padded to its widest cell. */
    def render: String = {
      val header = labelHeader ++ columns
      val body = labels.zip(cells).map { case (l, cs) => l ++ cs.map(_.render) }
      val avgLine = ("Avg." +: labelHeader.tail.map(_ => "-")) ++ columns.map(c => Num(avg(c)).render)
      val all = header +: (if (avgRow) body :+ avgLine else body)
      val widths = header.indices.map(i => all.map(r => if (i < r.size) r(i).length else 0).max)
      def line(r: Seq[String]): String =
        r.zipWithIndex.map { case (c, i) => c.padTo(widths(i), ' ') }.mkString("| ", " | ", " |")
      (s"== $title ==" +: line(header) +: widths.map("-" * _).mkString("|-", "-|-", "-|") +:
        all.tail.map(line)).mkString("\n")
    }
  }

  object Grid {
    /** A grid of numbers whose rows carry only their name. */
    def apply(title: String, corner: String, columns: Seq[String],
              rows: Seq[(String, Seq[Double])], avgRow: Boolean = false): Grid =
      ofCells(title, corner, columns, rows.map { case (n, vs) => n -> vs.map(Num) }, avgRow)

    /** A grid of typed cells whose rows carry only their name. */
    def ofCells(title: String, corner: String, columns: Seq[String],
                rows: Seq[(String, Seq[Cell])], avgRow: Boolean = false): Grid =
      Grid(title, Seq(corner), columns, rows.map(r => Seq(r._1)), rows.map(_._2), avgRow)
  }
}
