package repro.exp

/** Plain-text table rendering shared by the jobs/ entrypoints and the bench
  * suites, so every reproduced table prints the same aligned layout.
  */
object TableFmt {

  final case class Table(title: String, header: Seq[String], rows: Seq[Seq[String]]) {
    def render: String = {
      val all = header +: rows
      val widths = header.indices.map(i => all.map(r => if (i < r.size) r(i).length else 0).max)
      def line(r: Seq[String]): String =
        r.zipWithIndex.map { case (c, i) => c.padTo(widths(i), ' ') }.mkString("| ", " | ", " |")
      val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
      (Seq(s"== $title ==", line(header), sep) ++ rows.map(line)).mkString("\n")
    }
  }

  /** A numeric table, computed once: benches assert on its cells and
    * [[table]] renders them. Each row starts with its label cells (the row
    * name first) under `labelHeader`, then holds one value per column. NaN
    * renders as "-". With `avgRow` the rendering ends in an "Avg." row of
    * column means that skip NaN; its other label cells read "-".
    */
  final case class Grid(title: String, labelHeader: Seq[String], columns: Seq[String],
                        labels: Seq[Seq[String]], cells: Seq[Seq[Double]], avgRow: Boolean) {
    require(labels.size == cells.size && cells.forall(_.size == columns.size), s"ragged grid $title")

    val rows: Seq[String] = labels.map(_.head)

    private def index(names: Seq[String], name: String): Int = {
      val i = names.indexOf(name)
      require(i >= 0, s"$title has no $name")
      i
    }

    def row(name: String): Seq[Double] = cells(index(rows, name))
    def col(name: String): Seq[Double] = { val j = index(columns, name); cells.map(_(j)) }
    def apply(row: String, col: String): Double = cells(index(rows, row))(index(columns, col))

    /** Mean of a column over the rows that are not NaN (NaN if none are). */
    def avg(col: String): Double = {
      val xs = this.col(col).filterNot(_.isNaN)
      if (xs.isEmpty) Double.NaN else xs.sum / xs.size
    }

    def table: Table = {
      def cell(d: Double) = if (d.isNaN) "-" else f(d)
      val body = labels.zip(cells).map { case (l, cs) => l ++ cs.map(cell) }
      val avgLine = ("Avg." +: labelHeader.tail.map(_ => "-")) ++ columns.map(c => cell(avg(c)))
      Table(title, labelHeader ++ columns, if (avgRow) body :+ avgLine else body)
    }
  }

  object Grid {
    /** A grid whose rows carry only their name. */
    def apply(title: String, corner: String, columns: Seq[String],
              rows: Seq[(String, Seq[Double])], avgRow: Boolean = false): Grid =
      Grid(title, Seq(corner), columns, rows.map(r => Seq(r._1)), rows.map(_._2), avgRow)
  }

  def f(d: Double): String = f"$d%.3f"
  def pct(d: Double): String = f"${d * 100}%.1f%%"
}
