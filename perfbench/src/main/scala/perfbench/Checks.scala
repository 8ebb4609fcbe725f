package perfbench

import repro.core.SimpleEm

/** Validity checks on the program's outputs. Each returns the problems it
  * found; a job with any problem counts as failed.
  */
object Checks {

  /** Rounding allowed around [0, 1]: a posterior summed from normalised
    * parts can land a few ulps past 1 (EBCC adds its subtype posteriors).
    */
  val Rounding = 1e-12

  /** γ has one value per row and every value is finite and in [0, 1]. */
  def gamma(label: String, g: Array[Double], rows: Int): Seq[String] =
    if (g == null) Seq(s"$label: no output")
    else if (g.length != rows) Seq(s"$label: ${g.length} values for $rows rows")
    else {
      val bad = g.filter(x => x.isNaN || x.isInfinite || x < -Rounding || x > 1.0 + Rounding)
      if (bad.nonEmpty) Seq(s"$label: ${bad.length} values outside [0, 1], e.g. ${bad.head}") else Nil
    }

  /** Every vote is -1, 0 or +1 and every row has the same width. */
  def votes(label: String, v: Array[Array[Int]]): Seq[String] = {
    val width = v.headOption.fold(0)(_.length)
    val ragged = v.count(_.length != width)
    val bad = v.iterator.map(_.count(x => x < -1 || x > 1)).sum
    Seq(
      if (ragged > 0) Some(s"$label: $ragged rows not $width votes wide") else None,
      if (bad > 0) Some(s"$label: $bad votes outside {-1, 0, 1}") else None).flatten
  }

  def nonEmpty(label: String, rows: Int): Seq[String] =
    if (rows > 0) Nil else Seq(s"$label: empty candidate set")

  /** Two-table SIMPLE-EM output obeys its strategy: under both-dup-free no
    * id appears in two pairs with γ ≥ 0.5; under one-side-dup-free that
    * holds for the ids of the side the constraint groups by.
    */
  def strategy(label: String, s: SimpleEm.Strategy, pairs: Array[(Long, Long)],
               g: Array[Double]): Seq[String] = {
    def repeated(side: ((Long, Long)) => Long): Int =
      pairs.indices.filter(g(_) >= 0.5).groupBy(i => side(pairs(i))).count(_._2.size > 1)
    val sides: Seq[(String, ((Long, Long)) => Long)] = s match {
      case SimpleEm.BothDupFree  => Seq("left" -> (_._1), "right" -> (_._2))
      case SimpleEm.LeftDupFree  => Seq("right" -> (_._2))
      case SimpleEm.RightDupFree => Seq("left" -> (_._1))
      case _                     => Nil
    }
    sides.flatMap { case (name, side) =>
      val r = repeated(side)
      if (r > 0) Some(s"$label: $r $name ids matched twice under ${s.describe}") else None
    }
  }
}
