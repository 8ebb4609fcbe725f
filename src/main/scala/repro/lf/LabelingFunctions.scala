package repro.lf

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** Labeling-function library: each LF is a Spark `Column` expression over
  * the blocked pair table (its attributes and the token signals of
  * `emdata.Blocking.block`), evaluating to {-1, 0, +1} (non-match / abstain /
  * match) — the Scala analogue of the user-written Python LFs in the paper's
  * Figure 1 (token-overlap thresholds, regex attribute extraction +
  * comparison, numeric difference tests). LF evaluation is therefore a
  * map-side dataflow over pair-table partitions.
  */
object LabelingFunctions {

  /** A named LF; `isNew` marks LFs counted as "new" effort in the paper's
    * Table 2 (vs. cheap threshold/attribute tweaks of existing LFs).
    */
  final case class Lf(name: String, isNew: Boolean, column: Column)

  // Token signals computed once per pair by `emdata.Blocking.block`.
  private def jac = col("tok_jaccard")
  private def cont = col("tok_containment")
  private def comm = col("tok_common")
  private val Ws = java.util.regex.Pattern.compile("\\s+")
  private val ModelTok = java.util.regex.Pattern.compile("[a-z]+\\d+[a-z]*\\d*")
  // Regex-extract the rare model-number-shaped token (cf. size_unmatch in Fig 1).
  private val modelU = udf { (s: String) =>
    if (s == null) ""
    else Ws.split(s.toLowerCase).filter(ModelTok.matcher(_).matches()).sorted.mkString("|")
  }

  private def vote(c: Column): Column = c.cast("int")

  /** Token-Jaccard with a +1 threshold `hi` and a -1 threshold `lo`. */
  def nameJaccard(name: String, hi: Double, lo: Double, isNew: Boolean = false): Lf =
    Lf(name, isNew, vote(when(jac >= hi, 1).when(jac <= lo, -1).otherwise(0)))

  /** Shared-token count thresholds. */
  def nameOverlap(name: String, hi: Int, lo: Int, isNew: Boolean = false): Lf =
    Lf(name, isNew, vote(when(comm >= hi, 1).when(comm <= lo, -1).otherwise(0)))

  /** Overlap coefficient (containment) thresholds. */
  def nameContainment(name: String, hi: Double, lo: Double, isNew: Boolean = false): Lf =
    Lf(name, isNew, vote(when(cont >= hi, 1).when(cont <= lo, -1).otherwise(0)))

  /** Regex-extracted model tokens: equal → +1, both present & different → -1. */
  def modelMatch(name: String, isNew: Boolean = false): Lf = {
    val lm = modelU(col("l_name")); val rm = modelU(col("r_name"))
    Lf(name, isNew, vote(
      when(lm === "" || rm === "", 0).when(lm === rm, 1).otherwise(-1)))
  }

  /** Relative price difference: < close → +1, > far → -1, else abstain. */
  def priceBand(name: String, close: Double, far: Double, isNew: Boolean = false): Lf = {
    val d = abs(col("l_price") - col("r_price")) /
      greatest(col("l_price"), col("r_price"), lit(1e-9))
    Lf(name, isNew, vote(
      when(col("l_price").isNull || col("r_price").isNull, 0)
        .when(d <= close, 1).when(d >= far, -1).otherwise(0)))
  }

  /** Different sizes → -1 (the paper's size_unmatch archetype). */
  def sizeUnmatch(name: String, isNew: Boolean = false): Lf =
    Lf(name, isNew, vote(
      when(col("l_size").isNull || col("r_size").isNull, 0)
        .when(col("l_size") =!= col("r_size"), -1).otherwise(0)))

  /** Year difference beyond `tol` → -1. */
  def yearUnmatch(name: String, tol: Int = 0, isNew: Boolean = false): Lf =
    Lf(name, isNew, vote(
      when(col("l_year").isNull || col("r_year").isNull, 0)
        .when(abs(col("l_year") - col("r_year")) > tol, -1).otherwise(0)))

  /** Different brand tokens → -1. */
  def brandUnmatch(name: String, isNew: Boolean = false): Lf =
    Lf(name, isNew, vote(
      when(col("l_brand").isNull || col("r_brand").isNull, 0)
        .when(col("l_brand") =!= col("r_brand"), -1).otherwise(0)))

  /** Same brand AND decent name similarity → +1 (a weak positive signal). */
  def brandAndName(name: String, minJac: Double, isNew: Boolean = false): Lf =
    Lf(name, isNew, vote(
      when(col("l_brand") === col("r_brand") && jac >= minJac, 1).otherwise(0)))

  /** Apply a suite to a blocked pair table: appends vote_i columns in one
    * projection; returns (df, voteCols).
    */
  def withVotes(pairDf: DataFrame, lfs: Seq[Lf]): (DataFrame, Seq[String]) = {
    val voteCols = lfs.indices.map(i => s"vote_$i")
    val votes = lfs.zip(voteCols).map { case (lf, c) => lf.column.as(c) }
    (pairDf.select(col("*") +: votes: _*), voteCols)
  }
}
