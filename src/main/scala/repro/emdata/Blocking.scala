package repro.emdata

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Overlap blocker — analogue of py_entitymatching's OverlapBlocker, as one
  * Spark plan: tokenize names, drop stop tokens (tokens with high document
  * frequency carry no blocking signal; an anti-join inside the plan), then
  * join the two token streams and keep record pairs sharing at least
  * `minOverlap` distinct tokens.
  *
  * For single-table datasets the join is the self-join with id1 < id2.
  * Each token row carries its record's attributes, prefixed l_/r_, and the
  * `(id1, id2)` aggregation that counts the overlap also deduplicates them,
  * so the pair table needs no join back to the records. Its last columns
  * are the per-pair token signals LFs and features read: `l_tokens` and
  * `r_tokens` (distinct lower-cased name tokens, first-occurrence order),
  * `tok_common`, `tok_jaccard` and `tok_containment`.
  */
object Blocking {

  private val Attrs = Seq("name", "brand", "price", "size", "year")

  private def nameTokens: Column = split(lower(col("name")), "\\s+")

  /** Tokens in more than max(20, `frac` · `n`) of the `n` records of `dfs`,
    * one row per token.
    */
  private def stopTokens(dfs: Seq[DataFrame], n: Long, frac: Double): DataFrame = {
    val limit = math.max(20.0, frac * n)
    dfs.map(_.select(explode(array_distinct(nameTokens)).as("tok"))).reduce(_ union _)
      .groupBy("tok").count()
      .where(col("count") > limit)
      .select("tok")
  }

  /** Stopwords: tokens appearing in more than `frac` of all records. */
  def stopwords(spark: SparkSession, dfs: Seq[DataFrame], frac: Double = 0.02): Set[String] = {
    val n = dfs.map(_.select("name")).reduce(_ union _).count()
    stopTokens(dfs, n, frac).collect().map(_.getString(0)).toSet
  }

  /** Distinct tokens of `name` per record, stop tokens removed, each row
    * carrying the record's id as `id` and its attributes as `prefix`_*.
    */
  private def tokens(df: DataFrame, stops: DataFrame, id: String, prefix: String): DataFrame =
    df.select(col("rid").as(id) +: Attrs.map(a => col(a).as(s"${prefix}_$a")) :+
        explode(array_distinct(nameTokens)).as("tok"): _*)
      .where(col("tok") =!= "")
      .join(stops, Seq("tok"), "left_anti")

  // Java lower-casing (not Spark's `lower`), whitespace split, empty tokens
  // dropped, duplicates removed in first-occurrence order.
  private val Ws = java.util.regex.Pattern.compile("\\s+")
  private val nameTokenArray = udf((s: String) =>
    if (s == null) Array.empty[String] else Ws.split(s.toLowerCase).filter(_.nonEmpty).distinct)

  /** Adds the token signals, computed once per pair. */
  private def withTokenSignals(pairs: DataFrame): DataFrame = {
    val withTokens = pairs.select(col("*"),
      nameTokenArray(col("l_name")).as("l_tokens"), nameTokenArray(col("r_name")).as("r_tokens"))
    val (lt, rt) = (col("l_tokens"), col("r_tokens"))
    val common = size(array_intersect(lt, rt))
    withTokens.select(col("*"),
      common.as("tok_common"),
      when(size(lt) === 0 && size(rt) === 0, 0.0)
        .otherwise(common.cast("double") / size(array_union(lt, rt)).cast("double")).as("tok_jaccard"),
      when(least(size(lt), size(rt)) === 0, 0.0)
        .otherwise(common.cast("double") / least(size(lt), size(rt)).cast("double")).as("tok_containment"))
  }

  /** Candidate pairs (id1, id2) with all pair attributes and token signals. */
  def block(spark: SparkSession, ds: EmDataGen.EmDataset,
            minOverlap: Int = 1, stopFrac: Double = 0.02): DataFrame = {
    val stops =
      if (ds.cfg.twoTable) stopTokens(Seq(ds.left, ds.right), ds.nLeft + ds.nRight, stopFrac)
      else stopTokens(Seq(ds.left), ds.nLeft, stopFrac)
    val joined = tokens(ds.left, stops, "id1", "l").join(tokens(ds.right, stops, "id2", "r"), "tok")
    val filtered =
      if (ds.cfg.twoTable) joined
      else joined.where(col("id1") < col("id2"))
    // Each id has one attribute tuple, so grouping by ids and attributes
    // groups exactly the (id1, id2) pairs and keeps their attributes.
    val pairCols = ("id1" +: Attrs.map("l_" + _)) ++ ("id2" +: Attrs.map("r_" + _))
    val cand = filtered.groupBy(pairCols.map(col): _*).count()
      .where(col("count") >= minOverlap)
      .select(pairCols.map(col): _*)
    withTokenSignals(cand)
  }

  /** Blocking recall: fraction of GT matches surviving into the candidate set. */
  def recall(candidates: Set[(Long, Long)], gt: Set[(Long, Long)]): Double =
    if (gt.isEmpty) 1.0 else gt.count(candidates.contains).toDouble / gt.size
}
