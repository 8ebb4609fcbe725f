package repro.emdata

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** Magellan-style similarity feature engineering over the blocked pair
  * table (its attributes and the token signals of `Blocking.block`), as
  * Spark column expressions. Consumed by the ZeroER baseline, the
  * active-learning comparator and the end models (DeepMatcher/Ditto
  * substitutes). Missing attributes are encoded with a -1 sentinel plus a
  * presence indicator, so tree models can branch on missingness.
  */
object Features {

  // Rare "model number"-shaped tokens (letters+digits), the strongest signal.
  private val modelTok = udf { (a: Seq[String]) =>
    a.filter(t => t.exists(_.isDigit) && t.exists(_.isLetter)).sorted.mkString("|")
  }

  private def missing(attr: String): Column = col(s"l_$attr").isNull || col(s"r_$attr").isNull

  private def features: Seq[(String, Column)] = {
    val (ltk, rtk) = (col("l_tokens"), col("r_tokens"))
    Seq(
      "f_jaccard" -> col("tok_jaccard"),
      "f_containment" -> col("tok_containment"),
      "f_common" -> col("tok_common").cast("double"),
      "f_lenratio" ->
        least(size(ltk), size(rtk)).cast("double") / greatest(size(ltk), size(rtk)).cast("double"),
      "f_model_eq" ->
        when(modelTok(ltk) === "" || modelTok(rtk) === "", -1.0)
          .when(modelTok(ltk) === modelTok(rtk), 1.0).otherwise(0.0),
      "f_brand_eq" ->
        when(missing("brand"), -1.0).when(col("l_brand") === col("r_brand"), 1.0).otherwise(0.0),
      "f_price_diff" ->
        when(missing("price"), -1.0)
          .otherwise(abs(col("l_price") - col("r_price")) /
            greatest(col("l_price"), col("r_price"), lit(1e-9))),
      "f_price_present" -> when(missing("price"), 0.0).otherwise(1.0),
      "f_size_eq" ->
        when(missing("size"), -1.0).when(col("l_size") === col("r_size"), 1.0).otherwise(0.0),
      "f_size_present" -> when(missing("size"), 0.0).otherwise(1.0),
      "f_year_diff" ->
        when(missing("year"), -1.0)
          .otherwise(least(abs(col("l_year") - col("r_year")).cast("double"), lit(10.0)) / 10.0),
      "f_year_present" -> when(missing("year"), 0.0).otherwise(1.0))
  }

  val featureCols: Seq[String] = features.map(_._1)

  /** Text-only subset — what the Ditto substitute is allowed to see. */
  val textFeatureCols: Seq[String] = Seq(
    "f_jaccard", "f_containment", "f_common", "f_lenratio", "f_model_eq", "f_brand_eq")

  /** Adds all feature columns to a blocked pair table in one projection. */
  def withFeatures(pairDf: DataFrame): DataFrame =
    pairDf.select(col("*") +: features.map { case (name, c) => c.as(name) }: _*)
}
