package repro.exp

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.emdata.{Datasets, EmDataGen}
import repro.lf.LfSuite
import scala.util.Random

/** The straightforward preparation path: stopwords collected to the driver
  * and filtered by a UDF, attributes joined back onto the candidate pairs,
  * every LF and feature re-tokenizing the names in its own UDF and added by
  * its own `withColumn`, and the result cached before it is collected.
  * `Runner.prepare` must collect the same pairs, in the same order, with the
  * same votes and feature bits.
  */
object ReferencePrepare {

  // ---- blocking ---------------------------------------------------------------

  private def tokens(df: DataFrame, stopwords: Set[String]): DataFrame = {
    val stop = stopwords
    val stopFilter = udf((t: String) => t != null && t.nonEmpty && !stop.contains(t))
    df.select(col("rid"), explode(split(lower(col("name")), "\\s+")).as("tok"))
      .where(stopFilter(col("tok")))
  }

  private def stopwords(dfs: Seq[DataFrame], frac: Double): Set[String] = {
    val union = dfs.map(_.select("rid", "name")).reduce(_ union _)
    val n = union.count()
    val limit = math.max(20.0, frac * n)
    union.select(explode(array_distinct(split(lower(col("name")), "\\s+"))).as("tok"))
      .groupBy("tok").count()
      .where(col("count") > limit)
      .collect().map(_.getString(0)).toSet
  }

  def block(ds: EmDataGen.EmDataset, stopFrac: Double = 0.02): DataFrame = {
    val stops = stopwords(if (ds.cfg.twoTable) Seq(ds.left, ds.right) else Seq(ds.left), stopFrac)
    val lt = tokens(ds.left, stops).withColumnRenamed("rid", "id1")
    val rt = tokens(ds.right, stops).withColumnRenamed("rid", "id2")
    val joined = lt.join(rt, "tok")
    val filtered =
      if (ds.cfg.twoTable) joined
      else joined.where(col("id1") < col("id2"))
    val cand = filtered.groupBy("id1", "id2").count()
      .where(col("count") >= 1)
      .select("id1", "id2")
    val lAttr = ds.left.select(
      col("rid").as("id1"), col("name").as("l_name"), col("brand").as("l_brand"),
      col("price").as("l_price"), col("size").as("l_size"), col("year").as("l_year"))
    val rAttr = ds.right.select(
      col("rid").as("id2"), col("name").as("r_name"), col("brand").as("r_brand"),
      col("price").as("r_price"), col("size").as("r_size"), col("year").as("r_year"))
    cand.join(lAttr, "id1").join(rAttr, "id2")
  }

  // ---- LFs ----------------------------------------------------------------------

  private val toks = udf((s: String) =>
    if (s == null) Array.empty[String] else s.toLowerCase.split("\\s+").filter(_.nonEmpty).distinct)
  private val jaccardU = udf { (a: Seq[String], b: Seq[String]) =>
    if (a.isEmpty && b.isEmpty) 0.0
    else { val i = a.toSet.intersect(b.toSet).size.toDouble; i / (a.toSet ++ b.toSet).size }
  }
  private val containU = udf { (a: Seq[String], b: Seq[String]) =>
    val m = math.min(a.size, b.size)
    if (m == 0) 0.0 else a.toSet.intersect(b.toSet).size.toDouble / m
  }
  private val commonU = udf { (a: Seq[String], b: Seq[String]) => a.toSet.intersect(b.toSet).size }
  private val modelU = udf { (s: String) =>
    if (s == null) ""
    else s.toLowerCase.split("\\s+").filter(_.matches("[a-z]+\\d+[a-z]*\\d*")).sorted.mkString("|")
  }

  private def lt = toks(col("l_name"))
  private def rt = toks(col("r_name"))
  private def jac = jaccardU(lt, rt)
  private def cont = containU(lt, rt)
  private def comm = commonU(lt, rt)
  private def vote(c: Column): Column = c.cast("int")

  final case class Lf(name: String, isNew: Boolean, column: Column)

  private def nameJaccard(name: String, hi: Double, lo: Double, isNew: Boolean = false): Lf =
    Lf(name, isNew, vote(when(jac >= hi, 1).when(jac <= lo, -1).otherwise(0)))
  private def nameOverlap(name: String, hi: Int, lo: Int, isNew: Boolean = false): Lf =
    Lf(name, isNew, vote(when(comm >= hi, 1).when(comm <= lo, -1).otherwise(0)))
  private def nameContainment(name: String, hi: Double, lo: Double, isNew: Boolean = false): Lf =
    Lf(name, isNew, vote(when(cont >= hi, 1).when(cont <= lo, -1).otherwise(0)))
  private def modelMatch(name: String, isNew: Boolean = false): Lf = {
    val lm = modelU(col("l_name")); val rm = modelU(col("r_name"))
    Lf(name, isNew, vote(
      when(lm === "" || rm === "", 0).when(lm === rm, 1).otherwise(-1)))
  }
  private def priceBand(name: String, close: Double, far: Double, isNew: Boolean = false): Lf = {
    val d = abs(col("l_price") - col("r_price")) /
      greatest(col("l_price"), col("r_price"), lit(1e-9))
    Lf(name, isNew, vote(
      when(col("l_price").isNull || col("r_price").isNull, 0)
        .when(d <= close, 1).when(d >= far, -1).otherwise(0)))
  }
  private def sizeUnmatch(name: String, isNew: Boolean = false): Lf =
    Lf(name, isNew, vote(
      when(col("l_size").isNull || col("r_size").isNull, 0)
        .when(col("l_size") =!= col("r_size"), -1).otherwise(0)))
  private def yearUnmatch(name: String, tol: Int = 0, isNew: Boolean = false): Lf =
    Lf(name, isNew, vote(
      when(col("l_year").isNull || col("r_year").isNull, 0)
        .when(abs(col("l_year") - col("r_year")) > tol, -1).otherwise(0)))
  private def brandUnmatch(name: String, isNew: Boolean = false): Lf =
    Lf(name, isNew, vote(
      when(col("l_brand").isNull || col("r_brand").isNull, 0)
        .when(col("l_brand") =!= col("r_brand"), -1).otherwise(0)))
  private def brandAndName(name: String, minJac: Double, isNew: Boolean = false): Lf =
    Lf(name, isNew, vote(
      when(col("l_brand") === col("r_brand") && jac >= minJac, 1).otherwise(0)))

  /** `LfSuite.suite` over the UDF-based LFs above. */
  def suite(dataset: String, jitter: Double => Double = identity): Seq[Lf] = {
    def j(t: Double): Double = math.max(0.01, math.min(0.99, jitter(t)))
    def ji(t: Int): Int = math.max(1, math.round(jitter(t.toDouble)).toInt)
    val dirt: Double = dataset match {
      case "FZ" | "DA" | "IR" | "YY" => 0.0
      case "DS" | "M" | "ABN"        => 0.1
      case "AB" | "C"                => 0.2
      case "AG"                      => 0.25
      case "WA"                      => 0.3
      case _                         => 0.1
    }
    val hi  = 0.55 - dirt * 0.6
    val lo  = 0.12 - dirt * 0.15
    val pool: Vector[Lf] = Vector(
      nameJaccard("name_jaccard", j(hi), j(math.max(0.02, lo)), isNew = true),
      modelMatch("model_match", isNew = true),
      priceBand("price_band", j(0.06), j(0.5), isNew = true),
      sizeUnmatch("size_unmatch", isNew = true),
      brandAndName("brand_and_name", j(math.max(0.05, hi - 0.15)), isNew = true),
      yearUnmatch("year_unmatch", isNew = true),
      nameJaccard("name_jaccard_loose", j(math.max(0.04, hi - 0.25)), j(math.max(0.01, lo - 0.06))),
      nameContainment("containment_loose", j(math.max(0.1, hi - 0.05)), j(math.max(0.02, lo))),
      brandAndName("brand_and_name_loose", j(math.max(0.04, hi - 0.3))),
      priceBand("price_band_loose", j(0.25), j(0.9)),
      nameOverlap("name_overlap", ji(3), ji(1)),
      nameJaccard("name_jaccard_strict", j(math.min(0.95, hi + 0.15)), j(math.max(0.02, lo + 0.05))),
      brandUnmatch("brand_unmatch"),
      nameContainment("name_containment", j(math.min(0.95, hi + 0.25)), j(lo + 0.08)),
      nameOverlap("name_overlap_2", ji(4), ji(1)),
      nameJaccard("name_jaccard_4", j(math.min(0.95, hi + 0.2)), j(math.max(0.01, lo - 0.02))))
    val (total, newCnt) = LfSuite.paperCounts.getOrElse(dataset, (12, 4))
    pool.take(total).zipWithIndex.map { case (lf, i) => lf.copy(isNew = i < newCnt) }
  }

  /** `LfSuite.randomized` over the UDF-based LFs above. */
  def randomized(dataset: String, seed: Long, range: Double = 0.2): Seq[Lf] = {
    val rng = new Random(seed)
    suite(dataset, t => t * (1 - range + 2 * range * rng.nextDouble()))
  }

  // ---- features -----------------------------------------------------------------

  private val jaccardF = udf { (a: Seq[String], b: Seq[String]) =>
    if (a.isEmpty && b.isEmpty) 0.0
    else { val i = a.toSet.intersect(b.toSet).size.toDouble; i / (a.toSet ++ b.toSet).size }
  }
  private val containmentF = udf { (a: Seq[String], b: Seq[String]) =>
    val m = math.min(a.size, b.size)
    if (m == 0) 0.0 else a.toSet.intersect(b.toSet).size.toDouble / m
  }
  private val commonCountF = udf { (a: Seq[String], b: Seq[String]) =>
    a.toSet.intersect(b.toSet).size.toDouble
  }
  private val modelTok = udf { (a: Seq[String]) =>
    a.filter(t => t.exists(_.isDigit) && t.exists(_.isLetter)).sorted.mkString("|")
  }

  def withFeatures(pairDf: DataFrame): DataFrame =
    pairDf
      .withColumn("ltk", toks(col("l_name")))
      .withColumn("rtk", toks(col("r_name")))
      .withColumn("f_jaccard", jaccardF(col("ltk"), col("rtk")))
      .withColumn("f_containment", containmentF(col("ltk"), col("rtk")))
      .withColumn("f_common", commonCountF(col("ltk"), col("rtk")))
      .withColumn("f_lenratio",
        least(size(col("ltk")), size(col("rtk"))).cast("double") /
          greatest(size(col("ltk")), size(col("rtk"))).cast("double"))
      .withColumn("f_model_eq",
        when(modelTok(col("ltk")) === "" || modelTok(col("rtk")) === "", -1.0)
          .when(modelTok(col("ltk")) === modelTok(col("rtk")), 1.0).otherwise(0.0))
      .withColumn("f_brand_eq",
        when(col("l_brand").isNull || col("r_brand").isNull, -1.0)
          .when(col("l_brand") === col("r_brand"), 1.0).otherwise(0.0))
      .withColumn("f_price_diff",
        when(col("l_price").isNull || col("r_price").isNull, -1.0)
          .otherwise(abs(col("l_price") - col("r_price")) /
            greatest(col("l_price"), col("r_price"), lit(1e-9))))
      .withColumn("f_price_present",
        when(col("l_price").isNull || col("r_price").isNull, 0.0).otherwise(1.0))
      .withColumn("f_size_eq",
        when(col("l_size").isNull || col("r_size").isNull, -1.0)
          .when(col("l_size") === col("r_size"), 1.0).otherwise(0.0))
      .withColumn("f_size_present",
        when(col("l_size").isNull || col("r_size").isNull, 0.0).otherwise(1.0))
      .withColumn("f_year_diff",
        when(col("l_year").isNull || col("r_year").isNull, -1.0)
          .otherwise(least(abs(col("l_year") - col("r_year")).cast("double"), lit(10.0)) / 10.0))
      .withColumn("f_year_present",
        when(col("l_year").isNull || col("r_year").isNull, 0.0).otherwise(1.0))
      .drop("ltk", "rtk")

  // ---- prepare ------------------------------------------------------------------

  final case class Collected(pairs: Array[(Long, Long)], votes: Array[Array[Int]],
                             feats: Array[Array[Double]])

  /** Blocks `ds` once, then collects each suite's votes and the features
    * from one cached plan per suite, as `Runner.prepare` used to.
    */
  def prepare(ds: EmDataGen.EmDataset, suites: Seq[Seq[Lf]]): Seq[Collected] = {
    val blocked = block(ds)
    suites.map { lfs =>
      val voteCols = lfs.indices.map(i => s"vote_$i")
      val withVotes = lfs.zipWithIndex.foldLeft(blocked) { case (d, (lf, i)) =>
        d.withColumn(s"vote_$i", lf.column)
      }
      val featCols = repro.emdata.Features.featureCols
      val full = withFeatures(withVotes).cache()
      val rows = full.select((Seq("id1", "id2") ++ voteCols ++ featCols).map(col): _*).collect()
      full.unpersist()
      Collected(
        rows.map(r => (r.getLong(0), r.getLong(1))),
        rows.map(r => Array.tabulate(voteCols.size)(i => r.getInt(i + 2))),
        rows.map(r => Array.tabulate(featCols.size)(i => r.getDouble(i + 2 + voteCols.size))))
    }
  }
}

class PrepareOracleSpec extends SparkSpec {
  import ReferencePrepare.Collected

  private val Scale = 0.25

  private def assertSame(what: String, got: Runner.Prepared, ref: Collected): Unit = {
    assert(got.pairs.sameElements(ref.pairs), s"$what: pairs or their order differ")
    assert(got.votes.length == ref.votes.length, s"$what: vote rows")
    got.votes.indices.foreach { i =>
      assert(java.util.Arrays.equals(got.votes(i), ref.votes(i)), s"$what: votes of row $i")
      assert(java.util.Arrays.equals(got.feats(i), ref.feats(i)), s"$what: feature bits of row $i")
    }
  }

  /** Runs `body` with `spark.sql.shuffle.partitions` set to `n`, then
    * restores the session's setting.
    */
  private def withShufflePartitions[A](n: Int)(body: => A): A = {
    val key = "spark.sql.shuffle.partitions"
    val saved = spark.conf.get(key)
    spark.conf.set(key, n.toString)
    try body finally spark.conf.set(key, saved)
  }

  private def checkAll(label: String): Unit =
    Datasets.all.zipWithIndex.foreach { case (cfg, k) =>
      val seed = 1000L + k
      val refs = ReferencePrepare.prepare(EmDataGen.generate(spark, cfg, Scale),
        Seq(ReferencePrepare.suite(cfg.name), ReferencePrepare.randomized(cfg.name, seed)))
      val suites = Seq(LfSuite.suite(cfg.name), LfSuite.randomized(cfg.name, seed))
      suites.zip(refs).zip(Seq("default", "randomized")).foreach { case ((lfs, ref), kind) =>
        val got = Runner.prepare(spark, cfg, Scale, Some(lfs))
        assert(got.pairs.nonEmpty, s"${cfg.name}: no candidate pairs")
        assertSame(s"$label ${cfg.name} $kind suite", got, ref)
      }
    }

  test("reference suites have the same LF names and new-LF flags") {
    Datasets.all.foreach { cfg =>
      val refs = ReferencePrepare.randomized(cfg.name, 7).map(lf => (lf.name, lf.isNew))
      assert(LfSuite.randomized(cfg.name, 7).map(lf => (lf.name, lf.isNew)) == refs, cfg.name)
    }
  }

  test("Runner.prepare matches the reference path on all 11 datasets (session partitions)") {
    checkAll(s"${spark.conf.get("spark.sql.shuffle.partitions")} partitions:")
  }

  test("Runner.prepare matches the reference path on all 11 datasets (8 partitions)") {
    val before = spark.conf.get("spark.sql.shuffle.partitions")
    withShufflePartitions(8)(checkAll("8 partitions:"))
    assert(spark.conf.get("spark.sql.shuffle.partitions") == before)
  }
}
