package repro.emdata

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}

class BlockingFeaturesSpec extends SparkSpec {

  private lazy val fz = EmDataGen.generate(spark, Datasets.FZ, scale = 0.3)
  private lazy val m  = EmDataGen.generate(spark, Datasets.M, scale = 0.3)
  private lazy val fzBlocked = Blocking.block(spark, fz).cache()
  private lazy val mBlocked  = Blocking.block(spark, m).cache()

  test("blocking emits unique pairs") {
    val n = fzBlocked.count()
    assert(fzBlocked.select("id1", "id2").distinct().count() == n)
  }

  test("blocking recall is high on a clean dataset") {
    val cand = fzBlocked.select("id1", "id2").collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(Blocking.recall(cand, fz.gt) > 0.9)
  }

  test("single-table blocking respects id1 < id2") {
    mBlocked.select("id1", "id2").collect().foreach(r => assert(r.getLong(0) < r.getLong(1)))
  }

  test("blocked pairs carry both sides' attributes") {
    val cols = fzBlocked.columns.toSet
    assert(Set("l_name", "r_name", "l_price", "r_price", "l_size", "r_size").subsetOf(cols))
    assert(fzBlocked.where(col("l_name").isNull || col("r_name").isNull).count() == 0)
  }

  test("stopwords are exactly the tokens above the frequency threshold") {
    import spark.implicits._
    // 30 records all containing "common"; "rare" appears once.
    val df = (1 to 30).map(i => (i.toLong, s"common tok$i" + (if (i == 1) " rare" else "")))
      .toDF("rid", "name")
    val stops = Blocking.stopwords(spark, Seq(df), frac = 0.5)
    assert(stops == Set("common")) // 30 > max(20, 0.5*30=15)
    val none = Blocking.stopwords(spark, Seq(df), frac = 2.0)
    assert(none.isEmpty) // threshold above every count
  }

  test("minOverlap counts distinct shared tokens, not repeated ones") {
    import spark.implicits._
    def rec(rid: Long, name: String) = EmDataGen.Rec(rid, rid, name, "acme", None, None, None)
    val left  = Seq(rec(1, "aa aa bb"), rec(2, "aa bb")).toDF()
    val right = Seq(rec(11, "aa cc"), rec(12, "bb Aa dd")).toDF()
    val ds = EmDataGen.EmDataset(EmDataGen.EmConfig("T", twoTable = true, nEntities = 2),
      left, right, 2, 2, Set.empty, None)
    def pairs(minOverlap: Int) = Blocking.block(spark, ds, minOverlap).select("id1", "id2")
      .collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(pairs(1) == Set((1L, 11L), (1L, 12L), (2L, 11L), (2L, 12L)))
    // "aa aa bb" shares only "aa" with "aa cc": one distinct token.
    assert(pairs(2) == Set((1L, 12L), (2L, 12L)))
    assert(pairs(3).isEmpty)
  }

  test("token signals are computed from distinct lower-cased name tokens") {
    import spark.implicits._
    def rec(rid: Long, name: String) = EmDataGen.Rec(rid, rid, name, "acme", None, None, None)
    val ds = EmDataGen.EmDataset(EmDataGen.EmConfig("T", twoTable = true, nEntities = 1),
      Seq(rec(1, "aa aa bb")).toDF(), Seq(rec(11, "bb Aa dd")).toDF(), 1, 1, Set.empty, None)
    val r = Blocking.block(spark, ds)
      .select("l_tokens", "r_tokens", "tok_common", "tok_jaccard", "tok_containment").head()
    assert(r.getSeq[String](0) == Seq("aa", "bb"))
    assert(r.getSeq[String](1) == Seq("bb", "aa", "dd"))
    assert(r.getInt(2) == 2)
    assert(r.getDouble(3) == 2.0 / 3)
    assert(r.getDouble(4) == 1.0)
  }

  test("oracle: candidate pair count matches DuckDB token-join") {
    // Cross-check the blocker's pair generation against an equivalent SQL
    // formulation in DuckDB over an exploded token table.
    val stops = Blocking.stopwords(spark, Seq(fz.left, fz.right))
    val stopArr = stops.toSeq
    def tokDf(df: org.apache.spark.sql.DataFrame) = df
      .select(col("rid"), explode(split(lower(col("name")), "\\s+")).as("tok"))
      .where(!col("tok").isin(stopArr: _*))
      .distinct()
    val lt = tokDf(fz.left); val rt = tokDf(fz.right)
    val sparkPairs = lt.as("a").join(rt.as("b"), "tok")
      .select(col("a.rid").as("id1"), col("b.rid").as("id2")).distinct()
      .agg(count(lit(1)).as("n"))
    Oracle.assertEquivalent(
      sparkPairs,
      """SELECT count(*) AS n FROM (
           SELECT DISTINCT a.rid AS id1, b.rid AS id2
           FROM ltok a JOIN rtok b ON a.tok = b.tok)""",
      "ltok" -> lt, "rtok" -> rt)
  }

  test("oracle: per-pair overlap counts match DuckDB") {
    val stops = Blocking.stopwords(spark, Seq(fz.left, fz.right))
    val stopArr = stops.toSeq
    def tokDf(df: org.apache.spark.sql.DataFrame) = df
      .select(col("rid"), explode(split(lower(col("name")), "\\s+")).as("tok"))
      .where(!col("tok").isin(stopArr: _*)).distinct()
    val lt = tokDf(fz.left); val rt = tokDf(fz.right)
    val sparkOverlap = lt.as("a").join(rt.as("b"), "tok")
      .groupBy(col("a.rid").as("id1"), col("b.rid").as("id2"))
      .agg(count(lit(1)).as("overlap"))
    Oracle.assertEquivalent(
      sparkOverlap,
      """SELECT a.rid AS id1, b.rid AS id2, count(*) AS overlap
         FROM ltok a JOIN rtok b ON a.tok = b.tok
         GROUP BY a.rid, b.rid""",
      "ltok" -> lt, "rtok" -> rt)
  }

  // ---- features -------------------------------------------------------------

  private lazy val fzFeat = Features.withFeatures(fzBlocked).cache()

  test("feature columns are all present") {
    Features.featureCols.foreach(c => assert(fzFeat.columns.contains(c), c))
  }

  test("jaccard and containment are in [0,1]") {
    val rows = fzFeat.select("f_jaccard", "f_containment").collect()
    rows.foreach { r =>
      assert(r.getDouble(0) >= 0 && r.getDouble(0) <= 1)
      assert(r.getDouble(1) >= 0 && r.getDouble(1) <= 1)
    }
  }

  test("containment >= jaccard always") {
    fzFeat.select("f_jaccard", "f_containment").collect()
      .foreach(r => assert(r.getDouble(1) >= r.getDouble(0) - 1e-12))
  }

  test("missing attributes use the -1 sentinel with presence indicator 0") {
    val rows = fzFeat.select("f_price_diff", "f_price_present").collect()
    rows.foreach { r =>
      if (r.getDouble(1) == 0.0) assert(r.getDouble(0) == -1.0)
      else assert(r.getDouble(0) >= 0.0)
    }
  }

  test("model-token equality is ternary {-1,0,1}") {
    fzFeat.select("f_model_eq").collect()
      .foreach(r => assert(Set(-1.0, 0.0, 1.0).contains(r.getDouble(0))))
  }

  test("GT matches have higher mean jaccard than non-matches") {
    val rows = fzFeat.select("id1", "id2", "f_jaccard").collect()
    val (mj, nj) = rows.partition(r => fz.gt.contains((r.getLong(0), r.getLong(1))))
    val mAvg = mj.map(_.getDouble(2)).sum / math.max(1, mj.length)
    val nAvg = nj.map(_.getDouble(2)).sum / math.max(1, nj.length)
    assert(mAvg > nAvg + 0.1, s"match=$mAvg non=$nAvg")
  }

  test("text feature subset is a projection of the full set") {
    val idx = Features.textFeatureCols.map(Features.featureCols.indexOf)
    assert(idx.forall(_ >= 0))
  }
}
