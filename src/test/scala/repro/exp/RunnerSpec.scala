package repro.exp

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core.{LabelModel, MajorityVote}
import repro.emdata.Datasets

class RunnerSpec extends SparkSpec {

  private lazy val fz = Runner.prepare(spark, Datasets.FZ, scale = 0.3)
  private lazy val m  = Runner.prepare(spark, Datasets.M, scale = 0.25)

  test("prepare aligns pairs, votes, features and truth") {
    assert(fz.pairs.length == fz.votes.length)
    assert(fz.pairs.length == fz.feats.length)
    assert(fz.pairs.length == fz.truth.length)
    assert(fz.votes.forall(_.length == fz.lfs.size))
  }

  test("truth array marks exactly the GT pairs in the candidate set") {
    fz.pairs.indices.foreach { i =>
      assert((fz.truth(i) == 1) == fz.ds.gt.contains(fz.pairs(i)))
    }
  }

  test("blocking recall is high at test scale") {
    assert(fz.blockingRecall > 0.85, s"recall=${fz.blockingRecall}")
  }

  test("majority vote already gets decent F1 on the clean FZ analogue") {
    val f1 = fz.f1(MajorityVote.fitPredict(fz.votes))
    assert(f1 > 0.5, s"MV F1 $f1")
  }

  test("SIMPLE beats or matches majority vote on FZ") {
    val mv = fz.f1(MajorityVote.fitPredict(fz.votes))
    val s  = fz.f1(repro.core.Simple.fitPredict(fz.votes, 0))
    assert(s >= mv - 0.05, s"simple=$s mv=$mv")
  }

  test("SIMPLE-EM runs end-to-end on a two-table dataset") {
    val out = Runner.simpleEm(fz, seed = 0)
    val f1 = fz.f1(out.gamma)
    assert(f1 > 0.5, s"SIMPLE-EM F1 $f1 strategy ${out.strategy.describe}")
  }

  test("SIMPLE-EM runs end-to-end on a single-table dataset") {
    val out = Runner.simpleEm(m, seed = 0)
    assert(out.strategy == repro.core.SimpleEm.SingleTable)
    assert(m.f1(out.gamma) > 0.3)
  }

  test("ZeroER produces probabilities on prepared features") {
    val g = Runner.zeroEr(fz)
    assert(g.length == fz.pairs.length && g.forall(p => p >= 0 && p <= 1))
  }

  test("predictedSet respects the partial-GT scope") {
    val ir = Runner.prepare(spark, Datasets.IR, scale = 0.25)
    val allMatch = Array.fill(ir.pairs.length)(1.0)
    val scoped = ir.predictedSet(allMatch)
    assert(scoped.subsetOf(ir.ds.evalScope.get))
  }

  test("degenerate inputs: empty tables give no pairs and empty model outputs") {
    val cases = Seq(
      "FZ without right records" -> Datasets.FZ.copy(pRight = 0.0),
      "FZ without records" -> Datasets.FZ.copy(pLeft = 0.0, pRight = 0.0),
      "M without records" -> Datasets.M.copy(pLeft = 0.0))
    cases.foreach { case (what, cfg) =>
      val p = Runner.prepare(spark, cfg, scale = 0.25)
      assert(p.pairs.isEmpty && p.votes.isEmpty && p.feats.isEmpty && p.truth.isEmpty, what)
      Runner.wsBaselines.foreach(m => assert(m.fitPredict(p.votes).isEmpty, s"$what: ${m.name}"))
      assert(Runner.zeroEr(p).isEmpty, s"$what: ZeroER")
      assert(Runner.simpleEm(p).gamma.isEmpty, s"$what: SIMPLE-EM")
    }
  }

  test("oracle: majority-vote labels via Spark SQL match DuckDB") {
    // Express MV as SQL over the vote columns and cross-check on DuckDB.
    val voteCols = fz.lfs.indices.map(i => s"vote_$i")
    val sumExpr = voteCols.map(col).reduce(_ + _)
    val sparkMv = fz.pairDf
      .select(col("id1"), col("id2"),
        when(sumExpr > 0, 1).otherwise(0).cast("int").as("mv"))
    val votesOnly = fz.pairDf.select((Seq("id1", "id2") ++ voteCols).map(col): _*)
    val sumSql = voteCols.map(c => s"CAST($c AS INT)").mkString(" + ")
    Oracle.assertEquivalent(
      sparkMv,
      s"SELECT id1, id2, CASE WHEN ($sumSql) > 0 THEN 1 ELSE 0 END AS mv FROM votes",
      "votes" -> votesOnly)
    // And the driver-side implementation agrees with the SQL formulation.
    val sqlMap = sparkMv.collect().map(r => (r.getLong(0), r.getLong(1)) -> r.getInt(2)).toMap
    val driver = LabelModel.harden(MajorityVote.fitPredict(fz.votes))
    fz.pairs.indices.foreach { i =>
      assert(driver(i) == sqlMap(fz.pairs(i)), s"row $i")
    }
  }

  test("oracle: match-count aggregation matches DuckDB") {
    val gamma = MajorityVote.fitPredict(fz.votes)
    val voteCols = fz.lfs.indices.map(i => s"vote_$i")
    val sumExpr = voteCols.map(col).reduce(_ + _)
    val sparkAgg = fz.pairDf.agg(
      sum(when(sumExpr > 0, 1).otherwise(0)).cast("long").as("n_match"))
    val votesOnly = fz.pairDf.select((Seq("id1", "id2") ++ voteCols).map(col): _*)
    val sumSql = voteCols.map(c => s"CAST($c AS INT)").mkString(" + ")
    Oracle.assertEquivalent(
      sparkAgg,
      s"SELECT CAST(sum(CASE WHEN ($sumSql) > 0 THEN 1 ELSE 0 END) AS BIGINT) AS n_match FROM votes",
      "votes" -> votesOnly)
    assert(gamma.count(_ >= 0.5) ==
      sparkAgg.collect().head.getLong(0))
  }
}
