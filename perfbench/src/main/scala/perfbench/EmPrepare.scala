package perfbench

import org.apache.spark.sql.functions.col
import repro.core._
import repro.emdata.{Blocking, Datasets, EmDataGen, Features}
import repro.exp.Runner
import repro.lf.LabelingFunctions
import repro.zeroer.ZeroEr

/** `em_prepare`: every EM analogue through `Runner.prepare` (generate →
  * block → LF votes → features → collect), then the five vote models and
  * ZeroER. Spark preparation does most of the work; the forest and the
  * transitivity code do none.
  */
object EmPrepare extends Workload {
  val name = "em_prepare"
  val Scale = 0.5
  def scale: Option[Double] = Some(Scale)

  def jobNames: Seq[String] = Datasets.all.map(_.name)
  private def lfs(env: Env, job: String) = Env.lfs(Datasets.byName(job), env.seed)

  /** Fresh Spark session plus one warm-up prepare of the smallest dataset. */
  def setUp(env: Env): Unit = {
    val spark = env.restartSpark()
    Runner.prepare(spark, Datasets.FZ, Scale, Some(lfs(env, "FZ"))).pairDf.unpersist()
  }

  private final case class Ref(votesByPair: Map[(Long, Long), Seq[Int]])

  def run(env: Env, job: String): Job = {
    val t0 = System.nanoTime()
    val p = Runner.prepare(env.spark, Datasets.byName(job), Scale, Some(lfs(env, job)))
    val prepareS = Env.secondsSince(t0)
    val gammas = Runner.wsBaselines.map(m => m.name -> m.fitPredict(p.votes))
    val zero = Runner.zeroEr(p)
    val seconds = Env.secondsSince(t0)
    p.pairDf.unpersist()
    val n = p.pairs.length
    val problems = Checks.nonEmpty(job, n) ++ Checks.votes(job, p.votes) ++
      gammas.flatMap { case (m, g) => Checks.gamma(s"$job/$m", g, n) } ++
      Checks.gamma(s"$job/ZeroER", zero, n)
    val mv = gammas.head._2
    Job(job, n, seconds, if (n > 0) p.f1(mv) else 0.0, problems,
        Map("runner.prepare_s" -> prepareS),
        Ref(p.pairs.indices.map(i => p.pairs(i) -> p.votes(i).toSeq).toMap))
  }

  /** Calls each public preparation stage in turn and forces it with an
    * action (caching its output), so each stage's span holds its own work.
    */
  def trace(env: Env, ref: Job, tr: Tracer, c: Counters): Seq[String] = {
    val spark = env.spark
    val cfg = Datasets.byName(ref.name)
    def stage[A](name: String)(body: => A): A = tr.span(name, Tracer.SparkPrep)(c.time(name + "_s")(body))
    val ds = stage("emdata.generate")(EmDataGen.generate(spark, cfg, Scale))
    val blocked = stage("emdata.block") {
      val b = Blocking.block(spark, ds).cache(); b.count(); b
    }
    val suite = lfs(env, ref.name)
    val (withVotes, voteCols) = stage("lf.votes") {
      val (d, cols) = LabelingFunctions.withVotes(blocked, suite)
      d.cache().count()
      (d, cols)
    }
    val full = stage("emdata.features") {
      val f = Features.withFeatures(withVotes).cache(); f.count(); f
    }
    val (pairs, votes, feats) = stage("runner.collect") {
      val rows = full.select((Seq("id1", "id2") ++ voteCols ++ Features.featureCols).map(col): _*).collect()
      (rows.map(r => (r.getLong(0), r.getLong(1))),
       rows.map(r => Array.tabulate(voteCols.size)(i => r.getInt(i + 2))),
       rows.map(r => Array.tabulate(Features.featureCols.size)(i => r.getDouble(i + 2 + voteCols.size))))
    }
    Seq(full, withVotes, blocked).foreach(_.unpersist())

    c.add("emdata.records", (if (cfg.twoTable) ds.nLeft + ds.nRight else ds.nLeft).toDouble)
    c.add("emdata.candidate_pairs", pairs.length)
    c.add("emdata.blocking_recall_sum", Blocking.recall(pairs.toSet, ds.gt))
    c.add("lf.count", suite.size)

    VoteModels.traced(votes, tr, c)
    tr.span("zeroer.fit", Tracer.ZeroEr)(c.time("zeroer.fit_s") {
      ZeroEr.fitPredict(feats, jaccardIdx = Features.featureCols.indexOf("f_jaccard"),
                        modelEqIdx = Features.featureCols.indexOf("f_model_eq"), seed = 0)
    })

    val expected = ref.ref.asInstanceOf[Ref].votesByPair
    val same = pairs.length == expected.size &&
      pairs.indices.forall(i => expected.get(pairs(i)).contains(votes(i).toSeq))
    if (same) Nil else Seq(s"${ref.name}: staged preparation differs from Runner.prepare")
  }
}

/** The five vote models (`Runner.wsBaselines`) as traced runs time them. */
object VoteModels {
  val spans: Seq[(LabelModel, String)] = Seq(
    MajorityVote -> "core.mv", DawidSkene -> "core.ds", Ebcc -> "core.ebcc",
    FlyingSquid -> "core.fs", SnorkelModel -> "core.sn")

  /** Fits each model in its span and records the labeling matrix's shape:
    * rows and distinct vote patterns.
    */
  def traced(votes: Array[Array[Int]], tr: Tracer, c: Counters): Seq[Array[Double]] = {
    record(votes, c)
    spans.map { case (m, span) => tr.span(span, Tracer.CoreVote)(c.time(span + "_s")(m.fitPredict(votes, 0))) }
  }

  def record(votes: Array[Array[Int]], c: Counters): Unit = {
    c.add("core.vote_rows", votes.length)
    c.add("core.vote_patterns", votes.iterator.map(_.toSeq).distinct.size)
  }
}
