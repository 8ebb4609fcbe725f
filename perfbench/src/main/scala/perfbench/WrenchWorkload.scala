package perfbench

import repro.core._
import repro.exp.Runner
import repro.wrench.WrenchGen

/** `wrench`: general weak-supervision specs from 4 to 83 LFs. Each job
  * labels one generated spec with SIMPLE (one EM round, as in `em_label`)
  * and the five vote models, scored as Table 12 scores them (F1 or
  * accuracy per spec). No Spark and no transitivity code runs.
  */
object WrenchWorkload extends Workload {
  val name = "wrench"
  def scale: Option[Double] = None

  val specNames: Seq[String] = Seq("basketball", "yelp", "census", "sms")
  def jobNames: Seq[String] = specNames

  private var specs: Map[String, WrenchGen.Spec] = Map.empty
  private var data: Map[String, WrenchGen.WrenchData] = Map.empty

  /** Generates every spec, then warms the label models on a small slice. */
  def setUp(env: Env): Unit = {
    specs = specNames.map { n =>
      val s = WrenchGen.specs.find(_.name == n).get
      n -> s.copy(seed = Env.derive(s.seed, env.seed))
    }.toMap
    data = specNames.map(n => n -> WrenchGen.generate(specs(n))).toMap
    val warm = data("basketball").votes.take(500)
    new Simple(maxIters = 1).fitPredict(warm, 0)
    Runner.wsBaselines.foreach(_.fitPredict(warm, 0))
  }

  private final case class Ref(gammas: Seq[Array[Double]])

  private def score(spec: WrenchGen.Spec, gamma: Array[Double], truth: Array[Int]): Double = {
    val (f1, acc) = Metrics.binary(LabelModel.harden(gamma), truth)
    if (spec.metric == "F1") f1 else acc
  }

  def run(env: Env, job: String): Job = {
    val d = data(job)
    val t0 = System.nanoTime()
    val simple = new Simple(maxIters = 1).fitPredict(d.votes, 0)
    val others = Runner.wsBaselines.map(_.fitPredict(d.votes, 0))
    val seconds = Env.secondsSince(t0)
    val n = d.votes.length
    val problems = Checks.nonEmpty(job, n) ++ Checks.votes(job, d.votes) ++
      Checks.gamma(s"$job/SIMPLE", simple, n) ++
      Runner.wsBaselines.zip(others).flatMap { case (m, g) => Checks.gamma(s"$job/${m.name}", g, n) }
    Job(job, n, seconds, score(d.spec, simple, d.truth), problems, ref = Ref(simple +: others))
  }

  def trace(env: Env, ref: Job, tr: Tracer, c: Counters): Seq[String] = {
    val spec = specs(ref.name)
    val d = tr.span("wrench.generate", Tracer.WrenchGen)(c.time("wrench.generate_s")(WrenchGen.generate(spec)))
    val hook = new EStepHook(identity, constrained = false, tr, c)
    val simple = tr.span("core.simple.base", Tracer.CoreSimple)(c.time("core.simple.base_s") {
      new Simple(maxIters = 1, constrain = hook).fitPredict(d.votes, 0)
    })
    hook.record(d.votes.length)
    val others = VoteModels.traced(d.votes, tr, c)
    val expected = ref.ref.asInstanceOf[Ref].gammas
    val setUpVotes = data(ref.name).votes
    val same = d.votes.length == setUpVotes.length &&
      d.votes.indices.forall(i => d.votes(i).sameElements(setUpVotes(i))) &&
      (simple +: others).zip(expected).forall { case (a, b) => Workload.sameBits(a, b) }
    val mismatch = if (same) Nil else Seq(s"${ref.name}: traced outputs differ from the untraced run")
    mismatch ++ MlReplay(ref.name, d.votes, hook, seed = 0, tr, c)
  }
}
