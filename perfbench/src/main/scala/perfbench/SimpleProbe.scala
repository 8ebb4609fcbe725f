package perfbench

import repro.core.{LabelModel, MajorityVote}
import repro.ml.{CrossVal, RandomForest, Smote}

/** Watches one SIMPLE fit through the public `constrain` hook of
  * `new Simple(constrain = …)`. The hook is called once on the majority-vote
  * start and once per E-step, so the gaps between calls are the M-steps
  * (SMOTE, CV, forest fit, E-step prediction). When `constrained`, each call
  * runs the real constraint inside a `core.constrain` span.
  */
final class EStepHook(inner: Array[Double] => Array[Double], constrained: Boolean,
                      tr: Tracer, c: Counters) extends (Array[Double] => Array[Double]) {
  var calls = 0
  var mstepSeconds = 0.0
  var assignEdges = 0L
  /** Output of the first call (the constrained majority vote). */
  var firstOut: Array[Double] = _
  /** Input of the second call: γ* of the first E-step. */
  var firstStar: Array[Double] = _
  var lastStar: Array[Double] = _
  private var prevOut: Array[Double] = _
  private var lastOut: Array[Double] = _
  private var lastExit = 0L

  def apply(gStar: Array[Double]): Array[Double] = {
    if (calls > 0) mstepSeconds += (System.nanoTime() - lastExit) / 1e9
    calls += 1
    val out =
      if (!constrained) inner(gStar)
      else tr.span("core.constrain", Tracer.Transitivity) {
        c.add("core.constrain_calls", 1)
        assignEdges += gStar.count(_ > 0.5)
        c.time("core.constrain_s")(inner(gStar))
      }
    if (calls == 1) firstOut = out
    if (calls == 2) firstStar = gStar
    prevOut = lastOut; lastOut = out; lastStar = gStar
    lastExit = System.nanoTime()
    out
  }

  def iterations: Int = math.max(0, calls - 1)

  /** Hard-label flips between the last two E-steps (Simple's stop test). */
  def flipsLast: Int =
    if (prevOut == null) 0
    else lastOut.indices.count(i => (lastOut(i) >= 0.5) != (prevOut(i) >= 0.5))

  def record(rows: Int): Unit = {
    c.add("core.simple.iters", iterations)
    c.add("core.simple.flips_last", flipsLast)
    c.add("core.simple.converged", if (iterations == 0 || flipsLast.toDouble / rows < 0.001) 1 else 0)
    c.add("core.simple.mstep_s", mstepSeconds)
  }
}

/** Replays the first M-step of a SIMPLE fit through the public ml calls
  * (`Smote.balance` → `CrossVal.selectRfParams` → `RandomForest.fit` →
  * `predictProba`) with Simple's defaults and seeds, and checks that it
  * reproduces the γ* the hook saw. Only a matching replay contributes
  * `ml.*` numbers; they describe the replay, not the program's own run.
  */
object MlReplay {
  val Depths: Seq[Int] = Seq(2, 4, 6, 9)
  val Alphas: Seq[Double] = Seq(0.0, 0.001, 0.01)
  val Folds = 3
  val Trees = 25

  def apply(label: String, votes: Array[Array[Int]], hook: EStepHook, seed: Long,
            tr: Tracer, c: Counters): Seq[String] = {
    if (hook.firstStar == null) return Nil // degenerate start: no M-step ran
    val xs = votes.map(_.map(_.toDouble))
    val y = LabelModel.harden(if (hook.firstOut != null) hook.firstOut else MajorityVote.fitPredict(votes))
    val local = new Counters
    def step[A](name: String)(body: => A): A = tr.span(name, Tracer.Ml)(local.time(name + "_s")(body))
    val star = tr.span("ml.replay", Tracer.Ml) {
      val (bx, by) = step("ml.smote")(Smote.balance(xs, y, k = 5, seed = seed))
      val params = step("ml.cv")(CrossVal.selectRfParams(bx, by, Depths, Alphas, folds = Folds,
                                                         numTrees = Trees, seed = seed))
      val model = step("ml.rf_fit")(RandomForest.fit(bx, by, params, seed = seed))
      val out = step("ml.predict")(xs.map(model.predictProba))
      local.add("ml.smote_rows_added", bx.length - xs.length)
      local.add("ml.cv_forest_fits", if (bx.length < Folds * 2) 0 else Depths.size * Alphas.size * Folds)
      local.add("ml.trees", params.numTrees)
      local.add("ml.train_rows", bx.length)
      local.add("ml.train_distinct_rows", bx.iterator.map(_.toSeq).distinct.size)
      out
    }
    if (Workload.sameBits(star, hook.firstStar)) {
      local.toMap.foreach { case (k, v) => c.add(k, v) }
      c.add("ml.replayed_msteps", 1)
      Nil
    } else Seq(s"$label: replayed M-step differs from the program's first E-step; ml.* withheld")
  }
}
