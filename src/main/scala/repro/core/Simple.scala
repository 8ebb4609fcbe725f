package repro.core

import repro.ml.{CrossVal, RandomForest, Smote}

/** SIMPLE (paper §3.2, Algorithm 1): the labeling model is a generic
  * classifier — a random forest — trained inside an EM loop.
  *
  *   1. γ <- majority vote on X
  *   2. M-step: ŷ = binarize(γ); (X', ŷ') = SMOTE(X, ŷ);
  *      select (d_max, ccp_alpha) by cross validation on (X', ŷ');
  *      fit the random forest on (X', ŷ').
  *   3. E-step: γ <- RF.predict_proba(X) — optionally followed by the
  *      transitivity constraint transform (SIMPLE-EM hooks in here, per the
  *      free-energy constrained E-step of §4).
  *   4. Repeat until convergence (≤ maxIters; the paper observes 10 suffices).
  *
  * `constrain` receives the unconstrained γ* of the current E-step and
  * returns the constrained γ**; identity for plain SIMPLE.
  */
class Simple(maxIters: Int = 10,
             constrain: Array[Double] => Array[Double] = identity,
             override val name: String = "SIMPLE") extends LabelModel {

  def fitPredict(votes: Array[Array[Int]], seed: Long = 0L): Array[Double] = fit(votes, seed).gamma

  def fit(votes: Array[Array[Int]], seed: Long = 0L): Simple.Fit = {
    val n = votes.length
    if (n == 0) return Simple.Fit(Array.empty, converged = true)
    val xs = votes.map(_.map(_.toDouble))
    var gamma = constrain(MajorityVote.fitPredict(votes))
    var iter = 0
    var converged = false
    while (iter < maxIters && !converged) {
      val y = LabelModel.harden(gamma)
      if (y.distinct.length < 2) { converged = true } // degenerate pseudo-labels
      else {
        // M-step: balance with SMOTE, select capacity by CV, fit the forest.
        val (bx, by)  = Smote.balance(xs, y, k = 5, seed = seed + iter)
        val params    = CrossVal.selectRfParams(bx, by, Simple.Depths, Simple.Alphas,
                                                folds = 3, numTrees = Simple.NumTrees,
                                                seed = seed + 31 * iter)
        val model     = RandomForest.fit(bx, by, params, seed = seed + 97 * iter)
        // E-step: predict on the ORIGINAL rows, then apply the constraint.
        val next  = constrain(xs.map(model.predictProba))
        val flips = next.zip(gamma).count { case (a, b) => (a >= 0.5) != (b >= 0.5) }
        converged = flips.toDouble / n < 0.001
        gamma = next
      }
      iter += 1
    }
    Simple.Fit(gamma, converged)
  }
}

/** Plain SIMPLE (Scala 2.13 rejects default arguments in this super call). */
object Simple extends Simple(10, identity, "SIMPLE") {
  /** `converged`: EM met its stop test (< 0.1% flips, or one class) before the round cap. */
  final case class Fit(gamma: Array[Double], converged: Boolean)

  // The forest size and the capacity grid CV searches over.
  private val NumTrees = 25
  private val Depths   = Seq(2, 4, 6, 9)
  private val Alphas   = Seq(0.0, 0.001, 0.01)
}
