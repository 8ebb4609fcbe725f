package repro.core

import scala.util.Random

/** Constrained E-step for single-table EM (paper §4.3).
  *
  * The paper trains a PointNet-style network offline to approximate
  * h: γ* → γ** — but the network is itself trained on solutions produced by
  * numerically minimizing Eq. 7,
  *
  *   Loss(γ*, γ) = α Σ relu(γ^(i,j) γ^(i,k) − γ^(j,k)) + Σ KL(γ || γ*)
  *
  * over each ≤32-tuple connected component (α = 100). Our components are
  * small, so we run that solver directly at inference time: same optimum the
  * network approximates, minus the approximation error (substitution #4 in
  * DESIGN.md). Components are formed exactly as in the paper — edges with
  * γ* > 0.5, split by [[Transitivity.components]] — and oversized
  * components fall back to the paper's neighbor sampling scheme.
  */
object SingleTableSolver {

  final case class Config(alpha: Double = 100.0, iters: Int = 250, lr: Double = 0.08,
                          maxComponent: Int = 32, samplesPerEdge: Int = 3, seed: Long = 7)

  /** Map unconstrained probabilities to transitivity-consistent ones. */
  def constrain(pairs: Array[(Long, Long)], gammaStar: Array[Double],
                cfg: Config = Config()): Array[Double] = {
    val out = gammaStar.clone()
    val rng = new Random(cfg.seed)
    for ((members, comp) <- Transitivity.components(pairs, gammaStar) if members.length >= 3) {
      val pidx = comp.toSeq
      if (members.length <= cfg.maxComponent) {
        val solved = solveComponent(members, pidx.map(i => (pairs(i), gammaStar(i))), cfg)
        pidx.foreach { i =>
          val key = norm(pairs(i))
          solved.get(key).foreach(out(i) = _)
        }
      } else {
        // Paper's fallback: per predicted-match edge, sample neighbourhoods
        // of both endpoints, solve each sample, average the edge's value.
        // Each member's pairs, in pair order, from one pass over the pairs.
        val adj = pidx.flatMap { i => val (a, b) = pairs(i); Seq(a -> i, b -> i).distinct }
          .groupMap(_._1)(_._2)
        pidx.filter(gammaStar(_) > 0.5).foreach { e =>
          val (a, b) = pairs(e)
          val neighbours = (adj(a) ++ adj(b)).flatMap(i => Seq(pairs(i)._1, pairs(i)._2))
            .distinct.filterNot(x => x == a || x == b)
          var acc = 0.0; var cnt = 0
          for (_ <- 0 until cfg.samplesPerEdge) {
            val sample = (Seq(a, b) ++ rng.shuffle(neighbours).take(cfg.maxComponent - 2)).toArray
            val inSample = sample.toSet
            val sub = pidx.filter(i => inSample(pairs(i)._1) && inSample(pairs(i)._2))
                          .map(i => (pairs(i), gammaStar(i)))
            val solved = solveComponent(sample, sub, cfg)
            solved.get(norm(pairs(e))).foreach { v => acc += v; cnt += 1 }
          }
          if (cnt > 0) out(e) = acc / cnt
        }
      }
    }
    out
  }

  private def norm(p: (Long, Long)): (Long, Long) =
    (math.min(p._1, p._2), math.max(p._1, p._2))

  /** Minimize Eq. 7 over the t×t symmetric probability matrix of one
    * component by projected gradient descent with momentum, parameterized in
    * logit space to keep γ ∈ (0, 1). Returns solved values per candidate
    * pair. Pairs absent from the candidate set have γ* = 0 (blocked-out
    * non-matches), matching the paper's dummy-fill.
    */
  private[core] def solveComponent(members: Array[Long],
                                   candPairs: Seq[((Long, Long), Double)],
                                   cfg: Config): Map[(Long, Long), Double] = {
    val t = members.length
    val idx = members.zipWithIndex.toMap
    val eps = 1e-4
    val gStar = Array.fill(t, t)(eps)
    candPairs.foreach { case ((a, b), g) =>
      val i = idx(a); val j = idx(b)
      val v = math.min(1 - eps, math.max(eps, g))
      gStar(i)(j) = v; gStar(j)(i) = v
    }
    // logit parameterization, initialized at γ* (paper: "we always
    // initialize γ** as γ*").
    val u = Array.tabulate(t, t)((i, j) => math.log(gStar(i)(j) / (1 - gStar(i)(j))))
    val mom = Array.fill(t, t)(0.0)
    val g = Array.fill(t, t)(0.0)

    def sigmoid(x: Double) = 1.0 / (1.0 + math.exp(-x))

    for (_ <- 0 until cfg.iters) {
      var i = 0
      while (i < t) {
        var j = 0
        while (j < t) { g(i)(j) = sigmoid(u(i)(j)); j += 1 }
        i += 1
      }
      val dg = Array.fill(t, t)(0.0)
      // KL term gradient: log(γ/γ*) − log((1−γ)/(1−γ*)) per unordered pair.
      for (a <- 0 until t; b <- (a + 1) until t) {
        val gr = math.log(g(a)(b) / gStar(a)(b)) - math.log((1 - g(a)(b)) / (1 - gStar(a)(b)))
        dg(a)(b) += gr; dg(b)(a) += gr
      }
      // Transitivity penalty: for each pivot p and unordered {a,b}:
      // relu(γ_pa γ_pb − γ_ab).
      for (p <- 0 until t; a <- 0 until t if a != p; b <- (a + 1) until t if b != p) {
        val viol = g(p)(a) * g(p)(b) - g(a)(b)
        if (viol > 0) {
          dg(p)(a) += cfg.alpha * g(p)(b); dg(a)(p) += cfg.alpha * g(p)(b)
          dg(p)(b) += cfg.alpha * g(p)(a); dg(b)(p) += cfg.alpha * g(p)(a)
          dg(a)(b) -= cfg.alpha; dg(b)(a) -= cfg.alpha
        }
      }
      // Momentum step on logits (chain rule through the sigmoid). Logits are
      // clamped to ±30 so the sigmoid never saturates to an exact 0/1 (which
      // would make the KL gradient log(0) = -inf → NaN).
      for (a <- 0 until t; b <- 0 until t if a != b) {
        val grad = dg(a)(b) * g(a)(b) * (1 - g(a)(b))
        mom(a)(b) = 0.9 * mom(a)(b) + grad
        u(a)(b) = math.max(-30.0, math.min(30.0, u(a)(b) - cfg.lr * mom(a)(b)))
      }
    }
    candPairs.map { case ((a, b), _) =>
      // Clamp away from exact 0/1: the α=100 penalty can push logits past
      // the double-precision sigmoid saturation point.
      val v = sigmoid((u(idx(a))(idx(b)) + u(idx(b))(idx(a))) / 2.0)
      norm((a, b)) -> math.min(1 - 1e-9, math.max(1e-9, v))
    }.toMap
  }
}
