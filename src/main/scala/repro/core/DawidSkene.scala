package repro.core

/** Dawid & Skene (1979): per-LF confusion matrices learned by EM.
  *
  * Each LF j emits a symbol in {-1, 0, +1}; its behaviour is modeled by a
  * confusion table π_j[class][symbol] (abstention is an emission, so
  * LF coverage is part of the model). EM alternates:
  *   E-step: posterior P(y_i = +1 | row_i) from current π and class prior;
  *   M-step: re-estimate π and the prior from the posteriors
  * with Laplace smoothing. Initialized from majority vote (paper §3.1).
  *
  * The E-step runs once per distinct vote pattern on a `log π` table built
  * once per round. The M-step and the convergence test still add per-row
  * terms in row order, so the output is the same, bit for bit, as a
  * row-by-row fit.
  */
object DawidSkene extends LabelModel {
  val name = "D&S"

  def fitPatterns(pats: VotePatterns, seed: Long): Array[Double] = {
    val n = pats.rows
    val m = pats.m
    val rowPat = pats.ofRow
    // π and log π hold one m × 3 block per class (c = 0: y = -1), indexed
    // by `cell`.
    val cell  = pats.tableCells
    val block = m * 3
    val pi    = new Array[Double](2 * block)
    val logPi = new Array[Double](2 * block)
    val prior = new Array[Double](2)

    var mu = MajorityVote.ofPatterns(pats)     // P(y = +1) per pattern
    var iter = 0
    var converged = false
    while (iter < 100 && !converged) {
      // M-step: confusion tables + prior with Laplace smoothing.
      java.util.Arrays.fill(pi, 1.0)           // smoothing pseudo-count
      prior(0) = 1.0; prior(1) = 1.0
      var i = 0
      while (i < n) {
        val p = rowPat(i)
        val w1 = mu(p); val w0 = 1.0 - mu(p)
        prior(1) += w1; prior(0) += w0
        var q = p * m
        val end = q + m
        while (q < end) {
          val c = cell(q)
          pi(block + c) += w1
          pi(c) += w0
          q += 1
        }
        i += 1
      }
      val priorSum = prior(0) + prior(1)
      var t = 0
      while (t < pi.length) {
        val tot = pi(t) + pi(t + 1) + pi(t + 2)
        var s = t
        while (s < t + 3) { logPi(s) = math.log(pi(s) / tot); s += 1 }
        t += 3
      }
      // E-step, once per pattern.
      val lp1 = math.log(prior(1) / priorSum)
      val lp0 = math.log(prior(0) / priorSum)
      val next = new Array[Double](pats.size)
      var p = 0
      while (p < next.length) {
        var l1 = lp1
        var l0 = lp0
        var q = p * m
        val end = q + m
        while (q < end) {
          val c = cell(q)
          l1 += logPi(block + c)
          l0 += logPi(c)
          q += 1
        }
        val mx = math.max(l0, l1)
        val e1 = math.exp(l1 - mx); val e0 = math.exp(l0 - mx)
        next(p) = e1 / (e0 + e1)
        p += 1
      }
      val delta = pats.rowSumAbsDiff(next, mu) / n
      mu = next
      converged = delta < 1e-6
      iter += 1
    }
    pats.expand(mu)
  }
}
