package repro.core

/** Snorkel-style generative label model.
  *
  * The data-programming generative model (Ratner et al., 2016/2017): each LF
  * j has a propensity β_j = P(λ_j ≠ 0) and an accuracy α_j = P(λ_j = y | λ_j
  * ≠ 0); votes are conditionally independent given y. Parameters are learned
  * by EM on the marginal likelihood; the class prior is fixed from majority-
  * vote counts (the class-weight handling the paper describes for Snorkel in
  * its experimental setup).
  *
  * The E-step runs once per distinct vote pattern on the two per-LF log
  * terms `log max(1e-9, β_j α_j)` and `log max(1e-9, β_j (1 − α_j))`, built
  * once per round. The M-step and the convergence test still add per-row
  * terms in row order, so the output is the same, bit for bit, as a
  * row-by-row fit.
  */
object SnorkelModel extends LabelModel {
  val name = "SN"

  def fitPredict(votes: Array[Array[Int]], seed: Long = 0L): Array[Double] = {
    val n = votes.length
    if (n == 0) return Array.empty
    val pats = VotePatterns(votes)
    val m = pats.m
    val pv = pats.votes
    val rowPat = pats.ofRow
    val p1 = MajorityVote.classPrior(pats)

    // Propensities are observable directly.
    val fired = new Array[Int](m)
    var q = 0
    while (q < pv.length) { if (pv(q) != 0) fired(q % m) += pats.count(q / m); q += 1 }
    val beta = Array.tabulate(m)(j => math.min(0.999, math.max(1e-3, fired(j).toDouble / n)))
    val alpha = Array.fill(m)(0.7) // better-than-random init (weak-supervision assumption)
    var mu = MajorityVote.ofPatterns(pats)

    val logP1 = math.log(p1); val logP0 = math.log(1 - p1)
    val logHit  = new Array[Double](m) // log P(vote = y, fired)
    val logMiss = new Array[Double](m) // log P(vote = -y, fired)
    val agree = new Array[Double](m)
    var iter = 0
    var converged = false
    while (iter < 100 && !converged) {
      // E-step with current accuracies, once per pattern.
      var j = 0
      while (j < m) {
        logHit(j)  = math.log(math.max(1e-9, beta(j) * alpha(j)))
        logMiss(j) = math.log(math.max(1e-9, beta(j) * (1 - alpha(j))))
        j += 1
      }
      val next = new Array[Double](pats.size)
      var p = 0
      while (p < next.length) {
        var l1 = logP1; var l0 = logP0
        j = 0
        while (j < m) {
          val v = pv(p * m + j)
          if (v == 1) { l1 += logHit(j); l0 += logMiss(j) }
          else if (v == -1) { l1 += logMiss(j); l0 += logHit(j) }
          j += 1
        }
        val mx = math.max(l0, l1)
        val e1 = math.exp(l1 - mx); val e0 = math.exp(l0 - mx)
        next(p) = e1 / (e0 + e1)
        p += 1
      }
      val delta = pats.rowSumAbsDiff(next, mu) / n
      mu = next
      // M-step: accuracy = expected fraction of non-abstain votes agreeing with
      // y, with Laplace smoothing (agree starts at 1, the vote total at 2).
      java.util.Arrays.fill(agree, 1.0)
      var i = 0
      while (i < n) {
        val p = rowPat(i)
        val w = mu(p)
        j = 0
        while (j < m) {
          val v = pv(p * m + j)
          if (v == 1) agree(j) += w
          else if (v == -1) agree(j) += 1.0 - w
          j += 1
        }
        i += 1
      }
      j = 0
      while (j < m) { alpha(j) = math.min(0.999, math.max(1e-3, agree(j) / (2.0 + fired(j)))); j += 1 }
      converged = delta < 1e-6
      iter += 1
    }
    pats.expand(mu)
  }
}
