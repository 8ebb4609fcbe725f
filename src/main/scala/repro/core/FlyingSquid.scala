package repro.core

/** FlyingSquid (Fu et al., ICML 2020): closed-form accuracy estimation via
  * the triplet method — no iterative EM.
  *
  * For LFs i, j, k that are conditionally independent given y (votes in ±1):
  * E[λ_i λ_j] = a_i a_j with a_i = E[λ_i y], so
  * |a_i| = sqrt(|E[λ_i λ_j] E[λ_i λ_k] / E[λ_j λ_k]|). Accuracies are the
  * median over all triplets; signs come from correlation with majority vote
  * (the standard better-than-random assumption). Labels are then aggregated
  * by a naive-Bayes vote with the MV-derived class prior. Abstentions are
  * conditioned away: moments use only rows where both LFs voted.
  *
  * Moments and signs are integer sums, taken over distinct vote patterns
  * weighted by their counts; each symmetric moment is computed once. The
  * aggregation runs once per pattern on two per-LF log terms.
  */
object FlyingSquid extends LabelModel {
  val name = "FS"

  def fitPredict(votes: Array[Array[Int]], seed: Long = 0L): Array[Double] = {
    val n = votes.length
    if (n == 0) return Array.empty
    val pats = VotePatterns(votes)
    val m = pats.m
    val pv = pats.votes
    val p1 = MajorityVote.classPrior(pats)
    val mv = MajorityVote.ofPatterns(pats)

    // Pairwise second moments over mutually non-abstaining rows, and each
    // LF's agreement with majority vote where it fired.
    val prod   = new Array[Long](m * m)
    val both   = new Array[Int](m * m)
    val agree  = new Array[Long](m)
    val fired  = new Array[Int](m)
    val voted  = new Array[Int](m)   // the LFs that fired on pattern p so far
    var p = 0
    while (p < pats.size) {
      val w = pats.count(p)
      val sign = if (mv(p) >= 0.5) 1 else -1
      var k = 0
      var j = 0
      while (j < m) {
        val v = pv(p * m + j)
        if (v != 0) {
          agree(j) += w.toLong * v * sign
          fired(j) += w
          var x = 0
          while (x < k) {
            val a = voted(x)
            prod(a * m + j) += w.toLong * pv(p * m + a) * v
            both(a * m + j) += w
            x += 1
          }
          voted(k) = j
          k += 1
        }
        j += 1
      }
      p += 1
    }
    val moment = new Array[Double](m * m)
    for (a <- 0 until m; b <- a + 1 until m if both(a * m + b) >= 5) {
      moment(a * m + b) = prod(a * m + b).toDouble / both(a * m + b)
      moment(b * m + a) = moment(a * m + b)
    }

    // Triplet estimates, median-aggregated per LF.
    val ests = new Array[Double](math.max(0, (m - 1) * (m - 2)))
    val acc = new Array[Double](m)
    var a = 0
    while (a < m) {
      var len = 0
      var b = 0
      while (b < m) {
        if (b != a) {
          var c = 0
          while (c < m) {
            val mbc = moment(b * m + c)
            if (c != a && c != b && math.abs(mbc) > 1e-3) {
              ests(len) = math.sqrt(math.min(1.0, math.abs(moment(a * m + b) * moment(a * m + c) / mbc)))
              len += 1
            }
            c += 1
          }
        }
        b += 1
      }
      val mag =
        if (len == 0) 0.2
        else { java.util.Arrays.sort(ests, 0, len); ests(len / 2) }
      // Sign from agreement with majority vote on non-abstain rows.
      val sign = if (fired(a) == 0 || agree(a) >= 0) 1.0 else -1.0
      acc(a) = sign * math.min(0.98, math.max(0.02, mag))
      a += 1
    }

    // Naive-Bayes aggregation: P(λ = y | λ != 0) = (1 + a) / 2.
    val logAgree    = new Array[Double](m)
    val logDisagree = new Array[Double](m)
    var j = 0
    while (j < m) {
      val pAgree = (1.0 + acc(j)) / 2.0
      logAgree(j)    = math.log(math.max(1e-9, pAgree))
      logDisagree(j) = math.log(math.max(1e-9, 1 - pAgree))
      j += 1
    }
    val logP1 = math.log(p1); val logP0 = math.log(1 - p1)
    val gamma = new Array[Double](pats.size)
    p = 0
    while (p < gamma.length) {
      var l1 = logP1; var l0 = logP0
      j = 0
      while (j < m) {
        val v = pv(p * m + j)
        if (v == 1) { l1 += logAgree(j); l0 += logDisagree(j) }
        else if (v == -1) { l1 += logDisagree(j); l0 += logAgree(j) }
        j += 1
      }
      val mx = math.max(l0, l1)
      val e1 = math.exp(l1 - mx); val e0 = math.exp(l0 - mx)
      gamma(p) = e1 / (e0 + e1)
      p += 1
    }
    pats.expand(gamma)
  }
}
