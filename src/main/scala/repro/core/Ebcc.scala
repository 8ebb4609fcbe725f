package repro.core

import scala.util.Random

/** Enhanced Bayesian Classifier Combination (Li et al., ICML 2019),
  * simplified: each class is a mixture of K latent subtypes, and each LF has
  * a per-(class, subtype) categorical emission table over {-1, 0, +1}.
  *
  * This captures EBCC's core idea — modeling inter-LF correlation through
  * shared latent subtypes (a low-rank decomposition of the joint vote
  * distribution) — fitted with plain EM over the joint (class, subtype)
  * responsibilities rather than full variational inference.
  *
  * The E-step runs once per distinct vote pattern on `log π`, `log ρ` and
  * `log prior` tables built once per round. The M-step adds per-row weights
  * in row order (the first round's weights are per row: a random subtype
  * split), so the output is the same, bit for bit, as a row-by-row fit.
  */
object Ebcc extends LabelModel {
  val name = "EBCC"

  private val K     = 2      // latent subtypes per class
  private val Iters = 80
  private val CK    = 2 * K  // (class, subtype) cells, class-major

  def fitPatterns(pats: VotePatterns, seed: Long): Array[Double] = {
    val n = pats.rows
    val m = pats.m
    val rowPat = pats.ofRow
    // π and log π hold one m × 3 block per (class, subtype) cell ck =
    // c * K + k, indexed by `cell`.
    val cell  = pats.tableCells
    val block = m * 3

    // Joint responsibilities r(c, k), CK per row; init from MV with a random
    // subtype split drawn per row.
    val rng = new Random(seed)
    val mv  = MajorityVote.ofPatterns(pats)
    val init  = new Array[Double](n * CK)
    val split = new Array[Double](K)
    var i = 0
    while (i < n) {
      var c = 0
      while (c < 2) {
        val base = if (c == 0) 1.0 - mv(rowPat(i)) else mv(rowPat(i))
        var tot = 0.0
        var k = 0
        while (k < K) { split(k) = 0.5 + rng.nextDouble(); tot += split(k); k += 1 }
        k = 0
        while (k < K) { init(i * CK + c * K + k) = base * split(k) / tot; k += 1 }
        c += 1
      }
      i += 1
    }

    val prior  = new Array[Double](2)
    val rho    = new Array[Double](CK)
    val pi     = new Array[Double](CK * block)
    val logRho = new Array[Double](CK)
    val logPi  = new Array[Double](CK * block)
    val post   = new Array[Double](CK)  // one pattern's log posterior, then posterior
    val r      = new Array[Double](pats.size * CK)
    // Round 1 reads row i's weights at init(i * CK), later rounds at r(p * CK).
    var weights = init
    var weightOf = Array.range(0, n)
    var iter = 0
    while (iter < Iters) {
      // M-step: class prior, subtype weights, emission tables (smoothed).
      prior(0) = 1.0; prior(1) = 1.0
      java.util.Arrays.fill(rho, 1.0)
      java.util.Arrays.fill(pi, 0.5)
      i = 0
      while (i < n) {
        val w0 = weightOf(i) * CK
        val q0 = rowPat(i) * m
        var ck = 0
        while (ck < CK) {
          val w = weights(w0 + ck)
          prior(ck / K) += w
          rho(ck) += w
          val off = ck * block
          var q = q0
          while (q < q0 + m) { pi(off + cell(q)) += w; q += 1 }
          ck += 1
        }
        i += 1
      }
      val priorSum = prior(0) + prior(1)
      var c = 0
      while (c < 2) {
        var rs = 0.0
        var k = 0
        while (k < K) { rs += rho(c * K + k); k += 1 }
        k = 0
        while (k < K) { logRho(c * K + k) = math.log(rho(c * K + k) / rs); k += 1 }
        c += 1
      }
      var t = 0
      while (t < pi.length) {
        val tot = pi(t) + pi(t + 1) + pi(t + 2)
        var s = t
        while (s < t + 3) { logPi(s) = math.log(pi(s) / tot); s += 1 }
        t += 3
      }
      val logPrior0 = math.log(prior(0) / priorSum)
      val logPrior1 = math.log(prior(1) / priorSum)

      // E-step: joint posterior over (c, k), once per pattern.
      var p = 0
      while (p < pats.size) {
        val q0 = p * m
        var mx = Double.NegativeInfinity
        var ck = 0
        while (ck < CK) {
          var l = (if (ck < K) logPrior0 else logPrior1) + logRho(ck)
          val off = ck * block
          var q = q0
          while (q < q0 + m) { l += logPi(off + cell(q)); q += 1 }
          post(ck) = l
          mx = math.max(mx, l)
          ck += 1
        }
        // Normaliser: summed per class, then over the classes.
        var tot = 0.0
        c = 0
        while (c < 2) {
          var sc = 0.0
          var k = 0
          while (k < K) { post(c * K + k) = math.exp(post(c * K + k) - mx); sc += post(c * K + k); k += 1 }
          tot += sc
          c += 1
        }
        ck = 0
        while (ck < CK) { r(p * CK + ck) = post(ck) / tot; ck += 1 }
        p += 1
      }
      weights = r
      weightOf = rowPat
      iter += 1
    }

    // P(y = +1) sums two separately normalised subtype posteriors, which can
    // round to a few ulps above 1.
    val out = new Array[Double](pats.size)
    var p = 0
    while (p < out.length) {
      var s = 0.0
      var k = 0
      while (k < K) { s += r(p * CK + K + k); k += 1 }
      out(p) = math.min(1.0, s)
      p += 1
    }
    pats.expand(out)
  }
}
