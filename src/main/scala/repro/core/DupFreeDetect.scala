package repro.core

/** Duplicate-free detection with weak supervision (paper appendix 8.1).
  *
  * Null hypothesis: the left table is duplicate-free. Under the null, the x
  * true-positive matches hit x distinct right tuples, and the |M|−x false
  * positives hit right tuples uniformly at random, so the observed number of
  * distinct right tuples is d_r = x + D, where D follows the occupancy law of
  * [[occupancy]]. x is chosen by maximum likelihood of the observed d_r over
  * the grid 0, |M|/10, …, |M| (as in the paper); the null is rejected when
  * the mid-p tail P(d_r < observed) + ½·P(d_r = observed) < c = 0.05.
  * Rejecting means the table is NOT duplicate-free. ML-fitting x biases the
  * test toward not rejecting — the safe direction, per the paper.
  */
object DupFreeDetect {

  /** `xHat` is the ML x and `pValue` the mid-p tail there; an empty M gives x̂ = 0, p = 1. */
  final case class Result(dupFree: Boolean, observedDistinct: Int, matches: Int, xHat: Int, pValue: Double)

  private val C = 0.05 // the test's level

  /** Detect whether the LEFT table is duplicate-free, from predicted matches
    * M and the right-table size. (Left dups ⇒ a right tuple repeats in M.)
    * Swap the pair orientation to test the right table. The test is exact:
    * `seed` is unused, kept only for callers that still pass one.
    */
  def leftDupFree(matches: Seq[(Long, Long)], nRight: Long, seed: Long = 11): Result = {
    val mSize = matches.size
    val dObs  = matches.map(_._2).distinct.size
    if (mSize == 0) return Result(dupFree = true, dObs, mSize, xHat = 0, pValue = 1.0)

    // The right table holds at least the right tuples that occur in M.
    val bins = math.max(nRight, dObs.toLong)
    val step = math.max(1, mSize / 10)
    val xs = ((0 to mSize by step) :+ mSize).distinct.filter(_ <= dObs)
    // (x, P(d_r = dObs), mid-p tail); D above dObs − x is one merged state.
    val fits = xs.map { x =>
      val t = dObs - x
      val p = occupancy(mSize - x, x, bins, cap = t + 1)
      (x, p(t), p.iterator.take(t).sum + 0.5 * p(t))
    }
    val (xHat, _, pValue) = fits.maxBy(_._2) // the first grid point among equal likelihoods
    Result(dupFree = pValue >= C, dObs, mSize, xHat, pValue)
  }

  /** Law of D, the number of free bins hit when `balls` balls fall uniformly
    * into `bins` bins of which `blocked` are occupied (Feller, Vol. I; Johnson
    * & Kotz, *Urn Models*, 1977): entry d < cap is P(D = d), entry `cap` is
    * P(D ≥ cap). Ball by ball, P'(d) = P(d)·(blocked + d)/bins + P(d − 1)·(bins − blocked − d + 1)/bins.
    */
  private[core] def occupancy(balls: Int, blocked: Int, bins: Long, cap: Int): Array[Double] = {
    val n = bins.toDouble
    val p = new Array[Double](cap + 1)
    p(0) = 1.0
    for (j <- 0 until balls; d <- math.min(j + 1, cap) to 0 by -1) { // descending: p(d − 1) is still P
      val stay = if (d == cap) 1.0 else (blocked + d) / n
      p(d) = p(d) * stay + (if (d == 0) 0.0 else p(d - 1) * (n - blocked - d + 1) / n)
    }
    p
  }

  /** Detect whether the RIGHT table is duplicate-free (`seed` is unused, as in [[leftDupFree]]). */
  def rightDupFree(matches: Seq[(Long, Long)], nLeft: Long, seed: Long = 13): Result =
    leftDupFree(matches.map(p => (p._2, p._1)), nLeft)
}
