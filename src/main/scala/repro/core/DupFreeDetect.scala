package repro.core

import scala.util.Random

/** Duplicate-free detection with weak supervision (paper appendix 8.1).
  *
  * Null hypothesis: the left table is duplicate-free. Under the null, the x
  * true-positive matches hit x distinct right tuples, and the |M|−x false
  * positives hit right tuples "randomly", so the observed number of distinct
  * right tuples d_r follows a coverage distribution. x is chosen by maximum
  * likelihood over a simulated empirical distribution (step |M|/10, as in
  * the paper); the null is rejected when P(d_r < observed) < c = 0.05.
  * Rejecting means the table is NOT duplicate-free. ML-fitting x biases the
  * test toward not rejecting — the safe direction, per the paper.
  */
object DupFreeDetect {

  final case class Result(dupFree: Boolean, observedDistinct: Int, matches: Int)

  private val C    = 0.05 // the test's level
  private val Reps = 400  // simulated draws per candidate x

  /** Detect whether the LEFT table is duplicate-free, from predicted matches
    * M and the right-table size. (Left dups ⇒ a right tuple repeats in M.)
    * Swap the pair orientation to test the right table.
    */
  def leftDupFree(matches: Seq[(Long, Long)], nRight: Long, seed: Long = 11): Result = {
    val mSize = matches.size
    val dObs  = matches.map(_._2).distinct.size
    if (mSize == 0 || dObs == mSize) return Result(dupFree = true, dObs, mSize)

    // The right table holds at least the right tuples that occur in M.
    val nDraw = math.max(nRight, dObs.toLong)
    val rng = new Random(seed)
    val step = math.max(1, mSize / 10)
    val xs = (0 to mSize by step) :+ mSize

    // Empirical distribution of d_r for a given count x of true positives.
    def simulate(x: Int): Array[Int] = Array.fill(Reps) {
      val seen = new java.util.HashSet[Long]()
      var d = x // the x true positives are distinct by the null hypothesis
      var k = 0
      while (k < mSize - x) {
        val v = drawId(rng.nextLong(), nDraw)
        // Draws may collide with the x "true" tuples (ids 1..x) or each other.
        if (v > x && seen.add(v)) d += 1
        k += 1
      }
      d
    }

    // ML choice of x: maximize the empirical probability of the observed d_r.
    var bestX = 0; var bestLik = -1.0; var bestDist: Array[Int] = null
    for (x <- xs.distinct if x <= dObs) {
      val dist = simulate(x)
      val lik  = dist.count(_ == dObs).toDouble / Reps
      if (lik > bestLik) { bestLik = lik; bestX = x; bestDist = dist }
    }
    if (bestDist == null) return Result(dupFree = false, dObs, mSize)
    // Mid-p left tail: when the ML-fitted x puts the mode AT the observed
    // value (d_r = x exactly), the strict tail P(d < obs) is 0 even though
    // the observation is perfectly explained — mid-p keeps the test biased
    // toward not rejecting, per the paper's design.
    val pBelow = (bestDist.count(_ < dObs) + 0.5 * bestDist.count(_ == dObs)) / Reps
    Result(dupFree = pBelow >= C, dObs, mSize)
  }

  /** Maps a raw `nextLong` draw to a right-tuple id in 1..n (n >= 1):
    * `1 + |r| % n`, with `Long.MinValue`, whose absolute value overflows,
    * reduced by `floorMod` into the same range.
    */
  private[core] def drawId(r: Long, n: Long): Long = 1 + math.floorMod(math.abs(r), n)

  /** Detect whether the RIGHT table is duplicate-free. */
  def rightDupFree(matches: Seq[(Long, Long)], nLeft: Long, seed: Long = 13): Result =
    leftDupFree(matches.map(p => (p._2, p._1)), nLeft, seed)
}
