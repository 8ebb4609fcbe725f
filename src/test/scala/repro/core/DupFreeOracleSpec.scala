package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** The exact duplicate-free test against brute force: the occupancy
  * recursion against enumeration of every draw sequence, and the whole
  * decision (x grid, first-argmax likelihood, mid-p tail, c = 0.05) against
  * a plain reference written over the enumerated law.
  */
class DupFreeOracleSpec extends AnyFunSuite {

  /** P(D = d), d = 0..balls, by enumerating all bins^balls draw sequences;
    * bins 0 until `blocked` are occupied, D counts the other bins hit.
    */
  private def bruteLaw(balls: Int, blocked: Int, bins: Int): Array[Double] = {
    val counts = new Array[Long](balls + 1)
    val seq = new Array[Int](balls)
    def visit(j: Int): Unit =
      if (j == balls) counts(seq.filter(_ >= blocked).distinct.length) += 1
      else (0 until bins).foreach { b => seq(j) = b; visit(j + 1) }
    visit(0)
    val total = math.pow(bins, balls)
    counts.map(_ / total)
  }

  test("the recursion matches enumeration for N <= 6, k <= 6 and every x <= N, merged bucket included") {
    for (n <- 1 to 6; k <- 0 to 6; x <- 0 to n) {
      val brute = bruteLaw(k, x, n)
      for (cap <- 0 to k) {
        val p = DupFreeDetect.occupancy(k, x, n, cap)
        (0 until cap).foreach(d => assert(math.abs(p(d) - brute(d)) < 1e-12, s"N=$n k=$k x=$x cap=$cap d=$d"))
        val tail = brute.drop(cap).sum
        assert(math.abs(p(cap) - tail) < 1e-12, s"N=$n k=$k x=$x cap=$cap tail")
      }
    }
  }

  test("the law sums to 1 at |M| = 5000 and N = 2000") {
    val (m, n) = (5000, 2000)
    for (x <- 0 to n by 500) {
      val p = DupFreeDetect.occupancy(m - x, x, n, cap = m - x)
      assert(p.forall(_ >= 0), s"x=$x")
      assert(math.abs(p.sum - 1.0) < 1e-9, s"x=$x sum=${p.sum}")
    }
  }

  /** The paper's test written plainly over the enumerated law of d_r. */
  private def referenceTest(matches: Seq[(Long, Long)], nRight: Int): (Boolean, Int, Double) = {
    val m = matches.size
    val dObs = matches.map(_._2).distinct.size
    val bins = math.max(nRight, dObs)
    val step = math.max(1, m / 10)
    val grid = ((0 to m by step) :+ m).distinct.filter(_ <= dObs)
    var best = -1.0; var xHat = -1; var p = Double.NaN
    for (x <- grid) {
      val law = bruteLaw(m - x, x, bins) // law of D; d_r = x + D
      val lik = law(dObs - x)
      if (lik > best) { best = lik; xHat = x; p = law.take(dObs - x).sum + 0.5 * lik }
    }
    (p >= 0.05, xHat, p)
  }

  test("the decision matches a plain reference over the enumerated law on small inputs") {
    val rng = new Random(7)
    for (_ <- 0 until 300) {
      val nRight = 1 + rng.nextInt(5)
      val m = 1 + rng.nextInt(6)
      val matches = (0 until m).map(i => (i.toLong, rng.nextInt(nRight + 1).toLong))
      val (dupFree, xHat, p) = referenceTest(matches, nRight)
      val r = DupFreeDetect.leftDupFree(matches, nRight)
      assert(r.xHat == xHat && r.dupFree == dupFree && math.abs(r.pValue - p) < 1e-12,
        s"$matches nRight=$nRight: got $r, reference ($dupFree, $xHat, $p)")
    }
  }

  test("x-hat has positive likelihood when few right tuples repeat in a large M") {
    // 240 matches on 236 distinct right tuples out of 400: far above what 240
    // random draws give, so x̂ must lie high on the grid, where the observation
    // is likely, and not fall back to x = 0.
    val matches = (0 until 240).map(i => (i.toLong, (i % 236).toLong))
    val r = DupFreeDetect.leftDupFree(matches, nRight = 400)
    val lik = DupFreeDetect.occupancy(240 - r.xHat, r.xHat, 400, cap = 236 - r.xHat + 1)(236 - r.xHat)
    assert(r.xHat > 0 && lik > 0, s"$r lik=$lik")
    assert(r.dupFree && r.pValue > 0.5, s"$r")
  }

  test("a one-to-one M reports x-hat = |M| and p = 1/2; an empty M reports x-hat = 0 and p = 1") {
    val r = DupFreeDetect.leftDupFree((1L to 40L).map(i => (i, i)), nRight = 100)
    assert(r.dupFree && r.xHat == 40 && r.pValue == 0.5, s"$r")
    assert(DupFreeDetect.leftDupFree(Seq.empty, 100) ==
      DupFreeDetect.Result(dupFree = true, observedDistinct = 0, matches = 0, xHat = 0, pValue = 1.0))
  }
}
