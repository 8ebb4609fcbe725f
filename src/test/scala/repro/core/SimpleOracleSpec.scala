package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.PropSupport
import repro.ml.{CrossVal, RandomForest, Smote}
import repro.wrench.WrenchGen

/** SIMPLE as a row-by-row loop: a per-row majority-vote start, one feature
  * row per input row, and `predictProba` on every row, with `Simple`'s grid
  * and its SMOTE, CV and forest calls and seeds. `Simple.fit` reads the
  * matrix through its vote-pattern index and must reproduce this loop bit
  * for bit.
  */
object ReferenceSimple {
  def fit(votes: Array[Array[Int]], maxIters: Int, constrain: Array[Double] => Array[Double],
          seed: Long): Simple.Fit = {
    val n = votes.length
    if (n == 0) return Simple.Fit(Array.empty, converged = true)
    val xs = votes.map(_.map(_.toDouble))
    var gamma = constrain(ReferenceVoteModels.majorityVote(votes))
    var iter = 0
    var converged = false
    while (iter < maxIters && !converged) {
      val y = LabelModel.harden(gamma)
      if (y.distinct.length < 2) converged = true
      else {
        val (bx, by) = Smote.balance(xs, y, k = 5, seed = seed + iter)
        val params = CrossVal.selectRfParams(bx, by, Seq(2, 4, 6, 9), Seq(0.0, 0.001, 0.01),
                                             folds = 3, numTrees = 25, seed = seed + 31 * iter)
        val model = RandomForest.fit(bx, by, params, seed = seed + 97 * iter)
        val next = constrain(xs.map(model.predictProba))
        val flips = next.zip(gamma).count { case (a, b) => (a >= 0.5) != (b >= 0.5) }
        converged = flips.toDouble / n < 0.001
        gamma = next
      }
      iter += 1
    }
    Simple.Fit(gamma, converged)
  }
}

class SimpleOracleSpec extends AnyFunSuite with PropSupport {

  /** Candidate pairs in blocks of six rows: two left tuples by three right
    * tuples, so no component of the match graph has more than five tuples.
    */
  private def pairs(n: Int): Array[(Long, Long)] =
    Array.tabulate(n)(i => ((2 * (i / 6) + i % 6 / 3).toLong, (3 * (i / 6) + i % 3).toLong))

  /** The hooks under which `Simple.fit` differs from the reference in γ or
    * in `converged`; empty when both hooks match.
    */
  private def mismatches(votes: Array[Array[Int]], maxIters: Int, seed: Long): Seq[String] = {
    val none: Array[Double] => Array[Double] = identity
    Seq("identity" -> none, "both-dup-free" -> SimpleEm.transform(SimpleEm.BothDupFree, pairs(votes.length)))
      .filterNot { case (_, hook) =>
        val got  = new Simple(maxIters, hook, "SIMPLE").fit(votes, seed)
        val want = ReferenceSimple.fit(votes, maxIters, hook, seed)
        java.util.Arrays.equals(got.gamma, want.gamma) && got.converged == want.converged
      }.map(_._1)
  }

  private def wrench(name: String): Array[Array[Int]] =
    WrenchGen.generate(WrenchGen.specs.find(_.name == name).get).votes

  test("WRENCH specs basketball, yelp, census and sms: Simple.fit equals the row-by-row loop") {
    for (name <- Seq("basketball", "yelp", "census", "sms"))
      assert(mismatches(wrench(name), maxIters = 2, seed = 0).isEmpty, name)
  }

  test("youtube without a round cap: EM stops on the flip test where the row-by-row loop stops") {
    assert(mismatches(wrench("youtube"), maxIters = 10, seed = 0).isEmpty)
  }

  private val matrixCase = for {
    seed     <- Gen.choose(0L, 1000000L)
    n        <- Gen.frequency(1 -> Gen.const(0), 1 -> Gen.choose(1, 5), 8 -> Gen.choose(6, 200))
    m        <- Gen.frequency(3 -> Gen.choose(0, 3), 5 -> Gen.choose(4, 12), 2 -> Gen.choose(13, 40))
    patterns <- Gen.choose(1, 25)
    maxIters <- Gen.choose(1, 4)
  } yield (seed, n, m, patterns, maxIters)

  test("property: duplicate-heavy vote matrices give bit-identical γ and convergence") {
    checkProp(Prop.forAllNoShrink(matrixCase) { case (seed, n, m, patterns, maxIters) =>
      mismatches(VoteFixtures.duplicated(seed, n, m, patterns), maxIters, seed).isEmpty
    }, minTests = 30)
  }
}
