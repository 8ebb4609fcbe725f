package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.ml.RandomForest
import scala.util.Random

/** Behavioral tests of the SIMPLE mechanism itself: the paper's claim is
  * that a capacity-controlled generic classifier can out-combine majority
  * vote precisely when LFs are heterogeneous and correlated — MV counts
  * votes, the forest learns which vote *patterns* are trustworthy.
  */
class SimpleBehaviorSpec extends AnyFunSuite {

  /** Two good LFs + four correlated copies of one bad LF. MV is dominated
    * by the bad block; the interaction pattern (good LFs agreeing) is
    * recoverable.
    */
  private def correlatedBad(n: Int, seed: Long): (Array[Array[Int]], Array[Int]) = {
    val rng = new Random(seed)
    val truth = Array.fill(n)(if (rng.nextDouble() < 0.4) 1 else 0)
    val votes = truth.map { t =>
      val y = if (t == 1) 1 else -1
      val good1 = if (rng.nextDouble() < 0.88) y else -y
      val good2 = if (rng.nextDouble() < 0.85) y else -y
      val bad   = if (rng.nextDouble() < 0.52) y else -y // near-random
      // four correlated copies of the bad signal (small independent flips)
      val copies = Array.fill(4)(if (rng.nextDouble() < 0.9) bad else -bad)
      Array(good1, good2, bad) ++ copies
    }
    (votes, truth)
  }

  private def acc(g: Array[Double], truth: Array[Int]): Double =
    g.indices.count(i => (g(i) >= 0.5) == (truth(i) == 1)).toDouble / g.length

  test("SIMPLE is not dragged below majority vote by a correlated bad-LF block") {
    // When the correlated block DOMINATES the vote sum, the MV pseudo-labels
    // themselves carry the block's errors, so no labeling model can recover
    // the truth from the matrix alone — the paper's wins come from regimes
    // with coverage/accuracy heterogeneity (exercised end-to-end in the
    // Table 3 bench). Here we assert non-inferiority: the EM loop must not
    // drift below its MV initialization.
    val (votes, truth) = correlatedBad(1500, 1)
    val mv = acc(MajorityVote.fitPredict(votes), truth)
    val s  = acc(Simple.fitPredict(votes, 0), truth)
    assert(mv < 0.85, s"fixture not adversarial enough for MV: $mv")
    assert(s >= mv - 0.03, s"simple=$s mv=$mv")
  }

  test("SIMPLE converges within its iteration budget (flip fraction < 0.1%)") {
    val (votes, _) = correlatedBad(800, 2)
    assert(Simple.fit(votes, 0).converged)
  }

  test("SIMPLE with heavy class imbalance keeps positive recall via SMOTE") {
    val rng = new Random(3)
    val truth = Array.fill(2000)(if (rng.nextDouble() < 0.05) 1 else 0)
    val votes = truth.map { t =>
      val y = if (t == 1) 1 else -1
      Array.tabulate(5) { j =>
        val a = Seq(0.9, 0.85, 0.8, 0.7, 0.6)(j)
        if (rng.nextDouble() < 0.2) 0 else if (rng.nextDouble() < a) y else -y
      }
    }
    val g = Simple.fitPredict(votes, 0)
    val pred = LabelModel.harden(g)
    val (f1, _) = Metrics.binary(pred, truth)
    assert(f1 > 0.5, s"imbalanced F1 $f1")
  }

  test("different seeds give similar quality (stability)") {
    val (votes, truth) = correlatedBad(800, 4)
    val a = acc(Simple.fitPredict(votes, 1), truth)
    val b = acc(Simple.fitPredict(votes, 99), truth)
    assert(math.abs(a - b) < 0.1, s"seed variance too high: $a vs $b")
  }

  test("capacity restriction matters: unbounded depth does not beat the CV'd model") {
    val (votes, truth) = correlatedBad(1000, 5)
    val cvd  = acc(Simple.fitPredict(votes, 0), truth)
    // The trivial solution: a deep forest that memorizes the MV pseudo-labels.
    // The CV'd model should never be clearly worse.
    val xs = votes.map(_.map(_.toDouble))
    val mv = LabelModel.harden(MajorityVote.fitPredict(votes))
    val forest = RandomForest.fit(xs, mv, RandomForest.Params(maxDepth = 12), seed = 0)
    val deep = acc(xs.map(forest.predictProba), truth)
    assert(cvd >= deep - 0.05, s"cv=$cvd deep=$deep")
  }
}
