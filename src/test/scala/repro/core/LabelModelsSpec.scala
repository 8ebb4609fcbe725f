package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.wrench.WrenchGen
import scala.util.Random

/** Shared synthetic vote-matrix harness: LFs with known accuracies /
  * coverages over known ground truth, so each labeling model's recovery can
  * be measured against majority vote.
  */
object VoteFixtures {
  final case class Fixture(votes: Array[Array[Int]], truth: Array[Int])

  /** m LFs with per-LF accuracy/coverage; y ~ Bernoulli(posRate). */
  def make(n: Int, accs: Seq[Double], covs: Seq[Double], posRate: Double, seed: Long): Fixture = {
    val rng = new Random(seed)
    val truth = Array.fill(n)(if (rng.nextDouble() < posRate) 1 else 0)
    val votes = Array.tabulate(n) { i =>
      accs.indices.map { j =>
        if (rng.nextDouble() >= covs(j)) 0
        else {
          val y = if (truth(i) == 1) 1 else -1
          if (rng.nextDouble() < accs(j)) y else -y
        }
      }.toArray
    }
    Fixture(votes, truth)
  }

  def accuracy(gamma: Array[Double], truth: Array[Int]): Double =
    gamma.indices.count(i => (gamma(i) >= 0.5) == (truth(i) == 1)).toDouble / gamma.length
}

class LabelModelsSpec extends AnyFunSuite {
  import VoteFixtures._

  private val balanced = make(800,
    accs = Seq(0.9, 0.85, 0.6, 0.55, 0.75), covs = Seq(0.9, 0.8, 0.9, 0.9, 0.7),
    posRate = 0.5, seed = 1)
  private val skewed = make(800,
    accs = Seq(0.9, 0.8, 0.65, 0.6, 0.7, 0.55), covs = Seq(0.8, 0.8, 0.9, 0.9, 0.6, 0.9),
    posRate = 0.12, seed = 2)

  private def models: Seq[LabelModel] = Seq(MajorityVote, DawidSkene, Ebcc, SnorkelModel, FlyingSquid)

  test("majority vote: positive sum -> match, negative -> non-match, tie -> non-match") {
    val g = MajorityVote.fitPredict(Array(Array(1, 1, -1), Array(-1, -1, 1), Array(1, -1, 0), Array(0, 0, 0)))
    assert(g(0) >= 0.5 && g(1) < 0.5 && g(2) < 0.5 && g(3) < 0.5)
  }

  test("majority vote class prior is clipped to [0.01, 0.95]") {
    val allPos = Array.fill(10)(Array(1, 1))
    val allNeg = Array.fill(10)(Array(-1, -1))
    assert(MajorityVote.classPrior(allPos) == 0.95)
    assert(MajorityVote.classPrior(allNeg) == 0.01)
  }

  private lazy val wrench = WrenchGen.specs.map(WrenchGen.generate)

  private def inUnit(g: Array[Double]): Boolean = g.forall(p => p >= 0 && p <= 1)

  test("all models output probabilities in [0,1]") {
    models.foreach { m =>
      assert(inUnit(m.fitPredict(balanced.votes, 0)), m.name)
      wrench.foreach(d => assert(inUnit(m.fitPredict(d.votes, 0)), s"${m.name} on ${d.spec.name}"))
    }
  }

  test("rows with identical votes receive identical γ") {
    val inputs = (balanced.votes, "balanced") +: wrench.map(d => (d.votes, d.spec.name))
    for (m <- models; (votes, label) <- inputs) {
      val g = m.fitPredict(votes, 0)
      val byRow = votes.indices.groupBy(i => votes(i).toSeq)
      assert(byRow.values.forall(rows => rows.forall(i => g(i) == g(rows.head))), s"${m.name} on $label")
    }
  }

  test("degenerate matrices: one row, no LFs, all abstain, one pattern") {
    val inputs = Seq(
      "n = 1"       -> Array(Array(1, -1, 0)),
      "m = 0"       -> Array.fill(30)(Array.empty[Int]),
      "all abstain" -> Array.fill(30)(Array(0, 0, 0, 0)),
      "one pattern" -> Array.fill(30)(Array(1, 0, -1, 1)))
    for (m <- models; (label, votes) <- inputs) {
      val g = m.fitPredict(votes, 0)
      assert(g.length == votes.length && inUnit(g), s"${m.name} on $label")
    }
  }

  test("all models handle the empty matrix") {
    models.foreach(m => assert(m.fitPredict(Array.empty, 0).isEmpty))
  }

  test("all models are deterministic in seed") {
    models.foreach { m =>
      val a = m.fitPredict(skewed.votes, 5)
      val b = m.fitPredict(skewed.votes, 5)
      assert(a.sameElements(b), m.name)
    }
  }

  test("D&S beats majority vote when LF accuracies vary widely") {
    val mvAcc = accuracy(MajorityVote.fitPredict(balanced.votes), balanced.truth)
    val dsAcc = accuracy(DawidSkene.fitPredict(balanced.votes), balanced.truth)
    assert(dsAcc >= mvAcc - 0.01, s"ds=$dsAcc mv=$mvAcc")
    assert(dsAcc > 0.85)
  }

  test("Snorkel model recovers LF accuracies well enough to beat 0.85 accuracy") {
    val acc = accuracy(SnorkelModel.fitPredict(balanced.votes), balanced.truth)
    assert(acc > 0.85)
  }

  test("EBCC recovers the balanced fixture") {
    val acc = accuracy(Ebcc.fitPredict(balanced.votes), balanced.truth)
    assert(acc > 0.8)
  }

  test("FlyingSquid recovers the balanced fixture") {
    val acc = accuracy(FlyingSquid.fitPredict(balanced.votes), balanced.truth)
    assert(acc > 0.8)
  }

  test("models cope with a skewed class prior") {
    Seq[LabelModel](DawidSkene, SnorkelModel).foreach { m =>
      val acc = accuracy(m.fitPredict(skewed.votes), skewed.truth)
      assert(acc > 0.8, s"${m.name}: $acc")
    }
  }

  test("SIMPLE output shape and range") {
    val g = Simple.fitPredict(balanced.votes, 0)
    assert(g.length == balanced.votes.length)
    assert(g.forall(p => p >= 0 && p <= 1))
  }

  test("SIMPLE matches or beats majority vote on accuracy (balanced fixture)") {
    val mvAcc = accuracy(MajorityVote.fitPredict(balanced.votes), balanced.truth)
    val sAcc  = accuracy(Simple.fitPredict(balanced.votes, 0), balanced.truth)
    assert(sAcc >= mvAcc - 0.02, s"simple=$sAcc mv=$mvAcc")
  }

  test("SIMPLE handles degenerate all-abstain matrix") {
    val votes = Array.fill(50)(Array(0, 0, 0))
    val g = Simple.fitPredict(votes, 0)
    assert(g.forall(_ < 0.5)) // ties resolve to non-match
  }

  test("SIMPLE handles unanimous matrices without crashing") {
    val votes = Array.fill(50)(Array(1, 1, 1))
    val g = Simple.fitPredict(votes, 0)
    assert(g.forall(_ >= 0.5))
  }

  test("SIMPLE constrain hook is applied to the E-step output") {
    val s = new Simple(maxIters = 3, constrain = _.map(_ => 0.0), name = "zeroed")
    val g = s.fitPredict(balanced.votes, 0)
    assert(g.forall(_ == 0.0))
  }

  test("harden binarizes at 0.5") {
    assert(LabelModel.harden(Array(0.49, 0.5, 0.51)).sameElements(Array(0, 1, 1)))
  }

  test("Metrics.prf computes precision/recall/F1") {
    val pred = Set((1L, 2L), (1L, 3L))
    val truth = Set((1L, 2L), (4L, 5L))
    val m = Metrics.prf(pred, truth)
    assert(math.abs(m.precision - 0.5) < 1e-9)
    assert(math.abs(m.recall - 0.5) < 1e-9)
    assert(math.abs(m.f1 - 0.5) < 1e-9)
  }

  test("Metrics edge cases: empty prediction / empty truth") {
    assert(Metrics.f1(Set.empty, Set((1L, 2L))) == 0.0)
    assert(Metrics.prf(Set((1L, 2L)), Set.empty).recall == 0.0)
  }

  test("Metrics.binary accuracy and F1") {
    val (f1, acc) = Metrics.binary(Array(1, 0, 1, 1), Array(1, 0, 0, 1))
    assert(math.abs(acc - 0.75) < 1e-9)
    assert(math.abs(f1 - 0.8) < 1e-9)
  }
}
