package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** SIMPLE-EM on a synthetic two-table fixture: 40 entities, one record per
  * side (both tables duplicate-free). Candidate pairs are all true pairs
  * plus distractor pairs; LF votes are noisy renditions of the truth, with
  * distractors occasionally drawing confident positive votes — exactly the
  * conflicts the transitivity constraint should resolve.
  */
class SimpleEmSpec extends AnyFunSuite {

  private val nEnt = 40
  private val rng = new Random(9)
  private val truePairs = (1 to nEnt).map(i => (i.toLong, 1000L + i))
  private val distractors = (1 to nEnt).flatMap { i =>
    Seq.fill(2)((i.toLong, 1000L + 1 + rng.nextInt(nEnt).toLong)).filter(_._2 != 1000L + i)
  }.distinct
  private val pairs = (truePairs ++ distractors).toArray
  private val gt = truePairs.toSet

  private val votes: Array[Array[Int]] = pairs.map { p =>
    val isMatch = gt.contains(p)
    Array.tabulate(6) { j =>
      val acc = Seq(0.92, 0.9, 0.85, 0.7, 0.65, 0.6)(j)
      val cov = Seq(0.95, 0.9, 0.9, 0.8, 0.8, 0.7)(j)
      if (rng.nextDouble() >= cov) 0
      else {
        val y = if (isMatch) 1 else -1
        if (rng.nextDouble() < acc) y else -y
      }
    }
  }

  private def f1(gamma: Array[Double]): Double = {
    val pred = pairs.indices.collect { case i if gamma(i) >= 0.5 => pairs(i) }.toSet
    Metrics.f1(pred, gt)
  }

  test("SIMPLE alone reaches a reasonable F1 on the fixture") {
    assert(f1(Simple.fitPredict(votes, 0)) > 0.7)
  }

  /** What SIMPLE-EM runs after its base fit once it has picked `strategy`. */
  private def forced(strategy: SimpleEm.Strategy): Array[Double] =
    new Simple(constrain = SimpleEm.transform(strategy, pairs), name = "SIMPLE-EM").fitPredict(votes, 0)

  test("forced both-dup-free constraint does not hurt, usually helps") {
    val base = f1(Simple.fitPredict(votes, 0))
    val em = f1(forced(SimpleEm.BothDupFree))
    assert(em >= base - 0.01, s"em=$em base=$base")
  }

  test("constrained output is a matching under both-dup-free") {
    val gamma = forced(SimpleEm.BothDupFree)
    val kept = pairs.indices.filter(gamma(_) >= 0.5)
    assert(kept.map(pairs(_)._1).distinct.size == kept.size)
    assert(kept.map(pairs(_)._2).distinct.size == kept.size)
  }

  test("forced left-dup-free keeps at most one left match per right tuple") {
    val gamma = forced(SimpleEm.LeftDupFree)
    val kept = pairs.indices.filter(gamma(_) >= 0.5)
    assert(kept.map(pairs(_)._2).distinct.size == kept.size)
  }

  test("auto-detection lands on a dup-free strategy for this dup-free fixture") {
    val out = SimpleEm.run(votes, pairs, Some((nEnt.toLong, nEnt.toLong)), seed = 0)
    assert(out.strategy != SimpleEm.NoTrans,
      s"expected a transitivity strategy, got ${out.strategy.describe}")
    // The run reports the plain SIMPLE fit it made, bit for bit.
    assert(java.util.Arrays.equals(out.base, Simple.fitPredict(votes, 0)))
  }

  test("single-table run applies the numerical solver and returns probabilities") {
    // Reinterpret the fixture as single-table pairs.
    val stPairs = pairs.map { case (a, b) => (a, b + 5000) }
    val out = SimpleEm.run(votes, stPairs, tables = None, seed = 0)
    assert(out.strategy == SimpleEm.SingleTable)
    assert(out.dupFreeTests.isEmpty)
    assert(out.gamma.forall(p => p >= 0 && p <= 1))
    assert(java.util.Arrays.equals(out.base, Simple.fitPredict(votes, 0)))
  }

  test("transform round-trip: NoTrans is identity") {
    val g = Array(0.1, 0.9)
    assert(SimpleEm.transform(SimpleEm.NoTrans, pairs.take(2))(g).sameElements(g))
  }
}
