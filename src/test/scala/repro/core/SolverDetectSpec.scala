package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class SolverDetectSpec extends AnyFunSuite {

  private def violations(pairs: Array[(Long, Long)], g: Array[Double]): Double = {
    val sim = pairs.indices.map(i => (math.min(pairs(i)._1, pairs(i)._2),
                                      math.max(pairs(i)._1, pairs(i)._2)) -> g(i)).toMap
    val nodes = pairs.flatMap(p => Seq(p._1, p._2)).distinct
    var total = 0.0
    for (p <- nodes; a <- nodes if a != p; b <- nodes if b != p && a < b) {
      def get(x: Long, y: Long) = sim.getOrElse((math.min(x, y), math.max(x, y)), 0.0)
      total += math.max(0.0, get(p, a) * get(p, b) - get(a, b))
    }
    total
  }

  test("solver reduces transitivity violations on a violated triangle") {
    val pairs = Array((1L, 2L), (1L, 3L), (2L, 3L))
    val gStar = Array(0.95, 0.95, 0.05)
    val out = SingleTableSolver.constrain(pairs, gStar)
    assert(violations(pairs, out) < violations(pairs, gStar) * 0.3,
      s"before=${violations(pairs, gStar)} after=${violations(pairs, out)}")
  }

  test("solver pulls the missing edge of a confident triangle up") {
    val pairs = Array((1L, 2L), (1L, 3L), (2L, 3L))
    val gStar = Array(0.95, 0.95, 0.05)
    val out = SingleTableSolver.constrain(pairs, gStar)
    // Either the weak edge rises or the strong edges drop: KL vs penalty.
    assert(out(2) > 0.05 || (out(0) < 0.9 && out(1) < 0.9))
  }

  test("solver leaves an already-consistent component nearly unchanged") {
    val pairs = Array((1L, 2L), (1L, 3L), (2L, 3L))
    val gStar = Array(0.9, 0.9, 0.9)
    val out = SingleTableSolver.constrain(pairs, gStar)
    pairs.indices.foreach(i => assert(math.abs(out(i) - gStar(i)) < 0.15))
  }

  test("solver does not touch pairs outside any >0.5 component") {
    val pairs = Array((1L, 2L), (3L, 4L))
    val gStar = Array(0.3, 0.2)
    val out = SingleTableSolver.constrain(pairs, gStar)
    assert(out.sameElements(gStar))
  }

  test("solver output stays in (0,1)") {
    val rng = new Random(0)
    val ids = (1L to 10L).toArray
    val pairs = (for (i <- ids.indices; j <- (i + 1) until ids.length) yield (ids(i), ids(j))).toArray
    val gStar = Array.fill(pairs.length)(rng.nextDouble())
    val out = SingleTableSolver.constrain(pairs, gStar)
    assert(out.forall(p => p > 0 && p < 1))
  }

  test("oversized components use edge sampling and still return probabilities") {
    val rng = new Random(1)
    val n = 40 // above maxComponent=32
    // A chain keeps everything in one component.
    val chain = (1 until n).map(i => (i.toLong, (i + 1).toLong))
    val extra = Seq.fill(60)((1L + rng.nextInt(n), 1L + rng.nextInt(n)))
      .filter(p => p._1 != p._2).map(p => (math.min(p._1, p._2), math.max(p._1, p._2)))
    val pairs = (chain ++ extra).distinct.toArray
    val gStar = Array.fill(pairs.length)(0.55 + rng.nextDouble() * 0.4)
    val out = SingleTableSolver.constrain(pairs, gStar,
      SingleTableSolver.Config(iters = 60, maxComponent = 16))
    assert(out.forall(p => p > 0 && p <= 1))
  }

  test("solveComponent reduces the Eq.7 loss versus the starting point") {
    val members = Array(1L, 2L, 3L, 4L)
    val cand = Seq(((1L, 2L), 0.9), ((1L, 3L), 0.9), ((2L, 3L), 0.1), ((3L, 4L), 0.6))
    val solved = SingleTableSolver.solveComponent(members, cand, SingleTableSolver.Config())
    assert(solved.size == cand.size)
    assert(solved.values.forall(v => v > 0 && v < 1))
  }

  // ---- duplicate-free detection --------------------------------------------

  test("detect: a perfect one-to-one match set is duplicate-free") {
    val matches = (1L to 50L).map(i => (i, 1000L + i))
    val r = DupFreeDetect.leftDupFree(matches, nRight = 500)
    assert(r.dupFree)
  }

  test("detect: heavy right-tuple repetition rejects duplicate-freeness") {
    // 60 matches but only 20 distinct right tuples — far beyond noise.
    val matches = (0 until 60).map(i => (i.toLong, 2000L + (i % 20).toLong))
    val r = DupFreeDetect.leftDupFree(matches, nRight = 1000)
    assert(!r.dupFree)
  }

  test("detect: a few noisy collisions do not reject duplicate-freeness") {
    // 50 matches, 48 distinct right tuples: plausible labeling noise.
    val matches = (1L to 48L).map(i => (i, 1000L + i)) ++ Seq((60L, 1001L), (61L, 1002L))
    val r = DupFreeDetect.leftDupFree(matches, nRight = 60)
    assert(r.dupFree)
  }

  test("detect: empty match set defaults to duplicate-free") {
    assert(DupFreeDetect.leftDupFree(Seq.empty, 100).dupFree)
  }

  test("detect: rightDupFree mirrors leftDupFree over swapped pairs") {
    val matches = (0 until 60).map(i => ((i % 20).toLong, 2000L + i.toLong))
    assert(!DupFreeDetect.rightDupFree(matches, nLeft = 1000).dupFree)
    assert(DupFreeDetect.leftDupFree(matches, nRight = 1000).dupFree)
  }

  test("detect: nRight = 0 does not throw and counts the right tuples seen in M") {
    val matches = (0 until 30).map(i => (i.toLong, 2000L + (i % 10).toLong))
    val r = DupFreeDetect.leftDupFree(matches, nRight = 0)
    assert(r == DupFreeDetect.leftDupFree(matches, nRight = 10))
  }
}
