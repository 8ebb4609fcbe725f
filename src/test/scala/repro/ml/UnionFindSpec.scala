package repro.ml

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.PropSupport
import repro.core.Transitivity

/** The union-find and the component split built on it
  * (`Transitivity.components`: the γ > 0.5 graph's components, each with the
  * pairs that have both ends inside it).
  */
class UnionFindSpec extends AnyFunSuite with PropSupport {

  test("singletons are their own components") {
    val uf = new UnionFind(5)
    assert((0 until 5).map(uf.find) == (0 until 5))
    // Tuples with no predicted match (γ ≤ 0.5) belong to no component.
    assert(Transitivity.components(Array((0L, 1L), (2L, 3L)), Array(0.5, 0.2)).isEmpty)
  }

  test("union merges two components") {
    val uf = new UnionFind(4)
    assert(uf.union(0, 1))
    assert(uf.find(0) == uf.find(1))
    assert(uf.find(2) != uf.find(0))
  }

  test("union returns false when already joined") {
    val uf = new UnionFind(3)
    assert(uf.union(0, 1))
    assert(!uf.union(1, 0))
  }

  test("transitive chains collapse to one component") {
    val uf = new UnionFind(6)
    uf.union(0, 1); uf.union(1, 2); uf.union(3, 4); uf.union(2, 3)
    assert(Set(0, 1, 2, 3, 4).map(uf.find).size == 1)
    assert(uf.find(5) != uf.find(0))
  }

  test("components groups all members") {
    val pairs = Array((0L, 2L), (1L, 3L), (2L, 4L), (3L, 1L), (0L, 1L))
    val comps = Transitivity.components(pairs, Array(0.9, 0.8, 0.3, 0.4, 0.5))
    // Tuples in first-occurrence order, pair indices in pair order; the
    // unmatched tuple 4 and the pair (0, 1) spanning two components are in none.
    assert(comps.map { case (t, p) => (t.toSeq, p.toSeq) } ==
      Seq((Seq(0L, 2L), Seq(0)), (Seq(1L, 3L), Seq(1, 3))))
  }

  test("components sizes sum to n") {
    val pairs = Array((0L, 1L), (2L, 3L), (3L, 4L), (5L, 6L))
    val comps = Transitivity.components(pairs, Array(0.9, 0.9, 0.7, 0.1))
    assert(comps.map(_._1.length).sum == 5) // the matched tuples 0–4
  }

  test("property: component count = n - successful unions") {
    val gen = Gen.zip(Gen.choose(2, 40),
      Gen.listOf(Gen.zip(Gen.choose(0, 200), Gen.choose(0, 200), Gen.choose(0.0, 1.0))))
    checkProp(Prop.forAll(gen) { case (n, edges) =>
      val pairs = edges.map { case (a, b, _) => ((a % n).toLong, (b % n).toLong) }.toArray
      val gamma = edges.map(_._3).toArray
      val comps = Transitivity.components(pairs, gamma)
      val matched = pairs.indices.filter(gamma(_) > 0.5).flatMap(i => Seq(pairs(i)._1, pairs(i)._2)).toSet
      val uf = new UnionFind(n)
      val merges = pairs.indices.count(i => gamma(i) > 0.5 && uf.union(pairs(i)._1.toInt, pairs(i)._2.toInt))
      val compOf = comps.zipWithIndex.flatMap { case ((t, _), c) => t.map(_ -> c) }.toMap
      val inside = pairs.indices.filter { i =>
        compOf.get(pairs(i)._1).exists(c => compOf.get(pairs(i)._2).contains(c))
      }
      // The components partition the matched tuples ...
      comps.map(_._1.length).sum == matched.size && compOf.keySet == matched &&
        // ... every returned pair has both ends in its component, and a pair
        // spanning two components (or touching an unmatched tuple) is in none ...
        comps.zipWithIndex.forall { case ((_, p), c) =>
          p.forall(i => compOf(pairs(i)._1) == c && compOf(pairs(i)._2) == c)
        } &&
        comps.flatMap(_._2).sorted == inside &&
        // ... and each successful union joins two matched tuples' components.
        comps.size == matched.size - merges
    })
  }

  test("property: find idempotent, unioned pairs share a root") {
    val gen = Gen.listOfN(20, Gen.zip(Gen.choose(0, 9), Gen.choose(0, 9)))
    checkProp(Prop.forAll(gen) { pairs =>
      val uf = new UnionFind(10)
      pairs.foreach { case (a, b) => uf.union(a, b) }
      (0 until 10).forall(i => uf.find(i) == uf.find(uf.find(i))) &&
        pairs.forall { case (a, b) => uf.find(a) == uf.find(b) }
    })
  }
}
