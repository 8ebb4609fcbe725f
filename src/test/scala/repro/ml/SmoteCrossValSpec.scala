package repro.ml

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.PropSupport
import scala.util.Random

class SmoteCrossValSpec extends AnyFunSuite with PropSupport {

  private def imbalanced(nPos: Int, nNeg: Int, seed: Long): (Array[Array[Double]], Array[Int]) = {
    val rng = new Random(seed)
    val pos = Array.fill(nPos)(Array(1.0 + rng.nextGaussian() * 0.1, 1.0))
    val neg = Array.fill(nNeg)(Array(-1.0 + rng.nextGaussian() * 0.1, 0.0))
    (pos ++ neg, Array.fill(nPos)(1) ++ Array.fill(nNeg)(0))
  }

  test("SMOTE balances a minority positive class") {
    val (xs, ys) = imbalanced(10, 90, 0)
    val (bx, by) = Smote.balance(xs, ys, seed = 1)
    assert(by.count(_ == 1) == by.count(_ == 0))
    assert(bx.length == by.length)
  }

  test("SMOTE balances a minority negative class too") {
    val (xs, ys) = imbalanced(80, 20, 1)
    val (_, by) = Smote.balance(xs, ys, seed = 1)
    assert(by.count(_ == 1) == by.count(_ == 0))
  }

  test("SMOTE leaves balanced data untouched") {
    val (xs, ys) = imbalanced(50, 50, 2)
    val (bx, by) = Smote.balance(xs, ys, seed = 1)
    assert(bx.length == xs.length && by.sameElements(ys))
  }

  test("SMOTE leaves single-class data untouched") {
    val xs = Array.fill(10)(Array(1.0))
    val ys = Array.fill(10)(1)
    val (bx, by) = Smote.balance(xs, ys)
    assert(bx.length == 10 && by.forall(_ == 1))
  }

  test("synthetic points interpolate the minority manifold") {
    val (xs, ys) = imbalanced(15, 100, 3)
    val (bx, by) = Smote.balance(xs, ys, seed = 4)
    // All synthetic positives must stay in the convex range of real positives.
    val realPos = xs.zip(ys).filter(_._2 == 1).map(_._1)
    val lo = realPos.map(_(0)).min; val hi = realPos.map(_(0)).max
    bx.drop(xs.length).zip(by.drop(ys.length)).foreach { case (x, y) =>
      assert(y == 1)
      assert(x(0) >= lo - 1e-9 && x(0) <= hi + 1e-9)
    }
  }

  test("SMOTE works with a single minority point") {
    val xs = Array(Array(5.0)) ++ Array.fill(9)(Array(0.0))
    val ys = Array(1) ++ Array.fill(9)(0)
    val (bx, by) = Smote.balance(xs, ys, seed = 0)
    assert(by.count(_ == 1) == by.count(_ == 0))
    // Interpolating the lone point with itself reproduces it.
    assert(bx.drop(10).forall(_(0) == 5.0))
  }

  test("property: SMOTE output is deterministic in seed") {
    checkProp(Prop.forAll(Gen.choose(1L, 1000L)) { seed =>
      val (xs, ys) = imbalanced(8, 40, seed)
      val a = Smote.balance(xs, ys, seed = seed)
      val b = Smote.balance(xs, ys, seed = seed)
      a._1.zip(b._1).forall { case (u, v) => u.sameElements(v) }
    }, minTests = 20)
  }

  test("cross validation picks a param set that separates easy data") {
    val (xs, ys) = imbalanced(60, 60, 5)
    val p = CrossVal.selectRfParams(xs, ys, depths = Seq(2, 4, 6), alphas = Seq(0.0, 0.001, 0.01),
                                    folds = 3, numTrees = 15, seed = 0)
    val m = RandomForest.fit(xs, ys, p, 0)
    val acc = xs.indices.count(i => m.predict(xs(i)) == ys(i)).toDouble / xs.length
    assert(acc > 0.95)
  }

  test("cross validation falls back to defaults on tiny data") {
    val p = CrossVal.selectRfParams(Array(Array(1.0), Array(0.0)), Array(1, 0), depths = Seq(2, 4, 6),
                                    alphas = Seq(0.0), folds = 3, numTrees = 15, seed = 0)
    assert(p == RandomForest.Params(numTrees = 15))
  }

  test("cross validation prefers deeper trees for XOR-like data") {
    val rng = new Random(7)
    val xs = Array.fill(400)(Array(rng.nextInt(2).toDouble, rng.nextInt(2).toDouble))
    val ys = xs.map(x => if (x(0) != x(1)) 1 else 0)
    val p = CrossVal.selectRfParams(xs, ys, depths = Seq(1, 4), alphas = Seq(0.0),
                                    folds = 3, numTrees = 15, seed = 1)
    assert(p.maxDepth == 4)
  }
}
