package repro.ml

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.PropSupport
import scala.util.Random

/** The straightforward boxed implementations of the M-step kernels (split
  * search, serial forest, sort-based SMOTE neighbours, per-grid-point CV
  * folds). The primitive and parallel versions in `repro.ml` must reproduce
  * them bit for bit.
  */
object ReferenceKernels {
  import DecisionTree._

  private def gini(pos: Double, total: Double): Double =
    if (total <= 0) 0.0
    else { val p = pos / total; 2.0 * p * (1.0 - p) }

  def fitTree(xs: Array[Array[Double]], ys: Array[Int], idx: Array[Int],
              maxDepth: Int, ccpAlpha: Double, featuresPerSplit: Int,
              minLeaf: Int, rng: Random): Tree = {
    val nTotal = idx.length.toDouble
    val nFeat  = if (xs.isEmpty) 0 else xs(0).length

    def build(rows: Array[Int], depth: Int): Node = {
      val n   = rows.length
      val pos = rows.count(ys(_) == 1).toDouble
      val p   = if (n == 0) 0.5 else pos / n
      if (depth >= maxDepth || n < 2 * minLeaf || pos == 0 || pos == n) return Leaf(p)

      val impurity = gini(pos, n)
      val feats = rng.shuffle((0 until nFeat).toList).take(math.max(1, featuresPerSplit))
      var bestGain = 0.0
      var bestFeat = -1
      var bestThr  = 0.0
      for (f <- feats) {
        val vals = rows.map(r => xs(r)(f)).distinct.sorted
        if (vals.length > 1) {
          val thresholds =
            if (vals.length <= 16) vals.init.indices.map(i => (vals(i) + vals(i + 1)) / 2.0)
            else (1 until 16).map(i => vals((vals.length * i) / 16))
          for (thr <- thresholds) {
            var nl = 0; var posL = 0
            var i = 0
            while (i < n) {
              val r = rows(i)
              if (xs(r)(f) <= thr) { nl += 1; if (ys(r) == 1) posL += 1 }
              i += 1
            }
            val nr = n - nl
            if (nl >= minLeaf && nr >= minLeaf) {
              val posR = pos - posL
              val childImp = (nl * gini(posL, nl) + nr * gini(posR, nr)) / n
              val gain = (n / nTotal) * (impurity - childImp)
              if (gain > bestGain) { bestGain = gain; bestFeat = f; bestThr = thr }
            }
          }
        }
      }
      if (bestFeat < 0 || bestGain < ccpAlpha) Leaf(p)
      else {
        val (lRows, rRows) = rows.partition(r => xs(r)(bestFeat) <= bestThr)
        Split(bestFeat, bestThr, build(lRows, depth + 1), build(rRows, depth + 1))
      }
    }

    Tree(build(idx, 0))
  }

  /** Trees fitted one after another, each from `new Random(rng.nextLong())`. */
  def fitForest(xs: Array[Array[Double]], ys: Array[Int], params: RandomForest.Params,
                seed: Long): RandomForestModel = {
    val rng   = new Random(seed)
    val n     = xs.length
    val fps   = math.max(1, math.round(math.sqrt(xs(0).length.toDouble)).toInt)
    RandomForestModel(Vector.tabulate(params.numTrees) { _ =>
      val treeRng = new Random(rng.nextLong())
      val boot    = Array.fill(n)(treeRng.nextInt(n))
      fitTree(xs, ys, boot, params.maxDepth, params.ccpAlpha, fps, params.minLeaf, treeRng)
    })
  }

  def smote(xs: Array[Array[Double]], ys: Array[Int], k: Int,
            seed: Long): (Array[Array[Double]], Array[Int]) = {
    val posIdx = ys.indices.filter(ys(_) == 1).toArray
    val negIdx = ys.indices.filter(ys(_) == 0).toArray
    if (posIdx.isEmpty || negIdx.isEmpty || posIdx.length == negIdx.length) return (xs, ys)
    val (minIdx, minLabel) =
      if (posIdx.length < negIdx.length) (posIdx, 1) else (negIdx, 0)
    val need = math.abs(posIdx.length - negIdx.length)
    val rng  = new Random(seed)
    val minX = minIdx.map(xs)
    def dist2(a: Array[Double], b: Array[Double]): Double = {
      var s = 0.0; var i = 0
      while (i < a.length) { val d = a(i) - b(i); s += d * d; i += 1 }
      s
    }
    val neigh: Array[Array[Int]] =
      if (minX.length == 1) Array(Array(0))
      else minX.indices.map { i =>
        minX.indices.filter(_ != i)
          .sortBy(j => dist2(minX(i), minX(j)))
          .take(math.min(k, minX.length - 1)).toArray
      }.toArray
    val synth = Array.tabulate(need) { _ =>
      val i   = rng.nextInt(minX.length)
      val j   = neigh(i)(rng.nextInt(neigh(i).length))
      val gap = rng.nextDouble()
      val a = minX(i); val b = minX(j)
      Array.tabulate(a.length)(d => a(d) + gap * (b(d) - a(d)))
    }
    (xs ++ synth, ys ++ Array.fill(need)(minLabel))
  }

  def selectRfParams(xs: Array[Array[Double]], ys: Array[Int], depths: Seq[Int],
                     alphas: Seq[Double], folds: Int, numTrees: Int,
                     seed: Long): RandomForest.Params = {
    val n = xs.length
    if (n < folds * 2) return RandomForest.Params(numTrees = numTrees)
    val rng  = new Random(seed)
    val perm = rng.shuffle((0 until n).toVector)
    val foldOf = Array.ofDim[Int](n)
    perm.zipWithIndex.foreach { case (i, pos) => foldOf(i) = pos % folds }
    var best: RandomForest.Params = RandomForest.Params(numTrees = numTrees)
    var bestScore = -1.0
    for (d <- depths; a <- alphas) {
      var correct = 0L; var total = 0L
      for (f <- 0 until folds) {
        val trainIdx = (0 until n).filter(foldOf(_) != f).toArray
        val testIdx  = (0 until n).filter(foldOf(_) == f).toArray
        val trX = trainIdx.map(xs); val trY = trainIdx.map(ys)
        if (trY.distinct.length == 2) {
          val m = fitForest(trX, trY,
            RandomForest.Params(numTrees = numTrees, maxDepth = d, ccpAlpha = a),
            seed = seed + f)
          testIdx.foreach { i => if (m.predict(xs(i)) == ys(i)) correct += 1; total += 1 }
        }
      }
      val score = if (total == 0) 0.0 else correct.toDouble / total
      if (score > bestScore) {
        bestScore = score
        best = RandomForest.Params(numTrees = numTrees, maxDepth = d, ccpAlpha = a)
      }
    }
    best
  }
}

class KernelOracleSpec extends AnyFunSuite with PropSupport {
  import DecisionTree._

  private def bits(d: Double): Long = java.lang.Double.doubleToRawLongBits(d)

  /** Structural equality with thresholds and leaf probabilities compared bitwise. */
  private def sameNode(a: Node, b: Node): Boolean = (a, b) match {
    case (Leaf(p), Leaf(q)) => bits(p) == bits(q)
    case (Split(f, t, l, r), Split(g, u, l2, r2)) =>
      f == g && bits(t) == bits(u) && sameNode(l, l2) && sameNode(r, r2)
    case _ => false
  }
  private def sameForest(a: RandomForestModel, b: RandomForestModel): Boolean =
    a.trees.length == b.trees.length && a.trees.zip(b.trees).forall { case (s, t) => sameNode(s.root, t.root) }
  private def sameRows(a: Array[Array[Double]], b: Array[Array[Double]]): Boolean =
    a.length == b.length && a.indices.forall(i => a(i).map(bits).sameElements(b(i).map(bits)))

  /** Vote-like rows in {-1, 0, 1}, drawn from a few patterns, so rows repeat
    * heavily; labels follow a noisy vote sum.
    */
  private def votes(rng: Random, n: Int, nFeat: Int, patterns: Int): (Array[Array[Double]], Array[Int]) = {
    val pats = Array.fill(patterns)(Array.fill(nFeat)((rng.nextInt(3) - 1).toDouble))
    val xs = Array.fill(n)(pats(rng.nextInt(patterns)))
    val ys = xs.map(x => if (x.sum + rng.nextGaussian() * 0.7 > 0) 1 else 0)
    (xs, ys)
  }

  /** SMOTE-like data: vote rows plus interpolations between them, so columns
    * carry more than 16 distinct values.
    */
  private def smoteLike(rng: Random, n: Int, nFeat: Int): (Array[Array[Double]], Array[Int]) = {
    val (vx, vy) = votes(rng, n, nFeat, 12)
    val extra = Array.fill(n / 2) {
      val a = vx(rng.nextInt(n)); val b = vx(rng.nextInt(n)); val gap = rng.nextDouble()
      Array.tabulate(nFeat)(d => a(d) + gap * (b(d) - a(d)))
    }
    (vx ++ extra, vy ++ extra.map(x => if (x.sum > 0) 1 else 0))
  }

  private val treeCase = for {
    seed      <- Gen.choose(0L, 1000000L)
    n         <- Gen.choose(20, 300)
    nFeat     <- Gen.choose(2, 12)
    patterns  <- Gen.choose(2, 30)
    continuous <- Gen.oneOf(false, true)
    fps       <- Gen.choose(1, nFeat - 1)
    minLeaf   <- Gen.oneOf(1, 3)
    maxDepth  <- Gen.choose(1, 9)
    ccpAlpha  <- Gen.oneOf(0.0, 0.001, 0.01)
  } yield (seed, n, nFeat, patterns, continuous, fps, minLeaf, maxDepth, ccpAlpha)

  test("property: DecisionTree.fit builds the same tree as the reference split search") {
    checkProp(Prop.forAllNoShrink(treeCase) { case (seed, n, nFeat, patterns, continuous, fps, minLeaf, maxDepth, ccpAlpha) =>
      val rng = new Random(seed)
      val (xs, ys) = if (continuous) smoteLike(rng, n, nFeat) else votes(rng, n, nFeat, patterns)
      val boot = Array.fill(xs.length)(rng.nextInt(xs.length))
      val treeSeed = rng.nextLong()
      val got  = DecisionTree.fit(xs, ys, boot, maxDepth, ccpAlpha, fps, minLeaf, new Random(treeSeed))
      val want = ReferenceKernels.fitTree(xs, ys, boot, maxDepth, ccpAlpha, fps, minLeaf, new Random(treeSeed))
      sameNode(got.root, want.root)
    }, minTests = 200)
  }

  test("the split search leaves its input index array untouched") {
    val (xs, ys) = votes(new Random(1), 200, 6, 20)
    val boot = Array.fill(200)(new Random(2).nextInt(200))
    val copy = boot.clone()
    DecisionTree.fit(xs, ys, boot, 9, 0.0, 2, 1, new Random(3))
    assert(boot.sameElements(copy))
  }

  test("property: RandomForest.fit equals a serial fit and repeats exactly") {
    checkProp(Prop.forAllNoShrink(Gen.choose(0L, 1000000L), Gen.oneOf(3, 10, 40), Gen.choose(1, 30)) {
      (seed, nFeat, numTrees) =>
        val (xs, ys) = smoteLike(new Random(seed), 150, nFeat)
        val params = RandomForest.Params(numTrees = numTrees, maxDepth = 6)
        val a = RandomForest.fit(xs, ys, params, seed)
        val b = RandomForest.fit(xs, ys, params, seed)
        sameForest(a, ReferenceKernels.fitForest(xs, ys, params, seed)) && sameForest(a, b)
    }, minTests = 30)
  }

  test("property: Smote.balance matches the stable-sort neighbour choice on duplicate-heavy minorities") {
    checkProp(Prop.forAllNoShrink(Gen.choose(0L, 1000000L), Gen.choose(2, 40), Gen.choose(1, 7)) {
      (seed, patterns, k) =>
        val rng = new Random(seed)
        val (xs, ys) = votes(rng, 400, 8, patterns)
        // Flip a few labels so the minority is a small, mostly duplicated set.
        val y2 = ys.map(y => if (rng.nextDouble() < 0.05) 1 - y else y)
        val (gx, gy) = Smote.balance(xs, y2, k, seed)
        val (wx, wy) = ReferenceKernels.smote(xs, y2, k, seed)
        sameRows(gx, wx) && gy.sameElements(wy)
    }, minTests = 60)
  }

  test("Smote.balance matches the reference on continuous rows with a single minority point and k above the minority size") {
    val rng = new Random(9)
    for ((nMin, k) <- Seq((1, 5), (2, 5), (4, 5), (30, 3))) {
      val xs = Array.fill(60)(Array.fill(3)(rng.nextGaussian()))
      val ys = Array.tabulate(60)(i => if (i < nMin) 1 else 0)
      val (gx, gy) = Smote.balance(xs, ys, k, 7)
      val (wx, wy) = ReferenceKernels.smote(xs, ys, k, 7)
      assert(sameRows(gx, wx) && gy.sameElements(wy), s"nMin=$nMin k=$k")
    }
  }

  test("property: CrossVal.selectRfParams matches the per-grid-point fold rebuild") {
    checkProp(Prop.forAllNoShrink(Gen.choose(0L, 1000000L), Gen.choose(10, 120)) { (seed, n) =>
      val (xs, ys) = votes(new Random(seed), n, 5, 15)
      val got  = CrossVal.selectRfParams(xs, ys, Seq(2, 4), Seq(0.0, 0.01), 3, 5, seed)
      val want = ReferenceKernels.selectRfParams(xs, ys, Seq(2, 4), Seq(0.0, 0.01), 3, 5, seed)
      got == want
    }, minTests = 20)
  }

  test("the full SMOTE -> CV -> forest M-step is bit-identical to the reference kernels") {
    for (nFeat <- Seq(3, 10, 40)) {
      val rng = new Random(nFeat)
      val (xs, ys) = votes(rng, 600, nFeat, 40)
      val y2 = ys.map(y => if (rng.nextDouble() < 0.1) 1 - y else y)
      val (bx, by) = Smote.balance(xs, y2, 5, 1)
      val p = CrossVal.selectRfParams(bx, by, Seq(2, 4, 6, 9), Seq(0.0, 0.001, 0.01), 3, 25, 1)
      val m = RandomForest.fit(bx, by, p, 1)
      val (wx, wy) = ReferenceKernels.smote(xs, y2, 5, 1)
      val wp = ReferenceKernels.selectRfParams(wx, wy, Seq(2, 4, 6, 9), Seq(0.0, 0.001, 0.01), 3, 25, 1)
      val wm = ReferenceKernels.fitForest(wx, wy, wp, 1)
      assert(p == wp)
      assert(xs.forall(x => bits(m.predictProba(x)) == bits(wm.predictProba(x))), s"nFeat=$nFeat")
    }
  }
}
