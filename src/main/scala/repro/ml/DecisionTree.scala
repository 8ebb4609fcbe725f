package repro.ml

import scala.util.Random

/** A binary-classification CART decision tree (Gini impurity).
  *
  * Capacity is controlled by two knobs, mirroring the paper's use of
  * scikit-learn's `max_depth` and `ccp_alpha`:
  *   - `maxDepth`: hard depth limit;
  *   - `ccpAlpha`: a weighted-impurity-decrease threshold — a split is only
  *     kept if it reduces (n_node/n_total)-weighted Gini impurity by at least
  *     `ccpAlpha`. This plays the same capacity-control role as
  *     cost-complexity pruning and, like in the paper, is selected by cross
  *     validation on the current pseudo-labels (see [[CrossVal]]).
  *
  * Feature subsampling per split (`featuresPerSplit`) supports the random
  * forest ensemble in [[RandomForest]].
  */
object DecisionTree {

  /** Tree node; leaves carry P(class = 1). */
  sealed trait Node
  final case class Leaf(prob: Double) extends Node
  final case class Split(feature: Int, threshold: Double, left: Node, right: Node) extends Node

  final case class Tree(root: Node) {
    def predictProba(x: Array[Double]): Double = {
      var n = root
      while (true) {
        n match {
          case Leaf(p) => return p
          case Split(f, t, l, r) => n = if (x(f) <= t) l else r
        }
      }
      0.5 // unreachable
    }
  }

  private def gini(pos: Double, total: Double): Double =
    if (total <= 0) 0.0
    else { val p = pos / total; 2.0 * p * (1.0 - p) }

  /** At most this many candidate thresholds per feature and node. */
  private val MaxThresholds = 15

  /** Train a tree on rows `idx` of (xs, ys). ys in {0, 1}.
    *
    * Split search per node and feature: sort the node's values once, keep
    * the distinct ones, take up to 15 candidate thresholds from them
    * (midpoints when there are at most 16 distinct values, evenly spaced
    * values otherwise), count rows into the threshold buckets in one pass
    * and sweep the prefix sums. The first strictly best gain wins, in
    * shuffled-feature then ascending-threshold order. Rows of a node are a
    * range of one index array, partitioned in place at each split; the
    * result does not depend on row order.
    */
  def fit(xs: Array[Array[Double]], ys: Array[Int], idx: Array[Int],
          maxDepth: Int, ccpAlpha: Double, featuresPerSplit: Int,
          minLeaf: Int, rng: Random): Tree = {
    val nTotal = idx.length.toDouble
    val nFeat  = if (xs.isEmpty) 0 else xs(0).length
    val nTry   = math.min(nFeat, math.max(1, featuresPerSplit))
    val rows   = idx.clone()
    val vals   = new Array[Double](rows.length)
    val feats  = new Array[Int](nFeat)
    val thr    = new Array[Double](MaxThresholds)
    val cnt    = new Array[Int](MaxThresholds + 1)
    val cntPos = new Array[Int](MaxThresholds + 1)

    // The same draws, in the same order, as rng.shuffle((0 until nFeat).toList).
    def shuffleFeatures(): Unit = {
      var i = 0
      while (i < nFeat) { feats(i) = i; i += 1 }
      var m = nFeat
      while (m >= 2) {
        val k = rng.nextInt(m)
        val t = feats(m - 1); feats(m - 1) = feats(k); feats(k) = t
        m -= 1
      }
    }

    // Fills thr with the candidate thresholds of feature f on rows [lo, hi);
    // returns how many there are.
    def thresholds(f: Int, lo: Int, hi: Int): Int = {
      val n = hi - lo
      var i = 0
      while (i < n) { vals(i) = xs(rows(lo + i))(f); i += 1 }
      java.util.Arrays.sort(vals, 0, n)
      var d = 1
      i = 1
      while (i < n) {
        if (vals(i) != vals(d - 1)) { vals(d) = vals(i); d += 1 }
        i += 1
      }
      if (d <= 1) 0
      else if (d <= MaxThresholds + 1) {
        i = 0
        while (i < d - 1) { thr(i) = (vals(i) + vals(i + 1)) / 2.0; i += 1 }
        d - 1
      } else {
        i = 1
        while (i <= MaxThresholds) { thr(i - 1) = vals((d * i) / (MaxThresholds + 1)); i += 1 }
        MaxThresholds
      }
    }

    // Index of the first threshold t with x <= t (m when there is none).
    def bucket(x: Double, m: Int): Int = {
      var lo = 0; var hi = m
      while (lo < hi) {
        val mid = (lo + hi) >>> 1
        if (x <= thr(mid)) hi = mid else lo = mid + 1
      }
      lo
    }

    def build(lo: Int, hi: Int, depth: Int): Node = {
      val n = hi - lo
      var posCount = 0
      var i = lo
      while (i < hi) { if (ys(rows(i)) == 1) posCount += 1; i += 1 }
      val pos = posCount.toDouble
      val p   = if (n == 0) 0.5 else pos / n
      if (depth >= maxDepth || n < 2 * minLeaf || pos == 0 || pos == n) return Leaf(p)

      val impurity = gini(pos, n)
      shuffleFeatures()
      var bestGain = 0.0
      var bestFeat = -1
      var bestThr  = 0.0
      var fi = 0
      while (fi < nTry) {
        val f = feats(fi)
        val m = thresholds(f, lo, hi)
        if (m > 0) {
          java.util.Arrays.fill(cnt, 0, m + 1, 0)
          java.util.Arrays.fill(cntPos, 0, m + 1, 0)
          i = lo
          while (i < hi) {
            val r = rows(i)
            val b = bucket(xs(r)(f), m)
            cnt(b) += 1
            if (ys(r) == 1) cntPos(b) += 1
            i += 1
          }
          var nl = 0; var posL = 0
          var t = 0
          while (t < m) {
            nl += cnt(t); posL += cntPos(t)
            val nr = n - nl
            if (nl >= minLeaf && nr >= minLeaf) {
              val posR = pos - posL
              val childImp = (nl * gini(posL, nl) + nr * gini(posR, nr)) / n
              // Weighted impurity decrease relative to the full training set —
              // the quantity thresholded by ccpAlpha.
              val gain = (n / nTotal) * (impurity - childImp)
              if (gain > bestGain) { bestGain = gain; bestFeat = f; bestThr = thr(t) }
            }
            t += 1
          }
        }
        fi += 1
      }
      if (bestFeat < 0 || bestGain < ccpAlpha) Leaf(p)
      else {
        // Partition rows [lo, hi) into x <= bestThr, then the rest.
        var l = lo; var r = hi - 1
        while (l <= r) {
          if (xs(rows(l))(bestFeat) <= bestThr) l += 1
          else { val t = rows(l); rows(l) = rows(r); rows(r) = t; r -= 1 }
        }
        Split(bestFeat, bestThr, build(lo, l, depth + 1), build(l, hi, depth + 1))
      }
    }

    Tree(build(0, rows.length, 0))
  }
}
