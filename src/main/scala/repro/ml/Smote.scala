package repro.ml

import scala.collection.parallel.CollectionConverters._
import scala.util.Random

/** SMOTE (Chawla et al., 2002): synthetic minority oversampling.
  *
  * The paper applies SMOTE at every M-step of SIMPLE to balance the classes
  * before training the random forest. Synthetic minority points are linear
  * interpolations between a minority point and one of its k nearest minority
  * neighbours. The neighbour search runs in parallel over minority points
  * on the shared fork-join pool; the synthetic draws stay on one `Random`,
  * so the output is the same on any number of cores.
  */
object Smote {

  /** Returns (xs', ys') with the minority class oversampled to parity.
    * If either class is empty (degenerate pseudo-labels), returns the input.
    */
  def balance(xs: Array[Array[Double]], ys: Array[Int], k: Int = 5,
              seed: Long = 0): (Array[Array[Double]], Array[Int]) = {
    val posIdx = ys.indices.filter(ys(_) == 1).toArray
    val negIdx = ys.indices.filter(ys(_) == 0).toArray
    if (posIdx.isEmpty || negIdx.isEmpty || posIdx.length == negIdx.length) return (xs, ys)
    require(k >= 1, s"SMOTE needs k >= 1 neighbours, got $k")

    val (minIdx, minLabel) =
      if (posIdx.length < negIdx.length) (posIdx, 1) else (negIdx, 0)
    val need = math.abs(posIdx.length - negIdx.length)
    val rng  = new Random(seed)
    val minX = minIdx.map(xs)

    // k nearest minority neighbours per minority point, nearest first;
    // equal distances go to the lower index (a stable sort by distance).
    val kk = math.min(k, minX.length - 1)
    val neigh: Array[Array[Int]] =
      if (minX.length == 1) Array(Array(0))
      else minX.indices.par.map(nearest(minX, _, kk)).toArray

    val synth = Array.tabulate(need) { _ =>
      val i   = rng.nextInt(minX.length)
      val j   = neigh(i)(rng.nextInt(neigh(i).length))
      val gap = rng.nextDouble()
      val a = minX(i); val b = minX(j)
      Array.tabulate(a.length)(d => a(d) + gap * (b(d) - a(d)))
    }
    (xs ++ synth, ys ++ Array.fill(need)(minLabel))
  }

  /** Indices of the `kk` points of `pts` (other than `i`) nearest to
    * `pts(i)` by squared Euclidean distance, nearest first, ties to the
    * lower index.
    */
  private def nearest(pts: Array[Array[Double]], i: Int, kk: Int): Array[Int] = {
    val a     = pts(i)
    val bestD = new Array[Double](kk)
    val bestJ = new Array[Int](kk)
    var size  = 0
    var j = 0
    while (j < pts.length) {
      if (j != i) {
        val b = pts(j)
        val full  = size == kk
        val bound = if (full) bestD(kk - 1) else Double.PositiveInfinity
        // The partial sum only grows, so stop once it exceeds the k-th best.
        var s = 0.0; var d = 0
        while (d < a.length && s <= bound) { val t = a(d) - b(d); s += t * t; d += 1 }
        if (!full || s < bound) {
          var pos = if (full) kk - 1 else { size += 1; size - 1 }
          while (pos > 0 && bestD(pos - 1) > s) {
            bestD(pos) = bestD(pos - 1); bestJ(pos) = bestJ(pos - 1); pos -= 1
          }
          bestD(pos) = s; bestJ(pos) = j
        }
      }
      j += 1
    }
    bestJ
  }
}
