package repro.ml

import scala.util.Random

/** k-fold cross validation for the random-forest capacity knobs.
  *
  * Paper §3.2: "we select both parameters d_max and ccp_alpha using cross
  * validation ... with the current estimated labels at each M-step" — no
  * ground truth is involved; the fold labels are the pseudo-labels.
  */
object CrossVal {

  /** Grid-search (maxDepth, ccpAlpha) by k-fold accuracy on (xs, ys). */
  def selectRfParams(xs: Array[Array[Double]], ys: Array[Int],
                     depths: Seq[Int], alphas: Seq[Double],
                     folds: Int, numTrees: Int, seed: Long): RandomForest.Params = {
    val n = xs.length
    if (n < folds * 2) return RandomForest.Params(numTrees = numTrees)
    val rng  = new Random(seed)
    val perm = rng.shuffle((0 until n).toVector)
    val foldOf = Array.ofDim[Int](n)
    perm.zipWithIndex.foreach { case (i, pos) => foldOf(i) = pos % folds }

    // Each two-class fold's test rows and training matrices, built once for
    // the whole grid.
    val foldData = (0 until folds).map { f =>
      val (testIdx, trainIdx) = Array.range(0, n).partition(foldOf(_) == f)
      (f, testIdx, trainIdx.map(xs), trainIdx.map(ys))
    }.filter(_._4.distinct.length == 2)

    var best: RandomForest.Params = RandomForest.Params(numTrees = numTrees)
    var bestScore = -1.0
    for (d <- depths; a <- alphas) {
      var correct = 0L; var total = 0L
      for ((f, testIdx, trX, trY) <- foldData) {
        val m = RandomForest.fit(trX, trY,
          RandomForest.Params(numTrees = numTrees, maxDepth = d, ccpAlpha = a),
          seed = seed + f)
        testIdx.foreach { i => if (m.predict(xs(i)) == ys(i)) correct += 1; total += 1 }
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
