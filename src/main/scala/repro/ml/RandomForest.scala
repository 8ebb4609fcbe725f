package repro.ml

import scala.collection.parallel.CollectionConverters._
import scala.util.Random

/** Random forest classifier — the generic classifier g of the SIMPLE
  * labeling model (paper §3.2).
  *
  * Bootstrap sampling per tree + sqrt(m) feature subsampling per split;
  * predicted probability is the average of per-tree leaf class fractions.
  * Trees are fitted in parallel on the shared fork-join pool; each tree
  * draws only from its own `Random`, seeded up front in tree order, so the
  * forest is the same on any number of cores.
  */
final case class RandomForestModel(trees: Vector[DecisionTree.Tree]) {
  def predictProba(x: Array[Double]): Double = {
    var s = 0.0
    var i = 0
    while (i < trees.length) { s += trees(i).predictProba(x); i += 1 }
    s / trees.length
  }
  def predict(x: Array[Double]): Int = if (predictProba(x) >= 0.5) 1 else 0
}

object RandomForest {
  final case class Params(numTrees: Int = 25, maxDepth: Int = 4,
                          ccpAlpha: Double = 0.0, minLeaf: Int = 1)

  def fit(xs: Array[Array[Double]], ys: Array[Int], params: Params, seed: Long): RandomForestModel = {
    require(xs.length == ys.length && xs.nonEmpty, "empty or mismatched training data")
    val rng   = new Random(seed)
    val n     = xs.length
    val nFeat = xs(0).length
    val fps   = math.max(1, math.round(math.sqrt(nFeat.toDouble)).toInt)
    val seeds = Array.fill(params.numTrees)(rng.nextLong())
    val trees = seeds.toVector.par.map { s =>
      val treeRng = new Random(s)
      val boot    = Array.fill(n)(treeRng.nextInt(n))
      DecisionTree.fit(xs, ys, boot, params.maxDepth, params.ccpAlpha, fps, params.minLeaf, treeRng)
    }
    RandomForestModel(trees.seq)
  }
}
