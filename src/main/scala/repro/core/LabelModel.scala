package repro.core

/** A labeling model ("truth inference method"): consumes the labeling
  * matrix X (n pairs x m LF votes in {-1, 0, +1}) and outputs soft labels
  * γ_i = P(y_i = +1) per row.
  *
  * Paper §3.1: every labeling model is a function ŷ = G(X, Θ), applied
  * row-wise. All implementations here operate on the matrix collected to the
  * driver (a small sufficient statistic: 4 to 83 columns on the EM and
  * WRENCH benchmarks, with far fewer distinct rows than rows), while
  * blocking, LF application and featurization run in Spark (see
  * `exp.Runner.prepare`).
  */
trait LabelModel {
  def name: String
  /** Soft labels for every row of `votes`; deterministic in `seed`. */
  def fitPredict(votes: Array[Array[Int]], seed: Long = 0L): Array[Double]
}

object LabelModel {
  /** Binarize soft labels at 0.5 (paper: ŷ_i = 1 iff γ_i >= 0.5). */
  def harden(gamma: Array[Double]): Array[Int] = gamma.map(g => if (g >= 0.5) 1 else 0)
}

/** Precision / recall / F1 for EM predictions. */
object Metrics {
  final case class Prf(precision: Double, recall: Double, f1: Double)

  /** F1 of `predicted` matches against `truth` matches. Pairs are unordered
    * for single-table datasets — callers normalize ids beforehand.
    */
  def prf(predicted: Set[(Long, Long)], truth: Set[(Long, Long)]): Prf = {
    val tp = predicted.count(truth.contains).toDouble
    val p  = if (predicted.isEmpty) 0.0 else tp / predicted.size
    val r  = if (truth.isEmpty) 0.0 else tp / truth.size
    val f  = if (p + r == 0) 0.0 else 2 * p * r / (p + r)
    Prf(p, r, f)
  }

  def f1(predicted: Set[(Long, Long)], truth: Set[(Long, Long)]): Double = prf(predicted, truth).f1

  /** Binary-classification metrics from parallel label arrays (WRENCH). */
  def binary(pred: Array[Int], truth: Array[Int]): (Double, Double) = {
    require(pred.length == truth.length)
    val tp = pred.indices.count(i => pred(i) == 1 && truth(i) == 1).toDouble
    val fp = pred.indices.count(i => pred(i) == 1 && truth(i) == 0).toDouble
    val fn = pred.indices.count(i => pred(i) == 0 && truth(i) == 1).toDouble
    val acc = pred.indices.count(i => pred(i) == truth(i)).toDouble / pred.length
    val p = if (tp + fp == 0) 0.0 else tp / (tp + fp)
    val r = if (tp + fn == 0) 0.0 else tp / (tp + fn)
    val f1 = if (p + r == 0) 0.0 else 2 * p * r / (p + r)
    (f1, acc)
  }
}
