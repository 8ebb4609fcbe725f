package repro.baselines

/** Ditto comparator substitute (DESIGN.md substitution #6).
  *
  * Ditto fine-tunes a pretrained language model on a labeled split of the
  * candidate set. Offline we keep the experimental role — a supervised
  * text-signal-only classifier trained on a random 3:1:1 split with GT
  * labels, evaluated on the held-out test split — using the [[EndModel]]
  * forest over text-derived features only (no numeric/categorical attribute
  * access, mirroring Ditto's sequence-only view of a pair).
  */
object DittoSim {

  final case class Result(testF1: Double)

  /** Train on a random 3/5 of (features, truth), evaluate F1 on a 1/5 test
    * split (the middle 1/5 plays the validation role; unused by RF).
    */
  def run(textFeatures: Array[Array[Double]], truth: Array[Int], seed: Long = 0): Result =
    Result(EndModel.trainEval(textFeatures, truth, truth, EndModel.split(textFeatures.length, seed), seed))
}
