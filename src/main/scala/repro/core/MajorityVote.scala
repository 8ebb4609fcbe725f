package repro.core

/** Majority vote: the most common non-abstain label per pair.
  *
  * Ties (including all-abstain rows) are resolved to the non-match side —
  * the majority class in EM candidate sets — with a soft label just below
  * 0.5 so downstream consumers can distinguish "tie" from "confident
  * non-match".
  */
object MajorityVote extends LabelModel {
  val name = "MV"

  def fitPredict(votes: Array[Array[Int]], seed: Long = 0L): Array[Double] =
    votes.map(row => ofSum(row.sum))

  /** Majority vote of each distinct pattern. */
  def ofPatterns(pats: VotePatterns): Array[Double] = {
    val out = new Array[Double](pats.size)
    var p = 0
    while (p < pats.size) {
      var s = 0
      var j = 0
      while (j < pats.m) { s += pats.votes(p * pats.m + j); j += 1 }
      out(p) = ofSum(s)
      p += 1
    }
    out
  }

  /** Class prior (fraction of predicted matches) — used by models that need
    * a class-balance estimate (Snorkel-style, FlyingSquid), per the paper's
    * setup ("we obtain the class weights by counting ... from Majority
    * Vote").
    */
  def classPrior(votes: Array[Array[Int]]): Double = classPrior(VotePatterns(votes))

  def classPrior(pats: VotePatterns): Double = {
    val mv = ofPatterns(pats)
    var matches = 0
    var p = 0
    while (p < mv.length) { if (mv(p) >= 0.5) matches += pats.count(p); p += 1 }
    math.min(0.95, math.max(0.01, matches.toDouble / math.max(1, pats.rows)))
  }

  private def ofSum(s: Int): Double = if (s > 0) 1.0 else if (s < 0) 0.0 else 0.45
}
