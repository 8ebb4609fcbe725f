package repro.core

/** SIMPLE-EM (paper §4): SIMPLE with the transitivity constraint folded into
  * every E-step via the free-energy formulation.
  *
  * Two-table flow: run plain SIMPLE once, use its predicted matches to run
  * the duplicate-free hypothesis test on each table (appendix 8.1), pick the
  * matching exact solution (argmax per tuple when one table is
  * duplicate-free; assignment when both are; no constraint when neither is),
  * then rerun the EM loop with that constraint in the E-step.
  *
  * Single-table flow: the constraint transform is the numerical minimizer of
  * Eq. 7 over connected components ([[SingleTableSolver]]).
  */
object SimpleEm {

  sealed trait Strategy { def describe: String }
  case object NoTrans       extends Strategy { def describe = "none"            }
  case object LeftDupFree   extends Strategy { def describe = "left-dup-free"   }
  case object RightDupFree  extends Strategy { def describe = "right-dup-free"  }
  case object BothDupFree   extends Strategy { def describe = "both-dup-free"   }
  case object SingleTable   extends Strategy { def describe = "single-table"    }

  /** `base` is the plain SIMPLE fit a two-table run makes before choosing its
    * strategy (`None` for single-table runs, which make none).
    */
  final case class Output(gamma: Array[Double], strategy: Strategy,
                          leftDupFree: Boolean, rightDupFree: Boolean,
                          base: Option[Array[Double]])

  /** Constraint transform for a chosen two-table strategy. */
  def transform(strategy: Strategy, pairs: Array[(Long, Long)]): Array[Double] => Array[Double] =
    strategy match {
      case NoTrans      => identity
      case LeftDupFree  => Transitivity.oneTableDupFree(pairs, _, groupByRight = true)
      case RightDupFree => Transitivity.oneTableDupFree(pairs, _, groupByRight = false)
      case BothDupFree  => Transitivity.bothDupFree(pairs, _)
      case SingleTable  => SingleTableSolver.constrain(pairs, _)
    }

  /** Full SIMPLE-EM on a two-table dataset. `nLeft`/`nRight` are table sizes
    * for the duplicate-free hypothesis tests. A strategy can be forced (e.g.
    * when duplicate-freeness is known a priori) via `forced`.
    */
  def runTwoTable(votes: Array[Array[Int]], pairs: Array[(Long, Long)],
                  nLeft: Long, nRight: Long, seed: Long = 0,
                  forced: Option[Strategy] = None): Output = {
    val base = Simple.fitPredict(votes, seed)
    val matches = pairs.indices.filter(base(_) >= 0.5).map(pairs)
    val ldf = DupFreeDetect.leftDupFree(matches, nRight, seed = seed + 1)
    val rdf = DupFreeDetect.rightDupFree(matches, nLeft, seed = seed + 2)
    val strategy = forced.getOrElse {
      (ldf.dupFree, rdf.dupFree) match {
        case (true, true)   => BothDupFree
        case (true, false)  => LeftDupFree
        case (false, true)  => RightDupFree
        case (false, false) => NoTrans
      }
    }
    val gamma = strategy match {
      case NoTrans => base
      case s =>
        val simple = new Simple(constrain = transform(s, pairs), name = "SIMPLE-EM")
        simple.fitPredict(votes, seed)
    }
    Output(gamma, strategy, ldf.dupFree, rdf.dupFree, Some(base))
  }

  /** Full SIMPLE-EM on a single-table dataset. */
  def runSingleTable(votes: Array[Array[Int]], pairs: Array[(Long, Long)],
                     seed: Long = 0): Output = {
    val simple = new Simple(constrain = transform(SingleTable, pairs), name = "SIMPLE-EM")
    Output(simple.fitPredict(votes, seed), SingleTable, leftDupFree = false, rightDupFree = false,
      base = None)
  }
}
