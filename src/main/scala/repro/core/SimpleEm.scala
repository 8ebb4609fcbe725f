package repro.core

/** SIMPLE-EM (paper §4): SIMPLE with the transitivity constraint folded into
  * every E-step via the free-energy formulation.
  *
  * One flow for both kinds of dataset: fit plain SIMPLE, pick the constraint,
  * then rerun the EM loop from majority vote with that constraint in the
  * E-step. On a two-table dataset the plain fit's predicted matches feed the
  * duplicate-free hypothesis test on each table (appendix 8.1), which picks
  * the matching exact solution (argmax per tuple when one table is
  * duplicate-free; assignment when both are; no constraint when neither is).
  * On a single-table dataset the constraint is always the numerical minimizer
  * of Eq. 7 over connected components ([[SingleTableSolver]]).
  */
object SimpleEm {

  sealed trait Strategy { def describe: String }
  case object NoTrans       extends Strategy { def describe = "none"            }
  case object LeftDupFree   extends Strategy { def describe = "left-dup-free"   }
  case object RightDupFree  extends Strategy { def describe = "right-dup-free"  }
  case object BothDupFree   extends Strategy { def describe = "both-dup-free"   }
  case object SingleTable   extends Strategy { def describe = "single-table"    }

  /** `gamma` and `converged` come from the constrained fit (`base` under `NoTrans`); `base` is
    * the plain SIMPLE fit every run makes first. `dupFreeTests` holds the (left, right)
    * duplicate-free tests that chose `strategy`; single-table runs make none.
    */
  final case class Output(gamma: Array[Double], converged: Boolean, strategy: Strategy,
                          dupFreeTests: Option[(DupFreeDetect.Result, DupFreeDetect.Result)],
                          base: Array[Double])

  /** Constraint transform for a chosen strategy. */
  def transform(strategy: Strategy, pairs: Array[(Long, Long)]): Array[Double] => Array[Double] =
    strategy match {
      case NoTrans      => identity
      case LeftDupFree  => Transitivity.oneTableDupFree(pairs, _, groupByRight = true)
      case RightDupFree => Transitivity.oneTableDupFree(pairs, _, groupByRight = false)
      case BothDupFree  => Transitivity.bothDupFree(pairs, _)
      case SingleTable  => SingleTableSolver.constrain(pairs, _)
    }

  /** Full SIMPLE-EM. `tables` holds the (left, right) table sizes of a
    * two-table dataset, which the duplicate-free tests need; `None` marks a
    * single-table dataset.
    */
  def run(votes: Array[Array[Int]], pairs: Array[(Long, Long)],
          tables: Option[(Long, Long)], seed: Long = 0): Output = {
    val pats = VotePatterns(votes)
    val base = Simple.fit(pats, seed)
    val tests = tables.map { case (nLeft, nRight) =>
      val matches = pairs.indices.filter(base.gamma(_) >= 0.5).map(pairs)
      (DupFreeDetect.leftDupFree(matches, nRight), DupFreeDetect.rightDupFree(matches, nLeft))
    }
    val strategy = tests.fold[Strategy](SingleTable) { case (l, r) =>
      if (l.dupFree && r.dupFree) BothDupFree else if (l.dupFree) LeftDupFree
      else if (r.dupFree) RightDupFree else NoTrans
    }
    val fit =
      if (strategy == NoTrans) base
      else new Simple(constrain = transform(strategy, pairs), name = "SIMPLE-EM").fit(pats, seed)
    Output(fit.gamma, fit.converged, strategy, tests, base.gamma)
  }
}
