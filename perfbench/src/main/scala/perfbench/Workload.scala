package perfbench

/** One dataset through a workload's path: rows labeled, seconds spent in the
  * program's calls, the headline score against ground truth, the validity
  * problems found, per-job stats, and the outputs a traced replay is
  * checked against.
  */
final case class Job(name: String, rows: Long, seconds: Double, score: Double,
                     problems: Seq[String], stats: Map[String, Double] = Map.empty,
                     ref: AnyRef = null) {
  def failed: Boolean = problems.nonEmpty
}

trait Workload {
  def name: String
  /** EM dataset scale, or None where the workload has no EM data. */
  def scale: Option[Double]
  /** Builds the inputs not under test; run several times, timed each time. */
  def setUp(env: Env): Unit
  /** Called once after the last set-up, before anything is timed. */
  def afterSetUp(env: Env): Unit = ()
  def jobNames: Seq[String]
  /** Untimed runs make at least this many passes, however long they take. */
  def minPasses: Int = 1
  /** Untraced: the program's own calls on one job's inputs. */
  def run(env: Env, job: String): Job
  /** Traced replay of one job through the same public calls, wrapped in
    * spans; returns mismatches against the untraced job's outputs.
    */
  def trace(env: Env, ref: Job, tr: Tracer, c: Counters): Seq[String]
}

object Workload {
  val all: Seq[Workload] = Seq(EmPrepare, EmLabel, WrenchWorkload)

  def byName(name: String): Option[Workload] = all.find(_.name == name)

  /** Runs one job; an exception becomes a failed job timed up to the throw. */
  def attempt(name: String)(body: => Job): Job = {
    val t0 = System.nanoTime()
    try body
    catch {
      case e: Exception =>
        Job(name, 0L, Env.secondsSince(t0), 0.0, Seq(s"$name: threw ${e.getClass.getSimpleName}: ${e.getMessage}"))
    }
  }

  /** Bitwise equality of two outputs (doubles compared by their bits). */
  def sameBits(a: Array[Double], b: Array[Double]): Boolean = java.util.Arrays.equals(a, b)
}
