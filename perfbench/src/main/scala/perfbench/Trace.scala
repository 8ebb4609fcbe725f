package perfbench

import scala.collection.mutable

/** Span recorder for traced runs. Every span records its name, the layer it
  * belongs to, start and end (monotonic ns), the span that encloses it and
  * the job it ran for. Spans stay in memory and are written out when the
  * run ends; nothing inside the program is instrumented — spans wrap the
  * benchmark's own calls into the program's public functions.
  */
final class Tracer {
  import Tracer.Span

  private val spans = mutable.ArrayBuffer.empty[Span]
  private var open: List[Span] = Nil
  private var job = ""

  def span[A](name: String, layer: String)(body: => A): A = {
    val s = new Span(spans.length, open.headOption.fold(-1)(_.id), name, layer, job, System.nanoTime())
    spans += s
    open = s :: open
    try body
    finally {
      s.end = System.nanoTime()
      open = open.tail
    }
  }

  /** Opens a root span for one job; spans inside it carry the job's name. */
  def job[A](name: String)(body: => A): A = {
    job = name
    try span(name, Tracer.Harness)(body) finally job = ""
  }

  def mark: Int = spans.length

  /** Self time per layer (s) over the spans recorded since `from`: a span's
    * duration minus what its direct children cover. Roots count in full, so
    * the values add up to the summed root durations.
    */
  def selfTimes(from: Int): Map[String, Double] = {
    val recent = spans.drop(from)
    val childNs = mutable.Map.empty[Int, Long].withDefaultValue(0L)
    recent.foreach(s => if (s.parent >= from) childNs(s.parent) += s.end - s.start)
    recent.groupMapReduce(_.layer)(s => (s.end - s.start - childNs(s.id)) / 1e9)(_ + _)
  }

  /** Summed duration (s) of the root spans recorded since `from`. */
  def rootSeconds(from: Int): Double =
    spans.drop(from).filter(_.parent < from).map(s => (s.end - s.start) / 1e9).sum

  def toJson(t0: Long): Seq[Map[String, Any]] = spans.toSeq.map { s =>
    Map("id" -> s.id, "parent" -> s.parent, "name" -> s.name, "layer" -> s.layer,
        "job" -> s.job, "start_s" -> (s.start - t0) / 1e9, "end_s" -> (s.end - t0) / 1e9)
  }
}

object Tracer {
  final class Span(val id: Int, val parent: Int, val name: String, val layer: String,
                   val job: String, val start: Long) {
    var end: Long = start
  }

  /** Layer names used for self time; `harness` is the uncovered remainder. */
  val Harness      = "harness"
  val SparkPrep    = "spark_prep"
  val CoreVote     = "core_vote"
  val ZeroEr       = "zeroer"
  val CoreSimple   = "core_simple"
  val Ml           = "ml"
  val Transitivity = "transitivity"
  val WrenchGen    = "wrench"
  val layers: Seq[String] = Seq(SparkPrep, CoreVote, ZeroEr, CoreSimple, Ml, Transitivity, WrenchGen)
}

/** Named per-layer counters summed over the jobs of a pass. */
final class Counters {
  private val m = mutable.LinkedHashMap.empty[String, Double]
  def add(name: String, v: Double): Unit = m(name) = m.getOrElse(name, 0.0) + v
  def max(name: String, v: Double): Unit = m(name) = math.max(m.getOrElse(name, 0.0), v)
  def time[A](name: String)(body: => A): A = {
    val t0 = System.nanoTime()
    try body finally add(name, (System.nanoTime() - t0) / 1e9)
  }
  def get(name: String): Double = m.getOrElse(name, 0.0)
  def toMap: Map[String, Double] = m.toMap
}
