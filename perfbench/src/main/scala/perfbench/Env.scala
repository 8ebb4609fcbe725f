package perfbench

import java.lang.management.ManagementFactory
import scala.jdk.CollectionConverters._

import org.apache.spark.BenchListenerBus
import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession
import repro.emdata.EmDataGen.EmConfig
import repro.lf.{LabelingFunctions, LfSuite}

/** Run-wide settings and the Spark session, which workloads may restart
  * during set-up. Spark runs `local[k]` with k = min(4, cores); jobs run
  * one after another from this single thread.
  */
final class Env(val seed: Long, val cores: Int, val localDir: String) {
  private var session: Option[SparkSession] = None

  def spark: SparkSession = session.getOrElse(sys.error("Spark was not started"))
  def sparkStarted: Boolean = session.isDefined
  def master: String = s"local[${math.min(4, cores)}]"
  /** Two shuffle partitions per core: Spark's usual sizing for data this
    * small. (The bench suites default to 64, which mostly adds task overhead.)
    */
  def shufflePartitions: Int = 2 * math.min(4, cores)

  /** Starts a fresh session, stopping the current one first. Broadcast
    * joins are off, as in the repository's bench suites.
    */
  def restartSpark(): SparkSession = {
    stopSpark()
    val s = SparkSession.builder()
      .master(master)
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", localDir)
      .config("spark.sql.warehouse.dir", localDir + "/warehouse")
      .config("spark.sql.shuffle.partitions", shufflePartitions.toString)
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    session = Some(s)
    s
  }

  def stopSpark(): Unit = {
    session.foreach(_.stop())
    session = None
  }
}

object Env {
  /** Seed 0 keeps a generator's own seed (the bench inputs); any other
    * workload seed derives a new one with a SplitMix64 finalizer.
    */
  def derive(base: Long, seed: Long): Long =
    if (seed == 0) base
    else {
      var z = base ^ (seed * 0x9E3779B97F4A7C15L)
      z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
      z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
      (z ^ (z >>> 31)) & 0x3FFFFFFFFFFFL
    }

  /** The LF suite a workload seed gives an EM dataset: the bench suite for
    * seed 0, otherwise the suite with every threshold rescaled at random
    * (`LfSuite.randomized`, the paper's Table 11 study). The records are the
    * bench's for every seed: re-seeding `EmConfig` flips whole datasets
    * between generator regimes (see perfbench/README.md, "Seeds").
    */
  def lfs(cfg: EmConfig, seed: Long): Seq[LabelingFunctions.Lf] =
    if (seed == 0) LfSuite.suite(cfg.name) else LfSuite.randomized(cfg.name, derive(cfg.seed, seed))

  def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }
}

/** JVM counters read before and after a pass: GC time and count over all
  * collectors, bytes allocated by live threads, and peak heap in use.
  */
object JvmStats {
  private val threads = ManagementFactory.getThreadMXBean match {
    case t: com.sun.management.ThreadMXBean => Some(t)
    case _                                  => None
  }

  final case class Snapshot(gcMs: Long, gcCount: Long, allocBytes: Long)

  def snapshot(): Snapshot = {
    val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala
    val alloc = threads.fold(0L) { t =>
      t.getThreadAllocatedBytes(t.getAllThreadIds).filter(_ > 0).sum
    }
    Snapshot(gcs.map(_.getCollectionTime).sum, gcs.map(_.getCollectionCount).sum, alloc)
  }

  def delta(a: Snapshot, b: Snapshot): Map[String, Double] = Map(
    "jvm.gc_s"     -> (b.gcMs - a.gcMs) / 1000.0,
    "jvm.gc_count" -> (b.gcCount - a.gcCount).toDouble,
    "jvm.alloc_mb" -> math.max(0L, b.allocBytes - a.allocBytes) / 1048576.0)

  private val heapUsedAfterGc = new java.util.concurrent.atomic.AtomicLong(0L)

  // Records heap in use after every collection, so the peak live heap of a
  // pass can be read without sampling.
  ManagementFactory.getGarbageCollectorMXBeans.asScala.foreach {
    case e: javax.management.NotificationEmitter =>
      e.addNotificationListener((n: javax.management.Notification, _: AnyRef) => {
        if (n.getType == com.sun.management.GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
          val info = com.sun.management.GarbageCollectionNotificationInfo
            .from(n.getUserData.asInstanceOf[javax.management.openmbean.CompositeData])
          val used = info.getGcInfo.getMemoryUsageAfterGc.asScala.collect {
            case (pool, u) if heapPoolNames(pool) => u.getUsed
          }.sum
          heapUsedAfterGc.accumulateAndGet(used, (a: Long, b: Long) => math.max(a, b))
        }
      }, null, null)
    case _ =>
  }

  private lazy val heapPoolNames: Set[String] = ManagementFactory.getMemoryPoolMXBeans.asScala
    .filter(_.getType == java.lang.management.MemoryType.HEAP).map(_.getName).toSet

  /** Collects first, so garbage left by set-up or an earlier pass is not
    * counted against the next pass.
    */
  def resetPeak(): Unit = {
    System.gc()
    heapUsedAfterGc.set(0L)
  }

  /** Largest heap in use right after a collection since the last reset
    * (MB): the pass's peak live set. A collection is forced at the end so
    * every pass has at least one sample.
    */
  def peakHeapMb(): Double = {
    System.gc()
    heapUsedAfterGc.get / 1048576.0
  }

  def maxHeapMb: Double = Runtime.getRuntime.maxMemory / 1048576.0
}

/** Spark engine counters, registered by the benchmark for traced runs only
  * and removed again when the run ends.
  */
final class SparkCounters extends SparkListener {
  @volatile private var jobs, stages, tasks = 0L
  @volatile private var runMs, shuffleRead, shuffleWrite = 0L

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized { jobs += 1 }
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized { tasks += 1 }
  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    stages += 1
    Option(e.stageInfo.taskMetrics).foreach { m =>
      runMs += m.executorRunTime
      shuffleRead += m.shuffleReadMetrics.totalBytesRead
      shuffleWrite += m.shuffleWriteMetrics.bytesWritten
    }
  }

  def snapshot(spark: SparkSession): Map[String, Double] = {
    BenchListenerBus.drain(spark.sparkContext)
    synchronized {
      Map("spark.jobs" -> jobs.toDouble, "spark.stages" -> stages.toDouble,
          "spark.tasks" -> tasks.toDouble, "spark.executor_run_s" -> runMs / 1000.0,
          "spark.shuffle_read_mb" -> shuffleRead / 1048576.0,
          "spark.shuffle_write_mb" -> shuffleWrite / 1048576.0)
    }
  }
}
