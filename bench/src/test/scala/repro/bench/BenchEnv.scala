package repro.bench

import org.apache.spark.sql.SparkSession
import repro.SparkSpec
import repro.exp.Experiments

/** Shared bench environment: one Experiments instance (with its prepared-
  * dataset and SIMPLE/SIMPLE-EM caches) reused across all table benches in
  * the JVM. Bench scale defaults to 0.5 (≈ thousands of records, tens of
  * thousands of candidate pairs across the 11 datasets); override with
  * REPRO_SCALE.
  */
object BenchEnv {
  val scale: Double = sys.env.getOrElse("REPRO_SCALE", "0.5").toDouble
  private var cached: Option[Experiments] = None
  def exp(spark: SparkSession): Experiments = synchronized {
    if (cached.isEmpty) cached = Some(new Experiments(spark, scale))
    cached.get
  }
}

/** Base trait for table benches: prints the rendered table so the tee'd
  * bench_output.txt contains every reproduced table.
  */
trait BenchSpec extends SparkSpec {
  def exp: Experiments = BenchEnv.exp(spark)
  def show(g: repro.exp.TableFmt.Grid): Unit = { println(); println(g.render); println() }
}
