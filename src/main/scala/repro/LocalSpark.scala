package repro

import org.apache.spark.sql.SparkSession

/** The SparkSession every entry point uses (unit tests, benches, jobs/).
  * `Runner.prepare` orders the collected candidate pairs by the shuffle
  * partition of id2 under `spark.sql.shuffle.partitions`, and the table
  * numbers depend on that order, so all entry points share this setting.
  * Broadcast joins are disabled so blocking exercises the shuffle path.
  * SPARK_MASTER (default local[*]) and SPARK_SHUFFLE_PARTITIONS (default 64)
  * override.
  */
object LocalSpark {
  def session(): SparkSession = SparkSession.builder
    .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
    .appName("repro")
    .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
    .config("spark.sql.autoBroadcastJoinThreshold", -1)
    .getOrCreate()
}
