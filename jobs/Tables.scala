package repro.jobs

import repro.LocalSpark
import repro.exp.Experiments

/** spark-submit entrypoints — one object per reproduced evaluation table.
  *
  *   spark-submit --class repro.jobs.Table03Overall repro.jar [scale]
  *
  * `scale` (default 0.5) scales the synthetic dataset sizes; unit tests use
  * 0.25–0.3, benches 0.5. The session is the benches' [[LocalSpark]] one, so
  * a job prints the same table as its bench at the same scale.
  */
object JobHarness {
  def run(args: Array[String])(body: Experiments => repro.exp.TableFmt.Grid): Unit = {
    val scale = args.headOption.map(_.toDouble).getOrElse(0.5)
    val spark = LocalSpark.session()
    try println(body(new Experiments(spark, scale)).render)
    finally spark.stop()
  }
}

object Table01Datasets     { def main(a: Array[String]): Unit = JobHarness.run(a)(_.table1()) }
object Table02LfStats      { def main(a: Array[String]): Unit = JobHarness.run(a)(_.table2()) }
object Table03Overall      { def main(a: Array[String]): Unit = JobHarness.run(a)(_.table3()) }
object Table04Ditto        { def main(a: Array[String]): Unit = JobHarness.run(a)(_.table4()) }
object Table05ActiveLearn  { def main(a: Array[String]): Unit = JobHarness.run(a)(_.table5()) }
object Table06Runtime      { def main(a: Array[String]): Unit = JobHarness.run(a)(_.table6()) }
object Table07EndModel     { def main(a: Array[String]): Unit = JobHarness.run(a)(_.table7()) }
object Table08Transitivity { def main(a: Array[String]): Unit = JobHarness.run(a)(_.table8()) }
object Table09Violations   { def main(a: Array[String]): Unit = JobHarness.run(a)(_.table9()) }
object Table10DataShift    { def main(a: Array[String]): Unit = JobHarness.run(a)(_.table10()) }
object Table11Sensitivity  { def main(a: Array[String]): Unit = JobHarness.run(a)(_.table11()) }
object Table12Wrench       { def main(a: Array[String]): Unit = JobHarness.run(a)(_.table12()) }
object Table13DupFree      { def main(a: Array[String]): Unit = JobHarness.run(a)(_.table13()) }
