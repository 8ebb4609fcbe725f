package perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import scala.collection.mutable

/** Benchmark entry point for one run of one workload.
  *
  *   perfbench.Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *                  --out <result.json> [--spans <spans.json>]
  *
  * Set-up runs `SetUpReps` times and is reported as the median. Then whole
  * passes over the workload's jobs repeat, one job at a time, until
  * `--seconds` have elapsed and, in untraced runs, the workload's
  * `minPasses` are done. Untraced runs report the end-to-end metrics.
  * Traced runs alternate an untraced reference pass with
  * a traced replay of the same jobs and report per-layer metrics, self time
  * per layer and the tracing overhead. The result goes to `--out` as JSON.
  */
object Main {
  val SetUpReps = 3

  /** Every per-layer metric a traced run reports; a layer a workload
    * bypasses reads 0.
    */
  val PerLayer: Seq[String] = Seq(
    "runner.prepare_s", "emdata.generate_s", "emdata.records", "emdata.block_s",
    "emdata.candidate_pairs", "emdata.blocking_recall", "lf.votes_s", "lf.count",
    "emdata.features_s", "runner.collect_s", "spark.jobs", "spark.stages", "spark.tasks",
    "spark.executor_run_s", "spark.shuffle_read_mb", "spark.shuffle_write_mb", "core.mv_s",
    "core.ds_s", "core.ebcc_s", "core.fs_s", "core.sn_s", "core.vote_rows", "core.vote_patterns",
    "core.pattern_ratio", "zeroer.fit_s", "core.simple.base_s", "core.simple.iters",
    "core.simple.converged", "core.simple.flips_last", "core.simple.mstep_s", "ml.smote_s",
    "ml.smote_rows_added", "ml.cv_s", "ml.cv_forest_fits", "ml.rf_fit_s", "ml.trees",
    "ml.predict_s", "ml.train_rows", "ml.train_distinct_rows", "ml.distinct_ratio",
    "ml.replayed_msteps", "core.dupfree_s", "core.dupfree_matches", "core.constrain_s",
    "core.constrain_calls", "core.components", "core.component_max", "core.assign_edges",
    "core.eq7_loss", "wrench.generate_s", "jvm.gc_s", "jvm.gc_count", "jvm.alloc_mb",
    "self.spark_prep_s", "self.core_vote_s", "self.zeroer_s", "self.core_simple_s", "self.ml_s",
    "self.transitivity_s", "self.wrench_s", "trace.uncovered_s", "trace.wall_s",
    "trace.untraced_wall_s", "trace.overhead_s", "trace.replay_mismatches")

  final case class Opts(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        out: String, spans: Option[String], localDir: String)

  def parse(args: Array[String]): Opts = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Opts(need("workload"), need("seed").toLong, need("seconds").toDouble, need("trace") == "1",
         need("out"), kv.get("spans"), kv.getOrElse("local-dir", System.getProperty("java.io.tmpdir")))
  }

  def main(args: Array[String]): Unit = {
    val opts = parse(args)
    val wl = Workload.byName(opts.workload).getOrElse {
      System.err.println(s"unknown workload ${opts.workload}; known: ${Workload.all.map(_.name).mkString(", ")}")
      sys.exit(2)
    }
    val env = new Env(opts.seed, Runtime.getRuntime.availableProcessors, opts.localDir)
    val status =
      try { run(wl, env, opts); 0 }
      catch { case e: Throwable => e.printStackTrace(); 1 }
      finally env.stopSpark()
    sys.exit(status)
  }

  private def run(wl: Workload, env: Env, opts: Opts): Unit = {
    val setUpS = (1 to SetUpReps).map { _ =>
      val t0 = System.nanoTime(); wl.setUp(env); Env.secondsSince(t0)
    }
    val parallelism = if (env.sparkStarted) env.spark.sparkContext.defaultParallelism else 0
    val usedSpark = env.sparkStarted
    wl.afterSetUp(env)

    val t0 = System.nanoTime()
    val result =
      if (opts.trace) traced(wl, env, opts, t0)
      else untraced(wl, env, opts, t0, setUpS)

    val meta = Map(
      "workload" -> wl.name, "seed" -> opts.seed, "seconds" -> opts.seconds, "trace" -> opts.trace,
      "nproc" -> env.cores, "spark_master" -> (if (usedSpark) env.master else "none"),
      "spark_default_parallelism" -> parallelism,
      "spark_shuffle_partitions" -> (if (usedSpark) env.shufflePartitions else 0), "scale" -> wl.scale.getOrElse(0.0),
      "xmx_mb" -> JvmStats.maxHeapMb, "set_up_reps" -> SetUpReps, "set_up_s" -> setUpS,
      "jobs" -> wl.jobNames)
    val doc = result + ("meta" -> meta)
    Files.write(Paths.get(opts.out), Json.render(doc).getBytes(StandardCharsets.UTF_8))
  }

  private def pass(wl: Workload, env: Env): Seq[Job] =
    wl.jobNames.map(j => Workload.attempt(j)(wl.run(env, j)))

  private def problemsOf(jobs: Seq[Job]): Seq[String] = jobs.flatMap(_.problems)

  private def untraced(wl: Workload, env: Env, opts: Opts, t0: Long,
                       setUpS: Seq[Double]): Map[String, Any] = {
    val passes = mutable.ArrayBuffer.empty[Seq[Job]]
    val peaks = mutable.ArrayBuffer.empty[Double]
    do {
      JvmStats.resetPeak()
      passes += pass(wl, env)
      peaks += JvmStats.peakHeapMb()
    } while (passes.size < wl.minPasses || Env.secondsSince(t0) < opts.seconds)

    val jobs = passes.flatten.toSeq
    val passS = passes.map(_.map(_.seconds).sum).toSeq
    val perName = jobs.groupBy(_.name).map { case (n, js) => n -> Env.median(js.map(_.seconds)) }
    val metrics = Map(
      "setup_s"      -> Env.median(setUpS),
      "wall_s"       -> Env.median(passS),
      "rows_per_s"   -> Env.median(passes.map(p => p.map(_.rows).sum / p.map(_.seconds).sum).toSeq),
      "job_s_p50"    -> Env.median(perName.values.toSeq),
      "job_s_max"    -> perName.values.max,
      "f1_avg"       -> passes.last.map(_.score).sum / passes.last.size,
      "peak_heap_mb" -> Env.median(peaks.toSeq),
      "fail_frac"    -> jobs.count(_.failed).toDouble / jobs.size)
    Map(
      "attempted" -> jobs.size, "failed" -> jobs.count(_.failed), "problems" -> problemsOf(jobs),
      "metrics" -> metrics, "passes" -> passes.size,
      "pass_s" -> passS,
      "job_samples" -> jobs.size,
      "job_s" -> perName,
      "scores" -> passes.last.map(j => j.name -> j.score).toMap)
  }

  private def traced(wl: Workload, env: Env, opts: Opts, t0: Long): Map[String, Any] = {
    val tr = new Tracer
    val listener = if (env.sparkStarted) Some(new SparkCounters) else None
    listener.foreach(l => env.spark.sparkContext.addSparkListener(l))
    val perPass = mutable.ArrayBuffer.empty[Map[String, Double]]
    val mismatches = mutable.ArrayBuffer.empty[String]
    val refs = mutable.ArrayBuffer.empty[Job]
    var selfSumOk = true
    try {
      do {
        val ref = pass(wl, env)
        refs ++= ref
        val c = new Counters
        val mark = tr.mark
        val sparkBefore = listener.map(_.snapshot(env.spark)).getOrElse(Map.empty)
        val jvmBefore = JvmStats.snapshot()
        ref.filterNot(_.failed).foreach { j =>
          mismatches ++= (try tr.job(j.name)(wl.trace(env, j, tr, c))
                          catch { case e: Exception => Seq(s"${j.name}: traced replay threw $e") })
        }
        val jvm = JvmStats.delta(jvmBefore, JvmStats.snapshot())
        val spark = listener.map { l =>
          val after = l.snapshot(env.spark)
          after.map { case (k, v) => k -> (v - sparkBefore(k)) }
        }.getOrElse(Map.empty)

        val wall = tr.rootSeconds(mark)
        val self = tr.selfTimes(mark)
        val untracedWall = ref.map(_.seconds).sum
        val selfSum = self.values.sum
        if (math.abs(selfSum - wall) > 1e-6 * math.max(1.0, wall)) selfSumOk = false
        val ratios = Map(
          "emdata.blocking_recall" -> (if (ref.isEmpty) 0.0 else c.get("emdata.blocking_recall_sum") / ref.size),
          "core.pattern_ratio" -> safeDiv(c.get("core.vote_patterns"), c.get("core.vote_rows")),
          "ml.distinct_ratio" -> safeDiv(c.get("ml.train_distinct_rows"), c.get("ml.train_rows")),
          "runner.prepare_s" -> ref.map(_.stats.getOrElse("runner.prepare_s", 0.0)).sum)
        val layers = Tracer.layers.map(l => s"self.${l}_s" -> self.getOrElse(l, 0.0)).toMap
        val traceM = Map(
          "trace.wall_s" -> wall, "trace.untraced_wall_s" -> untracedWall,
          "trace.overhead_s" -> (wall - untracedWall),
          "trace.uncovered_s" -> self.getOrElse(Tracer.Harness, 0.0),
          "trace.layers_self_s" -> Tracer.layers.map(self.getOrElse(_, 0.0)).sum)
        perPass += c.toMap ++ ratios ++ layers ++ traceM ++ jvm ++ spark
      } while (Env.secondsSince(t0) < opts.seconds)
    } finally listener.foreach(l => env.spark.sparkContext.removeSparkListener(l))

    opts.spans.foreach { path =>
      Files.write(Paths.get(path), Json.render(tr.toJson(t0)).getBytes(StandardCharsets.UTF_8))
    }
    val names = perPass.flatMap(_.keys).distinct
    val metrics = (PerLayer ++ names).distinct
      .map(n => n -> Env.median(perPass.map(_.getOrElse(n, 0.0)).toSeq)).toMap ++
      Map("trace.replay_mismatches" -> mismatches.size.toDouble,
          "trace.passes" -> perPass.size.toDouble)
    Map(
      "attempted" -> refs.size, "failed" -> refs.count(_.failed),
      "problems" -> (problemsOf(refs.toSeq) ++
        (if (selfSumOk) Nil else Seq("self times do not add up to the traced wall time"))),
      "replay_mismatches" -> mismatches.toSeq,
      "self_times_add_up" -> selfSumOk,
      "metrics" -> metrics, "passes" -> perPass.size)
  }

  private def safeDiv(a: Double, b: Double): Double = if (b == 0) 0.0 else a / b
}
