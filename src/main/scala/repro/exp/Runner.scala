package repro.exp

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{col, hash, lit, pmod}
import repro.core._
import repro.emdata.{Blocking, Datasets, EmDataGen, Features}
import repro.lf.{LabelingFunctions, LfSuite}
import repro.zeroer.ZeroEr

/** Prepares a dataset end-to-end (generate → block → LF votes → features)
  * and exposes the evaluation closure every experiment shares.
  */
object Runner {

  /** A prepared dataset: the collected pair keys, votes and features, plus
    * `pairDf`, the uncached Spark plan they were collected from (pair
    * attributes, token signals, vote_i and feature columns). Each action on
    * `pairDf` re-runs that plan; nothing is pinned in Spark's cache.
    */
  final case class Prepared(ds: EmDataGen.EmDataset,
                            pairDf: DataFrame,
                            pairs: Array[(Long, Long)],
                            votes: Array[Array[Int]],
                            feats: Array[Array[Double]],
                            textFeats: Array[Array[Double]],
                            truth: Array[Int],
                            lfs: Seq[LabelingFunctions.Lf]) {
    def cfg: EmDataGen.EmConfig = ds.cfg

    private def matches(gamma: Array[Double]): Set[(Long, Long)] =
      pairs.indices.collect { case i if gamma(i) >= 0.5 => pairs(i) }.toSet

    /** Restricts a predicted pair set to the labeled scope on partial-GT datasets. */
    private def scoped(predicted: Set[(Long, Long)]): Set[(Long, Long)] =
      ds.evalScope.fold(predicted)(predicted.intersect)

    /** Predicted match set from soft labels (candidate pairs with γ ≥ 0.5),
      * restricted to the labeled scope on partial-GT datasets.
      */
    def predictedSet(gamma: Array[Double]): Set[(Long, Long)] = scoped(matches(gamma))

    /** F1 against ground truth. GT matches lost by blocking count as false
      * negatives — honest end-to-end scoring.
      */
    def f1(gamma: Array[Double]): Double = f1Of(matches(gamma))

    /** F1 for an explicit predicted pair set (postprocessing baselines). */
    def f1Of(predicted: Set[(Long, Long)]): Double = Metrics.f1(scoped(predicted), ds.evalTruth)

    def blockingRecall: Double = Blocking.recall(pairs.toSet, ds.gt)
  }

  /** Generate + block + vote + featurize one dataset at `scale`, as one
    * uncached Spark plan collected once.
    *
    * Pairs come back in a fixed order: by the shuffle partition of id2
    * (`pmod(hash(id2), N)`, N = `spark.sql.shuffle.partitions`), then id2,
    * then id1. SIMPLE's random streams follow the row order, so the order is
    * part of every table's numbers; see DESIGN.md §3.
    */
  def prepare(spark: SparkSession, cfg: EmDataGen.EmConfig, scale: Double,
              lfsOverride: Option[Seq[LabelingFunctions.Lf]] = None): Prepared = {
    val ds = EmDataGen.generate(spark, cfg, scale)
    val lfs = lfsOverride.getOrElse(LfSuite.suite(cfg.name))
    val (withVotes, voteCols) = LabelingFunctions.withVotes(Blocking.block(spark, ds), lfs)
    val full = Features.withFeatures(withVotes)
    val nParts = spark.conf.get("spark.sql.shuffle.partitions").toInt
    val cols = (Seq("id1", "id2") ++ voteCols ++ Features.featureCols).map(col)
    val part = cols.size
    val rows = full.select(cols :+ pmod(hash(col("id2")), lit(nParts)): _*).collect()
      .sortBy(r => (r.getInt(part), r.getLong(1), r.getLong(0)))
    val pairs = rows.map(r => (r.getLong(0), r.getLong(1)))
    val votes = rows.map(r => Array.tabulate(voteCols.size)(i => r.getInt(i + 2)))
    val feats = rows.map(r =>
      Array.tabulate(Features.featureCols.size)(i => r.getDouble(i + 2 + voteCols.size)))
    val textIdx = Features.textFeatureCols.map(Features.featureCols.indexOf)
    val textFeats = feats.map(f => textIdx.map(f).toArray)
    val truth = pairs.map(p => if (ds.gt.contains(p)) 1 else 0)
    Prepared(ds, full, pairs, votes, feats, textFeats, truth, lfs)
  }

  // ---- Method registry (Tables 3, 6, 8, 11) --------------------------------

  /** Weak-supervision baselines operating on the labeling matrix alone. */
  val wsBaselines: Seq[LabelModel] = Seq(MajorityVote, DawidSkene, Ebcc, FlyingSquid, SnorkelModel)

  /** SIMPLE-EM on a prepared dataset (detects duplicate-freeness itself). */
  def simpleEm(p: Prepared, seed: Long = 0): SimpleEm.Output =
    SimpleEm.run(p.votes, p.pairs, Option.when(p.cfg.twoTable)((p.ds.nLeft, p.ds.nRight)), seed)

  /** ZeroER on a prepared dataset (its own features, no LFs). */
  def zeroEr(p: Prepared, seed: Long = 0): Array[Double] =
    ZeroEr.fitPredict(p.feats,
      jaccardIdx = Features.featureCols.indexOf("f_jaccard"),
      modelEqIdx = Features.featureCols.indexOf("f_model_eq"),
      seed = seed)
}
