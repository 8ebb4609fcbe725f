package repro.core

import repro.ml.{Assignment, UnionFind}

/** Exact transitivity solutions for two-table EM (paper §4.2) plus the
  * baseline transitivity handlers compared in Table 8 (ZeroER-style greedy
  * projection and traditional postprocessing).
  *
  * The transforms map the unconstrained E-step probabilities γ* to
  * constrained γ**, aligned with the `pairs` array of (leftId, rightId).
  */
object Transitivity {

  /** Exact solution when ONE table is duplicate-free.
    *
    * If the left table is duplicate-free, each right tuple can match at most
    * one left tuple, and keeping the argmax per right tuple minimizes the
    * free energy (ΔF(γ) = log(1/(1-γ)) is monotone in γ). `groupByRight =
    * true` handles the left-dup-free case; false the right-dup-free case.
    */
  def oneTableDupFree(pairs: Array[(Long, Long)], gamma: Array[Double],
                      groupByRight: Boolean): Array[Double] = {
    val key: Int => Long = i => if (groupByRight) pairs(i)._2 else pairs(i)._1
    val best = scala.collection.mutable.Map.empty[Long, Int]
    for (i <- pairs.indices) {
      val k = key(i)
      if (!best.contains(k) || gamma(i) > gamma(best(k))) best(k) = i
    }
    Array.tabulate(gamma.length)(i => if (best(key(i)) == i) gamma(i) else 0.0)
  }

  /** Exact solution when BOTH tables are duplicate-free: a min-cost
    * assignment over the predicted-match edges (γ > 0.5), maximizing
    * Σ log(1/(1-γ)) over a matching. Edges with γ ≤ 0.5 never flip a hard
    * prediction so they are left untouched (the paper's sparse optimization).
    */
  def bothDupFree(pairs: Array[(Long, Long)], gamma: Array[Double]): Array[Double] = {
    val cand = pairs.indices.filter(gamma(_) > 0.5)
    if (cand.isEmpty) return gamma.clone()
    val lIds = cand.map(pairs(_)._1).distinct.zipWithIndex.toMap
    val rIds = cand.map(pairs(_)._2).distinct.zipWithIndex.toMap
    val edges = cand.map { i =>
      val g = math.min(gamma(i), 1 - 1e-9)
      (lIds(pairs(i)._1), rIds(pairs(i)._2), math.log(1.0 / (1.0 - g)))
    }.toIndexedSeq
    val keep = Assignment.maxWeightMatching(edges)
    val out = gamma.clone()
    cand.zipWithIndex.foreach { case (i, e) => if (!keep.contains(e)) out(i) = 0.0 }
    out
  }

  /** ZeroER's transitivity handling (Wu et al., 2020): a greedy per-triplet
    * projection. With the same-table probabilities fixed at 0, a violated
    * triplet (two pairs sharing a tuple, both γ > 0) is projected onto the
    * constraint boundary by zeroing the smaller probability. Applied
    * sequentially left-side then right-side — order-dependent and blind to
    * whether the tables actually contain duplicates, which is why it is not
    * robust across datasets (Table 8).
    */
  def zeroErGreedy(pairs: Array[(Long, Long)], gamma: Array[Double]): Array[Double] = {
    val out = gamma.clone()
    def pass(key: Int => Long): Unit = {
      val groups = pairs.indices.groupBy(key)
      groups.values.foreach { idxs =>
        // Sequential pairwise projection in pair order (greedy, not argmax):
        var winner = -1
        idxs.foreach { i =>
          if (out(i) > 0.5) {
            if (winner < 0) winner = i
            else if (out(i) > out(winner)) { out(winner) = 0.0; winner = i }
            else out(i) = 0.0
          }
        }
      }
    }
    pass(i => pairs(i)._1) // assume left dup-free: zero extra matches per left tuple
    pass(i => pairs(i)._2) // then right — compounding on already-modified γ
    out
  }

  /** ZeroER-style greedy projection for single-table data: one pass over all
    * violated triangles in the candidate graph, scaling the smaller of the
    * two offending probabilities down to the boundary.
    */
  def zeroErGreedySingle(pairs: Array[(Long, Long)], gamma: Array[Double]): Array[Double] = {
    val out = gamma.clone()
    val idxOf = pairs.zipWithIndex.map { case ((a, b), i) => (math.min(a, b), math.max(a, b)) -> i }.toMap
    val adj = scala.collection.mutable.Map.empty[Long, List[Int]].withDefaultValue(Nil)
    pairs.zipWithIndex.foreach { case ((a, b), i) => adj(a) ::= i; adj(b) ::= i }
    for ((pivot, inc) <- adj; ei <- inc; ej <- inc if ei < ej) {
      val other1 = if (pairs(ei)._1 == pivot) pairs(ei)._2 else pairs(ei)._1
      val other2 = if (pairs(ej)._1 == pivot) pairs(ej)._2 else pairs(ej)._1
      val third  = idxOf.get((math.min(other1, other2), math.max(other1, other2)))
      val g3 = third.map(out).getOrElse(0.0) // blocked-out pair: probability 0
      val prod = out(ei) * out(ej)
      if (prod > g3 + 1e-12) {
        val (lo, hi) = if (out(ei) <= out(ej)) (ei, ej) else (ej, ei)
        out(lo) = if (out(hi) > 1e-9) math.min(out(lo), g3 / out(hi)) else 0.0
      }
    }
    out
  }

  /** Traditional postprocessing for two-table EM (Table 8 baseline):
    * assume both tables duplicate-free and greedily keep the higher-
    * probability cross pair whenever a tuple appears in two predicted
    * matches — i.e. greedy matching by descending probability.
    */
  def postprocessTwoTable(pairs: Array[(Long, Long)], gamma: Array[Double]): Array[Double] = {
    val out = gamma.clone()
    val order = pairs.indices.filter(gamma(_) >= 0.5).sortBy(i => -gamma(i))
    val usedL = scala.collection.mutable.Set.empty[Long]
    val usedR = scala.collection.mutable.Set.empty[Long]
    order.foreach { i =>
      val (l, r) = pairs(i)
      if (usedL(l) || usedR(r)) out(i) = 0.0
      else { usedL += l; usedR += r }
    }
    out
  }

  /** Traditional postprocessing for single-table EM: agglomerative
    * clustering with centroid-style (average) linkage over the matching
    * probabilities (the dedupe-library approach the paper cites); predicted
    * matches are all intra-cluster pairs. Pairs outside the candidate set
    * contribute similarity 0 to the linkage.
    *
    * Clustering runs per predicted-match component: a linkage across two
    * components averages values ≤ 0.5, so it never passes the > 0.5 merge
    * test, and a merge in one component leaves every other component's
    * linkages untouched. Each component's tuples start in ascending order,
    * so ties break as in one global loop over all tuples.
    */
  def postprocessSingleTable(pairs: Array[(Long, Long)], gamma: Array[Double]): Set[(Long, Long)] =
    components(pairs, gamma).flatMap { case (tuples, pidx) =>
      val sim = pidx.map { i =>
        val (a, b) = pairs(i); (math.min(a, b), math.max(a, b)) -> gamma(i)
      }.toMap
      var clusters: Vector[Vector[Long]] = tuples.sorted.map(Vector(_)).toVector

      def linkage(c1: Vector[Long], c2: Vector[Long]): Double = {
        var s = 0.0
        for (a <- c1; b <- c2) s += sim.getOrElse((math.min(a, b), math.max(a, b)), 0.0)
        s / (c1.size * c2.size)
      }

      var merged = true
      while (merged && clusters.size > 1) {
        var bi = -1; var bj = -1; var bs = 0.5 // only merge above the match threshold
        for (i <- clusters.indices; j <- (i + 1) until clusters.size) {
          val l = linkage(clusters(i), clusters(j))
          if (l > bs) { bs = l; bi = i; bj = j }
        }
        if (bi < 0) merged = false
        else {
          val c = clusters(bi) ++ clusters(bj)
          clusters = clusters.zipWithIndex.collect { case (cl, k) if k != bi && k != bj => cl } :+ c
        }
      }
      clusters.filter(_.size > 1).flatMap { c =>
        for (i <- c.indices; j <- (i + 1) until c.size)
          yield (math.min(c(i), c(j)), math.max(c(i), c(j)))
      }
    }.toSet

  /** Connected components of the predicted-match graph (edges with
    * γ > 0.5), the unit both single-table consumers work on (paper §4.3).
    * Each component is its tuples, in first-occurrence order over `pairs`,
    * and the indices of the pairs with both ends inside it, in pair order.
    * Components come in order of their first tuple; tuples with no
    * predicted match belong to none.
    */
  def components(pairs: Array[(Long, Long)], gamma: Array[Double]): Seq[(Array[Long], Array[Int])] = {
    val nodes = pairs.flatMap(p => Array(p._1, p._2)).distinct
    val nodeIdx = nodes.zipWithIndex.toMap
    val ends = pairs.map(p => (nodeIdx(p._1), nodeIdx(p._2)))
    val uf = new UnionFind(nodes.length)
    val matched = new Array[Boolean](nodes.length)
    for (i <- pairs.indices if gamma(i) > 0.5) {
      val (a, b) = ends(i); uf.union(a, b); matched(a) = true; matched(b) = true
    }
    // Each matched tuple's component root; -1 for the unmatched ones.
    val root = Array.tabulate(nodes.length)(k => if (matched(k)) uf.find(k) else -1)
    val inside = pairs.indices.groupBy { i => val (a, b) = ends(i); if (root(a) == root(b)) root(a) else -1 }
    nodes.indices.filter(matched(_)).groupBy(root(_)).toSeq.sortBy(_._2.head).map { case (r, ks) =>
      (ks.map(nodes).toArray, inside(r).toArray)
    }
  }
}
