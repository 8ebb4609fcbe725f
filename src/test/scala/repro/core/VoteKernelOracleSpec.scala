package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.PropSupport
import repro.wrench.WrenchGen
import scala.util.Random

/** The row-by-row vote models (D&S, EBCC, Snorkel, FlyingSquid) with nested
  * arrays and a `math.log` per (row, LF) term. The pattern-indexed models in
  * `repro.core` must reproduce them bit for bit; EBCC's are compared after
  * clamping to 1, which the reference does not do.
  */
object ReferenceVoteModels {
  private val Classes = 2
  private val K       = 2
  private val iters   = 80
  private def sym(v: Int): Int = v + 1

  private def classPrior(votes: Array[Array[Int]]): Double = {
    val g = MajorityVote.fitPredict(votes)
    math.min(0.95, math.max(0.01, g.count(_ >= 0.5).toDouble / math.max(1, g.length)))
  }

  def dawidSkene(votes: Array[Array[Int]]): Array[Double] = {
    val n = votes.length
    if (n == 0) return Array.empty
    val m = votes(0).length
    var mu = MajorityVote.fitPredict(votes)    // P(y_i = +1)
    var iter = 0
    var prev = mu
    var converged = false
    while (iter < 100 && !converged) {
      // M-step: confusion tables + prior with Laplace smoothing.
      val pi = Array.fill(m, Classes, 3)(1.0)  // smoothing pseudo-count
      val prior = Array.fill(Classes)(1.0)
      var i = 0
      while (i < n) {
        val w1 = mu(i); val w0 = 1.0 - mu(i)
        prior(1) += w1; prior(0) += w0
        var j = 0
        while (j < m) {
          val s = sym(votes(i)(j))
          pi(j)(1)(s) += w1
          pi(j)(0)(s) += w0
          j += 1
        }
        i += 1
      }
      val priorSum = prior.sum
      for (j <- 0 until m; c <- 0 until Classes) {
        val tot = pi(j)(c).sum
        var s = 0
        while (s < 3) { pi(j)(c)(s) /= tot; s += 1 }
      }
      // E-step.
      val next = Array.ofDim[Double](n)
      i = 0
      while (i < n) {
        var l1 = math.log(prior(1) / priorSum)
        var l0 = math.log(prior(0) / priorSum)
        var j = 0
        while (j < m) {
          val s = sym(votes(i)(j))
          l1 += math.log(pi(j)(1)(s))
          l0 += math.log(pi(j)(0)(s))
          j += 1
        }
        val mx = math.max(l0, l1)
        val e1 = math.exp(l1 - mx); val e0 = math.exp(l0 - mx)
        next(i) = e1 / (e0 + e1)
        i += 1
      }
      val delta = next.zip(prev).map { case (a, b) => math.abs(a - b) }.sum / n
      prev = next
      mu = next
      converged = delta < 1e-6
      iter += 1
    }
    mu
  }

  def ebcc(votes: Array[Array[Int]], seed: Long): Array[Double] = {
    val n = votes.length
    if (n == 0) return Array.empty
    val m = votes(0).length
    val rng = new Random(seed)
    val mv  = MajorityVote.fitPredict(votes)

    // r(i)(c)(k): joint responsibility; init from MV with random subtype split.
    var r = Array.tabulate(n) { i =>
      val base = Array(1.0 - mv(i), mv(i))
      Array.tabulate(2) { c =>
        val split = Array.fill(K)(0.5 + rng.nextDouble())
        val tot = split.sum
        Array.tabulate(K)(k => base(c) * split(k) / tot)
      }
    }

    var iter = 0
    while (iter < iters) {
      // M-step: class prior, subtype weights, emission tables (smoothed).
      val prior = Array.fill(2)(1.0)
      val rho   = Array.fill(2, K)(1.0)
      val pi    = Array.fill(m, 2, K, 3)(0.5)
      var i = 0
      while (i < n) {
        for (c <- 0 until 2; k <- 0 until K) {
          val w = r(i)(c)(k)
          prior(c) += w
          rho(c)(k) += w
          var j = 0
          while (j < m) { pi(j)(c)(k)(sym(votes(i)(j))) += w; j += 1 }
        }
        i += 1
      }
      val priorSum = prior.sum
      for (c <- 0 until 2) {
        val rs = rho(c).sum
        for (k <- 0 until K) rho(c)(k) /= rs
      }
      for (j <- 0 until m; c <- 0 until 2; k <- 0 until K) {
        val tot = pi(j)(c)(k).sum
        for (s <- 0 until 3) pi(j)(c)(k)(s) /= tot
      }
      // E-step: joint posterior over (c, k).
      val next = Array.ofDim[Array[Array[Double]]](n)
      i = 0
      while (i < n) {
        val logp = Array.tabulate(2, K) { (c, k) =>
          var l = math.log(prior(c) / priorSum) + math.log(rho(c)(k))
          var j = 0
          while (j < m) { l += math.log(pi(j)(c)(k)(sym(votes(i)(j)))); j += 1 }
          l
        }
        val mx = logp.map(_.max).max
        val ex = logp.map(_.map(v => math.exp(v - mx)))
        val tot = ex.map(_.sum).sum
        next(i) = ex.map(_.map(_ / tot))
        i += 1
      }
      r = next
      iter += 1
    }
    r.map(_(1).sum)
  }

  def snorkel(votes: Array[Array[Int]]): Array[Double] = {
    val n = votes.length
    if (n == 0) return Array.empty
    val m = votes(0).length
    val p1 = classPrior(votes)

    // Propensities are observable directly.
    val beta = Array.tabulate(m) { j =>
      math.min(0.999, math.max(1e-3, votes.count(_(j) != 0).toDouble / n))
    }
    var alpha = Array.fill(m)(0.7) // better-than-random init (weak-supervision assumption)
    var mu = MajorityVote.fitPredict(votes)

    var iter = 0
    var converged = false
    while (iter < 100 && !converged) {
      // E-step with current accuracies.
      val next = Array.ofDim[Double](n)
      var i = 0
      while (i < n) {
        var l1 = math.log(p1); var l0 = math.log(1 - p1)
        var j = 0
        while (j < m) {
          val v = votes(i)(j)
          if (v != 0) {
            // y = +1 => vote +1 w.p. alpha, -1 w.p. 1-alpha (and symmetric).
            val pPos = if (v == 1) alpha(j) else 1 - alpha(j)
            val pNeg = if (v == -1) alpha(j) else 1 - alpha(j)
            l1 += math.log(math.max(1e-9, beta(j) * pPos))
            l0 += math.log(math.max(1e-9, beta(j) * pNeg))
          }
          j += 1
        }
        val mx = math.max(l0, l1)
        val e1 = math.exp(l1 - mx); val e0 = math.exp(l0 - mx)
        next(i) = e1 / (e0 + e1)
        i += 1
      }
      val delta = next.zip(mu).map { case (a, b) => math.abs(a - b) }.sum / n
      mu = next
      // M-step: accuracy = expected fraction of non-abstain votes agreeing with y.
      val agree = Array.fill(m)(1.0); val total = Array.fill(m)(2.0) // Laplace
      i = 0
      while (i < n) {
        var j = 0
        while (j < m) {
          val v = votes(i)(j)
          if (v != 0) {
            total(j) += 1
            agree(j) += (if (v == 1) mu(i) else 1.0 - mu(i))
          }
          j += 1
        }
        i += 1
      }
      alpha = Array.tabulate(m)(j => math.min(0.999, math.max(1e-3, agree(j) / total(j))))
      converged = delta < 1e-6
      iter += 1
    }
    mu
  }

  def flyingSquid(votes: Array[Array[Int]]): Array[Double] = {
    val n = votes.length
    if (n == 0) return Array.empty
    val m = votes(0).length
    val p1 = classPrior(votes)
    val mv = MajorityVote.fitPredict(votes).map(g => if (g >= 0.5) 1 else -1)

    // Pairwise second moments over mutually non-abstaining rows.
    val moment = Array.fill(m, m)(0.0)
    for (a <- 0 until m; b <- 0 until m if a != b) {
      var s = 0.0; var c = 0
      var i = 0
      while (i < n) {
        val va = votes(i)(a); val vb = votes(i)(b)
        if (va != 0 && vb != 0) { s += va * vb; c += 1 }
        i += 1
      }
      moment(a)(b) = if (c < 5) 0.0 else s / c
    }

    // Triplet estimates, median-aggregated per LF.
    val acc = Array.tabulate(m) { a =>
      val ests = for {
        b <- 0 until m if b != a
        c <- 0 until m if c != a && c != b
        if math.abs(moment(b)(c)) > 1e-3
      } yield math.sqrt(math.min(1.0, math.abs(moment(a)(b) * moment(a)(c) / moment(b)(c))))
      val mag =
        if (ests.isEmpty) 0.2
        else { val s = ests.sorted; s(s.length / 2) }
      // Sign from agreement with majority vote on non-abstain rows.
      var agree = 0.0; var cnt = 0
      var i = 0
      while (i < n) {
        if (votes(i)(a) != 0) { agree += votes(i)(a) * mv(i); cnt += 1 }
        i += 1
      }
      val sign = if (cnt == 0 || agree >= 0) 1.0 else -1.0
      sign * math.min(0.98, math.max(0.02, mag))
    }

    // Naive-Bayes aggregation: P(λ = y | λ != 0) = (1 + a) / 2.
    Array.tabulate(n) { i =>
      var l1 = math.log(p1); var l0 = math.log(1 - p1)
      var j = 0
      while (j < m) {
        val v = votes(i)(j)
        if (v != 0) {
          val pAgree = (1.0 + acc(j)) / 2.0
          val pPos = if (v == 1) pAgree else 1 - pAgree
          val pNeg = if (v == -1) pAgree else 1 - pAgree
          l1 += math.log(math.max(1e-9, pPos))
          l0 += math.log(math.max(1e-9, pNeg))
        }
        j += 1
      }
      val mx = math.max(l0, l1)
      val e1 = math.exp(l1 - mx); val e0 = math.exp(l0 - mx)
      e1 / (e0 + e1)
    }
  }
}

class VoteKernelOracleSpec extends AnyFunSuite with PropSupport {

  private def clamp(g: Array[Double]): Array[Double] = g.map(math.min(1.0, _))

  /** The problems found when the four models' outputs on `votes` are
    * compared bitwise with the references'; empty when all match.
    */
  private def mismatches(votes: Array[Array[Int]], seed: Long): Seq[String] =
    Seq(
      "D&S"  -> (DawidSkene.fitPredict(votes, seed), ReferenceVoteModels.dawidSkene(votes)),
      "EBCC" -> (Ebcc.fitPredict(votes, seed), clamp(ReferenceVoteModels.ebcc(votes, seed))),
      "SN"   -> (SnorkelModel.fitPredict(votes, seed), ReferenceVoteModels.snorkel(votes)),
      "FS"   -> (FlyingSquid.fitPredict(votes, seed), ReferenceVoteModels.flyingSquid(votes)))
      .collect { case (name, (got, want)) if !java.util.Arrays.equals(got, want) => name }

  /** n rows drawn from a few random patterns over m LFs, so rows repeat
    * heavily; each pattern's LFs abstain with its own probability.
    */
  private def duplicated(seed: Long, n: Int, m: Int, patterns: Int): Array[Array[Int]] = {
    val rng = new Random(seed)
    val pats = Array.fill(patterns) {
      val abstain = rng.nextDouble()
      Array.fill(m)(if (rng.nextDouble() < abstain) 0 else if (rng.nextBoolean()) 1 else -1)
    }
    Array.fill(n)(pats(rng.nextInt(patterns)).clone())
  }

  test("all ten WRENCH specs: every vote model equals its reference bit for bit") {
    WrenchGen.specs.foreach { spec =>
      val votes = WrenchGen.generate(spec).votes
      assert(mismatches(votes, 0).isEmpty, spec.name)
    }
  }

  private val matrixCase = for {
    seed     <- Gen.choose(0L, 1000000L)
    n        <- Gen.frequency(1 -> Gen.const(0), 1 -> Gen.choose(1, 5), 8 -> Gen.choose(6, 200))
    m        <- Gen.frequency(3 -> Gen.choose(0, 3), 5 -> Gen.choose(4, 12), 2 -> Gen.choose(13, 90))
    patterns <- Gen.choose(1, 25)
  } yield (seed, n, m, patterns)

  test("property: duplicate-heavy vote matrices give bit-identical γ for every model") {
    checkProp(Prop.forAllNoShrink(matrixCase) { case (seed, n, m, patterns) =>
      mismatches(duplicated(seed, n, m, patterns), seed).isEmpty
    }, minTests = 200)
  }

  test("all-abstain and single-pattern matrices give bit-identical γ") {
    for (n <- Seq(1, 7, 300); m <- Seq(0, 1, 4, 40)) {
      val rng = new Random(n * 100 + m)
      val one = Array.fill(m)(rng.nextInt(3) - 1)
      assert(mismatches(Array.fill(n)(new Array[Int](m)), 3).isEmpty, s"all-abstain n=$n m=$m")
      assert(mismatches(Array.fill(n)(one.clone()), 3).isEmpty, s"single-pattern n=$n m=$m")
    }
  }

  test("VotePatterns lists distinct rows in first-occurrence order with counts") {
    val votes = Array(Array(1, 0), Array(-1, 1), Array(1, 0), Array(0, 0), Array(-1, 1), Array(1, 0))
    val pats = VotePatterns(votes)
    assert(pats.size == 3 && pats.m == 2 && pats.rows == 6)
    assert(pats.votes.sameElements(Array(1, 0, -1, 1, 0, 0)))
    assert(pats.ofRow.sameElements(Array(0, 1, 0, 2, 1, 0)))
    assert(pats.count.sameElements(Array(3, 2, 1)))
    assert(pats.expand(Array(0.1, 0.2, 0.3)).sameElements(Array(0.1, 0.2, 0.1, 0.3, 0.2, 0.1)))
    assert(VotePatterns(Array.empty[Array[Int]]).size == 0)
    assert(VotePatterns(Array.fill(4)(Array.empty[Int])).count.sameElements(Array(4)))
  }
}
