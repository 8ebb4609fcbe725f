package repro.emdata

import EmDataGen.EmConfig

/** Configurations of the 11 synthetic analogues of the paper's benchmark
  * datasets (Table 1). Each analogue preserves the original's structural
  * knobs (two- vs single-table, relative sizes, dirtiness, duplicate
  * structure per the paper's Table 13, partial ground truth) at a scale
  * that keeps unit tests and benches fast. See DESIGN.md substitution #1.
  *
  * Difficulty comes from two sources mirroring real EM noise: model-token
  * collisions (`modelCollide` — product families sharing an identifier,
  * creating hard non-matches) and attribute noise (`attrNoise` — sizes and
  * years recorded differently per source, creating misfiring negative LFs
  * on true matches). The dirtiness ordering follows the paper's observed
  * difficulty: FZ easiest; AG and WA hardest.
  */
object Datasets {

  /** Fodors-Zagats: small, clean, both tables duplicate-free, ~1:1 matches. */
  val FZ = EmConfig("FZ", twoTable = true, nEntities = 120,
    pLeft = 0.95, pRight = 0.75,
    tokenDrop = 0.06, typo = 0.03, missing = 0.08, priceJitter = 0.02, extraWord = 0.05,
    modelCollide = 0.03, attrNoise = 0.03,
    seed = 101)

  /** DBLP-ACM: clean bibliographic data, duplicate-free. */
  val DA = EmConfig("DA", twoTable = true, nEntities = 700,
    pLeft = 0.9, pRight = 0.8,
    tokenDrop = 0.1, typo = 0.06, missing = 0.1, priceJitter = 0.03, extraWord = 0.08,
    modelCollide = 0.08, attrNoise = 0.06,
    seed = 102)

  /** DBLP-Scholar: right table much larger; both tables contain duplicates
    * (paper Table 13: 2939 / 129 GT duplicates).
    */
  val DS = EmConfig("DS", twoTable = true, nEntities = 900,
    pLeft = 0.45, pRight = 0.95, leftDup = 0.55, rightDup = 0.06,
    tokenDrop = 0.16, typo = 0.1, missing = 0.15, priceJitter = 0.06, extraWord = 0.14,
    modelCollide = 0.15, attrNoise = 0.12,
    seed = 103)

  /** Abt-Buy: dirty product text, near duplicate-free (16 / 5). */
  val AB = EmConfig("AB", twoTable = true, nEntities = 550,
    pLeft = 0.85, pRight = 0.85,
    tokenDrop = 0.28, typo = 0.18, missing = 0.3, priceJitter = 0.12, extraWord = 0.22,
    modelCollide = 0.25, attrNoise = 0.2,
    seed = 104)

  /** Amazon-Google: dirty, left table has duplicates (187 / 9). */
  val AG = EmConfig("AG", twoTable = true, nEntities = 600,
    pLeft = 0.75, pRight = 0.95, leftDup = 0.18, rightDup = 0.02,
    tokenDrop = 0.34, typo = 0.24, missing = 0.32, priceJitter = 0.2, extraWord = 0.3,
    modelCollide = 0.35, attrNoise = 0.25,
    seed = 105)

  /** Walmart-Amazon: very dirty (every method struggles); some duplicates. */
  val WA = EmConfig("WA", twoTable = true, nEntities = 650,
    pLeft = 0.6, pRight = 0.95, leftDup = 0.12, rightDup = 0.02,
    tokenDrop = 0.42, typo = 0.32, missing = 0.45, priceJitter = 0.3, extraWord = 0.38,
    modelCollide = 0.45, attrNoise = 0.3,
    seed = 106)

  /** IMDB-Rotten Tomatoes: clean, duplicate-free, partial ground truth. */
  val IR = EmConfig("IR", twoTable = true, nEntities = 450,
    pLeft = 0.9, pRight = 0.9,
    tokenDrop = 0.08, typo = 0.04, missing = 0.1, priceJitter = 0.03, extraWord = 0.08,
    modelCollide = 0.05, attrNoise = 0.05,
    partialGtFrac = 0.25, seed = 107)

  /** Yellow Pages-Yelp: clean-ish, partial ground truth. */
  val YY = EmConfig("YY", twoTable = true, nEntities = 420,
    pLeft = 0.85, pRight = 0.6,
    tokenDrop = 0.12, typo = 0.06, missing = 0.12, priceJitter = 0.05, extraWord = 0.1,
    modelCollide = 0.08, attrNoise = 0.08,
    partialGtFrac = 0.25, seed = 108)

  /** Amazon-Barnes&Noble: medium dirtiness, duplicate-free, partial GT. */
  val ABN = EmConfig("ABN", twoTable = true, nEntities = 550,
    pLeft = 0.85, pRight = 0.85,
    tokenDrop = 0.2, typo = 0.12, missing = 0.2, priceJitter = 0.1, extraWord = 0.16,
    modelCollide = 0.18, attrNoise = 0.15,
    partialGtFrac = 0.25, seed = 109)

  /** Monitor (Alaska): single-table, medium clusters, medium dirtiness. */
  val M = EmConfig("M", twoTable = false, nEntities = 420,
    pLeft = 0.95, clusterExtra = 1.4,
    tokenDrop = 0.18, typo = 0.12, missing = 0.2, priceJitter = 0.1, extraWord = 0.16,
    modelCollide = 0.2, attrNoise = 0.15,
    seed = 110)

  /** Camera (Alaska): single-table, larger clusters (many matches). */
  val C = EmConfig("C", twoTable = false, nEntities = 520,
    pLeft = 0.95, clusterExtra = 2.2,
    tokenDrop = 0.22, typo = 0.15, missing = 0.24, priceJitter = 0.12, extraWord = 0.2,
    modelCollide = 0.25, attrNoise = 0.18,
    seed = 111)

  /** All 11 analogues in the paper's Table 1 order. */
  val all: Vector[EmConfig] = Vector(FZ, DA, DS, AB, AG, WA, IR, YY, ABN, M, C)

  val twoTable: Vector[EmConfig] = all.filter(_.twoTable)

  def byName(name: String): EmConfig =
    all.find(_.name == name).getOrElse(sys.error(s"unknown dataset $name"))
}
