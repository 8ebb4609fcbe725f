package repro.core

/** The distinct rows ("vote patterns") of a labeling matrix, in order of
  * first occurrence, with each row's pattern and each pattern's row count.
  *
  * Labeling matrices repeat themselves heavily (a few hundred to a few
  * thousand patterns among tens of thousands of pairs), so the vote models
  * run their E-steps once per pattern and copy the result back to the rows
  * with `expand`. The index is built from primitive arrays only: it keeps
  * no reference to the input rows.
  */
final class VotePatterns private (
    /** Number of LFs (columns). */
    val m: Int,
    /** Pattern p's vote from LF j is `votes(p * m + j)`, in {-1, 0, +1}. */
    val votes: Array[Int],
    /** Row i of the input has pattern `ofRow(i)`. */
    val ofRow: Array[Int],
    /** Number of input rows with pattern p. */
    val count: Array[Int]) {

  /** Number of distinct patterns. */
  def size: Int = count.length

  /** Number of input rows. */
  def rows: Int = ofRow.length

  /** `votes` as offsets into an m × 3 table indexed by (LF, vote): position
    * p * m + j holds j * 3 + vote + 1.
    */
  def tableCells: Array[Int] = Array.tabulate(votes.length)(q => (q % m) * 3 + votes(q) + 1)

  /** Σ_i |a(ofRow(i)) − b(ofRow(i))| over the input rows, added in row order. */
  def rowSumAbsDiff(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0
    var i = 0
    while (i < ofRow.length) { val p = ofRow(i); s += math.abs(a(p) - b(p)); i += 1 }
    s
  }

  /** Per-row values from per-pattern values. */
  def expand(perPattern: Array[Double]): Array[Double] = {
    val out = new Array[Double](ofRow.length)
    var i = 0
    while (i < out.length) { out(i) = perPattern(ofRow(i)); i += 1 }
    out
  }
}

object VotePatterns {

  /** Indexes `votes` (n rows of m = `votes(0).length` votes) with an
    * open-addressing hash table over the rows' first m entries.
    */
  def apply(votes: Array[Array[Int]]): VotePatterns = {
    val n = votes.length
    val m = if (n == 0) 0 else votes(0).length
    val ofRow = new Array[Int](n)
    var flat = new Array[Int](math.min(n, 64) * m)
    var count = new Array[Int](math.min(n, 64))
    var size = 0
    val slots = Array.fill(Integer.highestOneBit(math.max(1, n)) * 4)(-1)
    val mask = slots.length - 1

    var i = 0
    while (i < n) {
      val row = votes(i)
      var slot = hash(row, m) & mask
      while (slots(slot) >= 0 && !sameRow(flat, slots(slot) * m, row, m)) slot = (slot + 1) & mask
      if (slots(slot) < 0) {
        if (size == count.length) {
          count = java.util.Arrays.copyOf(count, 2 * size)
          flat = java.util.Arrays.copyOf(flat, 2 * size * m)
        }
        System.arraycopy(row, 0, flat, size * m, m)
        slots(slot) = size
        size += 1
      }
      val p = slots(slot)
      count(p) += 1
      ofRow(i) = p
      i += 1
    }
    new VotePatterns(m, java.util.Arrays.copyOf(flat, size * m), ofRow, java.util.Arrays.copyOf(count, size))
  }

  private def hash(row: Array[Int], m: Int): Int = {
    var h = 1
    var j = 0
    while (j < m) { h = 31 * h + row(j); j += 1 }
    // Murmur3 finalizer: spreads the polynomial hash over the low bits.
    h ^= h >>> 16; h *= 0x85ebca6b; h ^= h >>> 13; h *= 0xc2b2ae35; h ^ (h >>> 16)
  }

  private def sameRow(flat: Array[Int], at: Int, row: Array[Int], m: Int): Boolean = {
    var j = 0
    while (j < m && flat(at + j) == row(j)) j += 1
    j == m
  }
}
