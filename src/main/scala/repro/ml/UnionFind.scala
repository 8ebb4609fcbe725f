package repro.ml

/** Union-find over 0..n-1 with path compression + union by size.
  *
  * Used to extract connected components of the predicted-match graph
  * (edges with matching probability > 0.5) before applying the
  * per-component transitivity solvers.
  */
final class UnionFind(n: Int) {
  private val parent = Array.tabulate(n)(identity)
  private val size   = Array.fill(n)(1)

  /** Representative of x's component. */
  def find(x: Int): Int = {
    var r = x
    while (parent(r) != r) r = parent(r)
    var c = x
    while (parent(c) != r) { val nxt = parent(c); parent(c) = r; c = nxt }
    r
  }

  /** Merge the components of a and b; returns false if already joined. */
  def union(a: Int, b: Int): Boolean = {
    val ra = find(a); val rb = find(b)
    if (ra == rb) false
    else {
      val (big, small) = if (size(ra) >= size(rb)) (ra, rb) else (rb, ra)
      parent(small) = big
      size(big) += size(small)
      true
    }
  }
}
