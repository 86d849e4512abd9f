package repro.core

import scala.collection.mutable.ArrayBuffer

/** Bounded shortest-distance computation (§3.3 of the paper).
  *
  * EVE needs Δ(s,y) and Δ(y,t) for exactly the vertices y that can lie on a
  * k-bounded s-t path, i.e. those with Δ(s,y)+Δ(y,t) ≤ k; every other vertex
  * may keep distance +∞. Three strategies are implemented, matching the
  * ablation of Figure 11:
  *
  *  - [[SearchMode.Single]]      — two full k-bounded BFS (from s over G and
  *                                 from t over G^r), the KHSQ strategy;
  *  - [[SearchMode.BiDir]]       — bi-directional BFS with equal depths
  *                                 ⌈k/2⌉/⌊k/2⌋, then each side continues for
  *                                 the remaining steps restricted to vertices
  *                                 the opposite side explored;
  *  - [[SearchMode.Adaptive]]    — same, but each step advances whichever
  *                                 frontier is currently smaller (Adaptive
  *                                 Bi-directional Search [2,21]).
  *
  * All three return exact Δ(s,y) and Δ(y,t) for every y with
  * Δ(s,y)+Δ(y,t) ≤ k (property-tested), encoded as Int arrays with
  * [[Bfs.Inf]] for "unknown / > k".
  */
object Bfs {

  /** Sentinel for "distance unknown or larger than the bound". Chosen so that
    * `d1 + d2` never overflows Int for d1,d2 ≤ Inf.
    */
  val Inf: Int = Int.MaxValue / 4

  sealed trait SearchMode extends Serializable
  object SearchMode {
    case object Single   extends SearchMode
    case object BiDir    extends SearchMode
    case object Adaptive extends SearchMode
  }

  /** Distances from s (forward) and to t (backward), per the chosen mode. */
  final case class Dists(toAll: Array[Int], fromAll: Array[Int]) {
    /** Δ(s,y). */ def fromS(y: Int): Int = toAll(y)
    /** Δ(y,t). */ def toT(y: Int): Int   = fromAll(y)
  }

  /** Plain k-bounded BFS over the given adjacency from `root`. */
  def bounded(adj: Array[Array[Int]], n: Int, root: Int, k: Int): Array[Int] =
    boundedFrom(adj, n, root :: Nil, k)

  /** k-bounded BFS over the given adjacency: distance to the nearest of `roots`. */
  private[core] def boundedFrom(adj: Array[Array[Int]], n: Int, roots: Seq[Int], k: Int): Array[Int] = {
    val dist = Array.fill(n)(Inf)
    val frontier = new ArrayBuffer[Int]()
    roots.foreach { r => if (dist(r) == Inf) { dist(r) = 0; frontier += r } }
    expand(adj, dist, frontier, 0, k, null, 0)
    dist
  }

  /** Level-by-level BFS expansion: `frontier` holds the vertices at distance
    * `depth`; every vertex y first reached over `adj` gets dist(y) = its level,
    * up to level `maxDepth`. A non-null `admit` lets in only vertices y with
    * admit(y) ≤ `admitMax`. Returns the last level reached (empty once the
    * search runs out).
    */
  private def expand(
      adj: Array[Array[Int]],
      dist: Array[Int],
      frontier: ArrayBuffer[Int],
      depth: Int,
      maxDepth: Int,
      admit: Array[Int],
      admitMax: Int,
  ): ArrayBuffer[Int] = {
    var cur = frontier
    var d = depth
    while (d < maxDepth && cur.nonEmpty) {
      val next = new ArrayBuffer[Int]()
      var i = 0
      while (i < cur.length) {
        val a = adj(cur(i)); var j = 0
        while (j < a.length) {
          val y = a(j)
          if (dist(y) == Inf && (admit == null || admit(y) <= admitMax)) { dist(y) = d + 1; next += y }
          j += 1
        }
        i += 1
      }
      cur = next
      d += 1
    }
    cur
  }

  /** Compute Δ(s,·) and Δ(·,t) bounded by k with the requested strategy. */
  def distances(g: LocalGraph, s: Int, t: Int, k: Int, mode: SearchMode): Dists =
    mode match {
      case SearchMode.Single =>
        Dists(bounded(g.outAdj, g.n, s, k), bounded(g.inAdj, g.n, t, k))
      case SearchMode.BiDir    => bidirectional(g, s, t, k, adaptive = false)
      case SearchMode.Adaptive => bidirectional(g, s, t, k, adaptive = true)
    }

  /** The G^k_st window of KHSQ [25]: e(u,v) lies on some ≤k-hop s-t walk iff
    * Δ(s,u)+1+Δ(v,t) ≤ k, given du = Δ(s,u) and dv = Δ(v,t). [[Inf]] leaves
    * the sum without overflow.
    */
  @inline def inWindow(du: Int, dv: Int, k: Int): Boolean = du + 1 + dv <= k

  /** All edges of `g` inside the G^k_st window, encoded via [[LocalGraph.enc]],
    * in (u, adjacency) order: ascending, as g's adjacency is sorted.
    */
  def windowEdges(g: LocalGraph, dists: Dists, k: Int): Array[Long] = {
    val kept = new ArrayBuffer[Long]()
    var u = 0
    while (u < g.n) {
      val du = dists.fromS(u)
      if (du < k) { // no window edge leaves u otherwise
        val a = g.outAdj(u); var j = 0
        while (j < a.length) {
          if (inWindow(du, dists.toT(a(j)), k)) kept += LocalGraph.enc(u, a(j))
          j += 1
        }
      }
      u += 1
    }
    kept.toArray
  }

  /** Bi-directional phase 1 (total depth k split between the two sides),
    * then restricted continuations (see the class doc for the guarantee).
    */
  private def bidirectional(g: LocalGraph, s: Int, t: Int, k: Int, adaptive: Boolean): Dists = {
    val n  = g.n
    val dF = Array.fill(n)(Inf); dF(s) = 0
    val dB = Array.fill(n)(Inf); dB(t) = 0
    var fF = ArrayBuffer(s)
    var fB = ArrayBuffer(t)
    var depthF = 0
    var depthB = 0

    // Phase 1: split the total depth budget k between the two sides.
    while (depthF + depthB < k && (fF.nonEmpty || fB.nonEmpty)) {
      val forward =
        if (fF.isEmpty) false
        else if (fB.isEmpty) true
        else if (adaptive) fF.length <= fB.length
        else depthF <= depthB // strict alternation, forward first (⌈k/2⌉ / ⌊k/2⌋)
      if (forward) { fF = expand(g.outAdj, dF, fF, depthF, depthF + 1, null, 0); depthF += 1 }
      else { fB = expand(g.inAdj, dB, fB, depthB, depthB + 1, null, 0); depthB += 1 }
    }
    // Phase 2: each side continues for the remaining steps, over vertices
    // the other side explored in phase 1. A continuation only writes levels
    // above its own phase-1 depth, so phase-1 membership stays exactly
    // dB(y) ≤ depthB (dF(y) ≤ depthF).
    expand(g.outAdj, dF, fF, depthF, k, dB, depthB)
    expand(g.inAdj, dB, fB, depthB, k, dF, depthF)
    Dists(dF, dB)
  }
}
