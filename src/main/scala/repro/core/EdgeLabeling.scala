package repro.core

import scala.collection.mutable.ArrayBuffer

/** Edge labels of §4: 0 = failing, 1 = undetermined, 2 = definite. */
object EdgeLabel {
  val Failing: Byte      = 0
  val Undetermined: Byte = 1
  val Definite: Byte     = 2
}

/** The upper-bound graph SPGu_k(s,t) (Definition 4.1) with per-edge labels. */
final class UpperBoundGraph(
    val n: Int,
    val k: Int,
    val s: Int,
    val t: Int,
    /** Encoded edges with label ≥ 1 (see [[LocalGraph.enc]]), ascending. */
    val edges: Array[Long],
    /** Parallel to [[edges]]: 1 or 2. */
    val labels: Array[Byte],
) extends Serializable {

  def numEdges: Int = edges.length
  def definiteEdges: Iterator[Long] =
    edges.iterator.zip(labels.iterator).collect { case (e, l) if l == EdgeLabel.Definite => e }
  def undeterminedEdges: Iterator[Long] =
    edges.iterator.zip(labels.iterator).collect { case (e, l) if l == EdgeLabel.Undetermined => e }

  /** SPGu as a graph, for boundary detection and verification (k ≥ 5 only). */
  lazy val graph: LocalGraph = LocalGraph.fromEncodedEdges(n, edges.clone())
}

/** Algorithm 2 — per-edge labeling against the essential-vertex indexes. */
object EdgeLabeling {

  /** Label a single edge e(u,v). `evF` is the forward index (from s), `evB`
    * the backward index (to t). Follows Algorithm 2 line-by-line; see the
    * paper's Lemmas 4.4/4.6 and Theorem 4.3 for why checking kb = k-kf-1
    * covers all smaller kb.
    */
  def labelEdge(k: Int, s: Int, t: Int, u: Int, v: Int, evF: EvIndex, evB: EvIndex): Byte = {
    // line 1: first-hop from s / last-hop into t (Lemma 4.4, an iff).
    if (u == s) return if (evB.exists(k - 1, v)) EdgeLabel.Definite else EdgeLabel.Failing
    if (v == t) return if (evF.exists(k - 1, u)) EdgeLabel.Definite else EdgeLabel.Failing
    if (k >= 2) {
      // line 3: second-hop from s (Lemma 4.6).
      if (evF.exists(1, u)) {
        val b2 = evB.at(k - 2, v)
        if (b2 != null && !VSet.contains(b2, u)) return EdgeLabel.Definite
      }
      // line 4: second-hop into t (symmetric).
      if (evB.exists(1, v)) {
        val f2 = evF.at(k - 2, u)
        if (f2 != null && !VSet.contains(f2, v)) return EdgeLabel.Definite
      }
    }
    // lines 5-8: remaining (kf, kb) pairs with kf+kb+1 = k (Theorem 4.3).
    var kf = 2
    while (kf <= k - 3) {
      val a = evF.at(kf, u)
      if (a != null) {
        val b = evB.at(k - kf - 1, v)
        if (b != null && VSet.disjoint(a, b)) return EdgeLabel.Undetermined
      }
      kf += 1
    }
    EdgeLabel.Failing
  }

  /** Label every edge inside the G^k_st window ([[Bfs.windowEdges]]) and
    * assemble the upper-bound graph. Edges outside it are failing without
    * inspection (they violate the length constraint outright). The window's
    * ascending edge order is kept, so SPGu's edges come out ascending.
    */
  def upperBound(
      g: LocalGraph,
      s: Int,
      t: Int,
      k: Int,
      dists: Bfs.Dists,
      evF: EvIndex,
      evB: EvIndex,
  ): UpperBoundGraph = {
    val edges  = new ArrayBuffer[Long]()
    val labels = new ArrayBuffer[Byte]()
    for (e <- Bfs.windowEdges(g, dists, k)) {
      val lab = labelEdge(k, s, t, LocalGraph.src(e), LocalGraph.dst(e), evF, evB)
      if (lab != EdgeLabel.Failing) {
        edges += e
        labels += lab
      }
    }
    new UpperBoundGraph(g.n, k, s, t, edges.toArray, labels.toArray)
  }
}

/** Departures, arrivals and their valid neighbors (Definitions 5.1–5.4).
  *
  * Computed by a dedicated pass over SPGu implementing the definitions
  * directly (see DESIGN.md §6). In_D / Out_A are capped at k-2 entries per
  * Theorem 5.8.
  */
final class Boundary(
    val isDeparture: Array[Boolean],
    val isArrival: Array[Boolean],
    /** Valid in-neighbors per departure vertex (≤ k-2 entries), null elsewhere. */
    val inD: Array[Array[Int]],
    /** Valid out-neighbors per arrival vertex (≤ k-2 entries), null elsewhere. */
    val outA: Array[Array[Int]],
) extends Serializable {
  def departures: Seq[Int] = isDeparture.indices.filter(isDeparture)
  def arrivals: Seq[Int]   = isArrival.indices.filter(isArrival)
}

object Boundary {

  /** Departures and In_D come from SPGu, arrivals and Out_A from SPGu^r:
    * Definition 5.3 is Definition 5.1 with the edges reversed and s, t swapped.
    */
  def compute(ub: UpperBoundGraph): Boundary = {
    val cap = math.max(1, ub.k - 2)
    val (isD, inD)  = side(ub.graph, ub.s, ub.t, cap)
    val (isA, outA) = side(ub.graph.reverse, ub.t, ub.s, cap)
    new Boundary(isD, isA, inD, outA)
  }

  /** Definition 5.1 on `g`: v is a departure iff some x with x, v, root,
    * other distinct has e(root,x), e(x,v) ∈ g; those x (the first `cap` of
    * them) are v's valid in-neighbors. Each x is visited once, so no x repeats.
    */
  private def side(g: LocalGraph, root: Int, other: Int, cap: Int): (Array[Boolean], Array[Array[Int]]) = {
    val is   = new Array[Boolean](g.n)
    val nbrs = new Array[ArrayBuffer[Int]](g.n)
    for (x <- g.outAdj(root) if x != other; v <- g.outAdj(x) if v != root && v != other && v != x) {
      is(v) = true
      if (nbrs(v) == null) nbrs(v) = new ArrayBuffer[Int]()
      if (nbrs(v).length < cap) nbrs(v) += x
    }
    (is, nbrs.map(b => if (b == null) null else b.toArray))
  }
}
