package repro.distributed

import org.apache.spark.graphx._
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._

import scala.collection.mutable.ArrayBuffer

/** EVE over a DataFrame edge list, with the |E|-proportional work on GraphX.
  *
  *  1. bounded BFS distances Δ(s,·) and Δ(·,t) — two Pregel runs;
  *  2. one pass over the triplets keeps the G^k_st window of KHSQ [25]
  *     ([[repro.core.Bfs.inWindow]]), which is collected to the driver;
  *  3. local [[repro.core.Eve]] answers on that window, its ids compacted
  *     to Int.
  *
  * Every edge of a ≤k-hop s-t simple path lies in G^k_st, so EVE on the
  * window is SPG_k(s,t) of the whole graph: the paper's Table 5 generates SPG
  * on G^k_st in place of G the same way. The window holds only edges on some
  * ≤k-hop s-t walk, so it is query-local and fits on the driver.
  *
  * Entry/exit are DataFrames of (src, dst) Long columns.
  */
object DistEve {

  private val Inf = Bfs.Inf

  /** k-bounded BFS distance from `root` via Pregel, over a graph whose
    * vertices all hold [[Bfs.Inf]]. `reverse` walks edges backwards
    * (distance *to* root). The returned graph is cached; the caller
    * unpersists it.
    */
  private def pregelDist(
      graph: Graph[Int, Int], root: VertexId, k: Int, reverse: Boolean): Graph[Int, Int] = {
    val dir = if (reverse) EdgeDirection.In else EdgeDirection.Out
    Pregel(graph, Inf, maxIterations = k, activeDirection = dir)(
      vprog = (id, attr, msg) => if (id == root) 0 else math.min(attr, msg),
      sendMsg = triplet =>
        if (!reverse) {
          if (triplet.srcAttr != Inf && triplet.srcAttr + 1 < triplet.dstAttr)
            Iterator((triplet.dstId, triplet.srcAttr + 1))
          else Iterator.empty
        } else {
          if (triplet.dstAttr != Inf && triplet.dstAttr + 1 < triplet.srcAttr)
            Iterator((triplet.srcId, triplet.dstAttr + 1))
          else Iterator.empty
        },
      mergeMsg = math.min,
    )
  }

  /** Compute SPG_k(s,t) and return its edges as a DataFrame (src, dst). */
  def spg(spark: SparkSession, edgesDf: DataFrame, s: Long, t: Long, k: Int): DataFrame = {
    require(s != t, "query requires s != t")
    val edgeRdd = edgesDf.select("src", "dst").rdd
      .map(r => (r.getLong(0), r.getLong(1)))
      .filter { case (u, v) => u != v }
      .distinct()
    // The answer is built from driver-side data, so nothing cached here
    // outlives the call.
    val cached = ArrayBuffer[Graph[_, Int]]()
    def keep[G <: Graph[_, Int]](g: G): G = { cached += g; g }
    val window =
      try {
        val graph = keep(Graph.fromEdgeTuples(edgeRdd, defaultValue = Inf).cache())
        val dF = keep(pregelDist(graph, s, k, reverse = false))
        val dB = keep(pregelDist(graph, t, k, reverse = true))
        keep(dF.outerJoinVertices(dB.vertices)((_, df, db) => (df, db.getOrElse(Inf))))
          .triplets
          .filter(tr => Bfs.inWindow(tr.srcAttr._1, tr.dstAttr._2, k))
          .map(tr => (tr.srcId, tr.dstId))
          .collect()
      } finally {
        // Not Graph.unpersist: it releases the edges GraphX last shipped
        // vertex attributes into (the triplet pass re-ships the joined
        // graph's), not the edge RDD the graph cached.
        for (g <- cached) {
          g.vertices.unpersist(blocking = false)
          g.edges.unpersist(blocking = false)
        }
      }

    import spark.implicits._
    // An empty window means t is not k-reachable from s; otherwise s and t
    // are endpoints of window edges (those of a shortest s-t path).
    if (window.isEmpty) return Seq.empty[(Long, Long)].toDF("src", "dst")
    val ids = window.flatMap { case (u, v) => Array(u, v) }.distinct.sorted
    def local(id: Long): Int = java.util.Arrays.binarySearch(ids, id)
    val g = LocalGraph.fromEdges(ids.length, window.map { case (u, v) => (local(u), local(v)) })
    Eve.spg(g, local(s), local(t), k)
      .map(e => (ids(LocalGraph.src(e)), ids(LocalGraph.dst(e))))
      .toSeq
      .toDF("src", "dst")
  }
}
