package evebench

import java.lang.management.ManagementFactory

import repro.core._

import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** Sums over the traced queries of each layer's time (ns), allocation
  * (bytes) and the sizes it worked on.
  */
final class LayerTotals {
  var queries = 0
  var bfsNs, bfsAlloc, ball, corridor = 0L
  var fwdNs, bwdNs, evAlloc, reached = 0L
  var labelNs, labelAlloc, window, spgu, undetermined = 0L
  var boundaryNs, departures, arrivals = 0L
  var orderNs, verifyNs, verifierAlloc, witnessed = 0L
  /** Per query: the traced phases' summed time, and Eve.run's time. */
  val tracedNs = ArrayBuffer[Long]()
  val untracedNs = ArrayBuffer[Long]()

  def verifierAndBoundaryNs: Long = boundaryNs + orderNs + verifyNs
  def tracedTotalNs: Long = bfsNs + fwdNs + bwdNs + labelNs + verifierAndBoundaryNs
}

/** EVE composed from its layers' public functions in the order `Eve.run`
  * calls them, each call timed from here (no spans inside the program).
  * Size counters are computed after the timed calls.
  */
object Trace {

  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  private var lastNs = 0L
  private var lastAlloc = 0L

  private def measure[A](body: => A): A = {
    val a0 = threads.getCurrentThreadAllocatedBytes
    val t0 = System.nanoTime()
    val r = body
    lastNs = System.nanoTime() - t0
    lastAlloc = threads.getCurrentThreadAllocatedBytes - a0
    r
  }

  /** Runs one query traced and untraced (in alternating order, so neither
    * always runs on warm caches) and returns both sorted edge sets.
    */
  def query(g: LocalGraph, s: Int, t: Int, k: Int, tot: LayerTotals): (Array[Long], Array[Long]) = {
    def untraced(): Array[Long] = {
      val t0 = System.nanoTime()
      val r = Eve.run(g, s, t, k)
      tot.untracedNs += System.nanoTime() - t0
      r.edges
    }
    if (tot.queries % 2 == 0) { val u = untraced(); (traced(g, s, t, k, tot), u) }
    else { val tr = traced(g, s, t, k, tot); (tr, untraced()) }
  }

  private def traced(g: LocalGraph, s: Int, t: Int, k: Int, tot: LayerTotals): Array[Long] = {
    tot.queries += 1
    val dists = measure(Bfs.distances(g, s, t, k, Bfs.SearchMode.Adaptive))
    tot.bfsNs += lastNs; tot.bfsAlloc += lastAlloc
    var phaseNs = lastNs
    countBall(g.n, k, dists, tot)
    if (dists.fromS(t) > k) { tot.tracedNs += phaseNs; return Array.emptyLongArray }

    val evF = measure(EssentialVertices.propagate(g, s, t, k, dists.fromAll, pruning = true))
    tot.fwdNs += lastNs; tot.evAlloc += lastAlloc; phaseNs += lastNs
    val evB = measure(EssentialVertices.propagate(g.reverse, t, s, k, dists.toAll, pruning = true))
    tot.bwdNs += lastNs; tot.evAlloc += lastAlloc; phaseNs += lastNs
    tot.reached += countReached(evF) + countReached(evB)

    val ub = measure(EdgeLabeling.upperBound(g, s, t, k, dists, evF, evB))
    tot.labelNs += lastNs; tot.labelAlloc += lastAlloc; phaseNs += lastNs
    tot.window += countWindow(g, k, dists)
    tot.spgu += ub.numEdges
    val definite = ub.labels.count(_ == EdgeLabel.Definite)
    tot.undetermined += ub.numEdges - definite

    val resultSet =
      if (k <= 4) null
      else {
        val boundary = measure(Boundary.compute(ub))
        tot.boundaryNs += lastNs; phaseNs += lastNs
        val verifier = measure(new Verifier(ub, boundary, ordering = true, Deadline.None))
        tot.orderNs += lastNs; phaseNs += lastNs
        var alloc = lastAlloc
        val result = measure(verifier.verify())
        tot.verifyNs += lastNs; phaseNs += lastNs
        alloc += lastAlloc
        tot.verifierAlloc += alloc
        tot.departures += boundary.isDeparture.count(identity)
        tot.arrivals += boundary.isArrival.count(identity)
        tot.witnessed += result.size() - definite
        result
      }
    // Assembling the sorted answer belongs to no layer, but Eve.run pays for
    // it too, so it counts in the traced total that the overhead compares.
    val edges = measure {
      val out = if (resultSet == null) ub.edges.clone() else resultSet.asScala.map(_.longValue).toArray
      java.util.Arrays.sort(out)
      out
    }
    tot.tracedNs += phaseNs + lastNs
    edges
  }

  /** Explored ball (a finite distance from either side) and s-t corridor
    * (Δ(s,y)+Δ(y,t) ≤ k).
    */
  private def countBall(n: Int, k: Int, d: Bfs.Dists, tot: LayerTotals): Unit = {
    var v = 0
    while (v < n) {
      val f = d.fromS(v); val b = d.toT(v)
      if (f != Bfs.Inf || b != Bfs.Inf) tot.ball += 1
      if (f + b <= k) tot.corridor += 1
      v += 1
    }
  }

  /** Vertices holding an EV set at the last layer (sets are inherited, so
    * that is every vertex the propagation reached).
    */
  private def countReached(ev: EvIndex): Long = ev.layers(ev.layers.length - 1).count(_ != null).toLong

  /** Edges inside the distance window Δ(s,u)+1+Δ(v,t) ≤ k, which the labeler inspects. */
  private def countWindow(g: LocalGraph, k: Int, d: Bfs.Dists): Long = {
    var c = 0L
    var u = 0
    while (u < g.n) {
      val du = d.fromS(u)
      if (du < k) g.outAdj(u).foreach(v => if (d.toT(v) <= k - 1 - du) c += 1)
      u += 1
    }
    c
  }
}
