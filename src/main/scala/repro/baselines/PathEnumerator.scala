package repro.baselines

import repro.core.{Deadline, LocalGraph}
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

/** A hop-constrained s-t simple path enumerator. Each implementation writes
  * only its search; counting and the enumeration-based SPG (the union of the
  * edges of every emitted path) are written here once.
  */
trait PathEnumerator extends Serializable {

  /** Name used in test names and benchmark reports. */
  def name: String

  /** Emit every ≤k-hop s-t simple path as its vertex sequence s..t and
    * return their number. `s` and `t` are vertices of `g`.
    */
  protected def search(g: LocalGraph, s: Int, t: Int, k: Int, deadline: Long)(
      onPath: ArrayBuffer[Int] => Unit): Long

  /** Enumerate all ≤k-hop s-t simple paths, invoking `onPath` with the path's
    * vertex sequence for each (the buffer is reused — copy if kept).
    * Returns the number of paths. Throws [[repro.core.DeadlineExceeded]]
    * past the deadline, and `IllegalArgumentException` when `s` or `t` is
    * not a vertex of `g`.
    */
  final def enumerate(g: LocalGraph, s: Int, t: Int, k: Int, deadline: Long = Deadline.None)(
      onPath: ArrayBuffer[Int] => Unit): Long = {
    g.requireVertices(s, t, k)
    search(g, s, t, k, deadline)(onPath)
  }

  /** Number of ≤k-hop s-t simple paths. */
  final def count(g: LocalGraph, s: Int, t: Int, k: Int, deadline: Long = Deadline.None): Long =
    enumerate(g, s, t, k, deadline)(PathEnumerator.NoPath)

  /** SPG via enumeration: union the edges of every emitted path. */
  final def spg(g: LocalGraph, s: Int, t: Int, k: Int, deadline: Long = Deadline.None): Set[Long] = {
    val edges = mutable.Set[Long]()
    enumerate(g, s, t, k, deadline) { path =>
      var i = 1
      while (i < path.length) { edges += LocalGraph.enc(path(i - 1), path(i)); i += 1 }
    }
    edges.toSet
  }
}

object PathEnumerator {

  /** The callback `count` passes: a search that receives it may skip
    * assembling paths.
    */
  val NoPath: ArrayBuffer[Int] => Unit = _ => ()
}
