package repro.baselines

import repro.core.{Deadline, LocalGraph}
import scala.collection.mutable.ArrayBuffer

/** Reference implementations by exhaustive DFS. These define ground truth
  * for every property test; they are also the "straightforward solution"
  * the paper's introduction describes (enumerate all k-hop-constrained s-t
  * simple paths, union their edges).
  */
object BruteForce extends PathEnumerator {
  val name = "BruteForce"

  protected def search(g: LocalGraph, s: Int, t: Int, k: Int, deadline: Long)(
      onPath: ArrayBuffer[Int] => Unit): Long = {
    var count   = 0L
    var steps   = 0
    val onStack = new Array[Boolean](g.n)
    val stack   = new ArrayBuffer[Int]()
    def dfs(cur: Int): Unit = {
      steps += 1
      if ((steps & 0xfff) == 0) Deadline.check(deadline)
      if (cur == t) { count += 1; onPath(stack); return }
      if (stack.length - 1 >= k) return
      val a = g.outAdj(cur); var j = 0
      while (j < a.length) {
        val nxt = a(j)
        if (!onStack(nxt)) {
          onStack(nxt) = true; stack += nxt
          dfs(nxt)
          onStack(nxt) = false; stack.remove(stack.length - 1)
        }
        j += 1
      }
    }
    onStack(s) = true; stack += s
    dfs(s)
    count
  }

  /** All simple paths s→t with ≤ k hops, each as a vertex sequence. */
  def allSimplePaths(g: LocalGraph, s: Int, t: Int, k: Int): Seq[Seq[Int]] = {
    val out = new ArrayBuffer[Seq[Int]]()
    enumerate(g, s, t, k)(out += _.toSeq)
    out.toSeq
  }

  /** Essential vertices by definition (Eq. 1): intersect the vertex sets of
    * all ≤l-hop simple paths source→u that avoid `excluded`. Returns null
    * when no such path exists. O(exponential) — tests only.
    */
  def essentialVertices(g: LocalGraph, source: Int, u: Int, l: Int, excluded: Int): Option[Set[Int]] = {
    if (u == source) return Some(Set(source))
    var acc: Set[Int] = null
    val onStack = new Array[Boolean](g.n)
    val stack   = new ArrayBuffer[Int]()
    def dfs(cur: Int): Unit = {
      if (cur == u) {
        acc = if (acc == null) stack.toSet else acc.intersect(stack.toSet)
        return
      }
      if (stack.length - 1 >= l) return
      val a = g.outAdj(cur); var j = 0
      while (j < a.length) {
        val nxt = a(j)
        if (!onStack(nxt) && nxt != excluded && nxt != source) {
          onStack(nxt) = true; stack += nxt
          dfs(nxt)
          onStack(nxt) = false; stack.remove(stack.length - 1)
        }
        j += 1
      }
    }
    onStack(source) = true; stack += source
    dfs(source)
    Option(acc)
  }
}
