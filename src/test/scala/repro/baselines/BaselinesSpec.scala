package repro.baselines

import repro.SparkSpec
import repro.core.{DeadlineExceeded, Eve, LocalGraph, PaperGraph}
import repro.data.GraphGen

class BaselinesSpec extends SparkSpec {

  private val enumerators: Seq[PathEnumerator] = Seq(BcDfs, JoinEnum, PathEnum)

  // --- enumeration counts vs brute force ---

  for (seed <- 0 until 12; k <- Seq(2, 4, 5, 7); e <- enumerators) {
    test(s"${e.name} count equals brute force (seed=$seed k=$k)") {
      val n = 11 + seed % 6
      val g = GraphGen.uniform(n, (2.4 * n).toInt, seed * 19 + k)
      val s = seed % n; val t = (seed * 5 + 1) % n
      if (s != t) assert(e.count(g, s, t, k) == BruteForce.count(g, s, t, k))
    }
  }

  // --- SPG via enumeration vs brute force and vs EVE ---

  for (seed <- 0 until 10; k <- Seq(3, 5, 6)) {
    test(s"all SPG generators agree (seed=$seed k=$k)") {
      val g = GraphGen.powerLaw(18, 50, 0.9, seed * 3 + k)
      val s = seed % g.n; val t = (seed * 7 + 2) % g.n
      if (s != t) {
        val exp = BruteForce.spg(g, s, t, k)
        enumerators.foreach(e => assert(e.spg(g, s, t, k) == exp, e.name))
        assert(Eve.spg(g, s, t, k).toSet == exp, "EVE")
      }
    }
  }

  // --- paths delivered by enumeration are valid simple paths ---

  /** Every emitted path is a ≤k-hop s-t simple path of `g`, and the emitted
    * paths are exactly brute force's.
    */
  private def assertValidPaths(e: PathEnumerator, g: LocalGraph, s: Int, t: Int, k: Int): Unit = {
    val paths = Seq.newBuilder[Seq[Int]]
    val n = e.enumerate(g, s, t, k) { path =>
      assert(path.head == s && path.last == t)
      assert(path.toSet.size == path.length, "repeated vertex")
      assert(path.length - 1 <= k)
      path.sliding(2).foreach(p => assert(g.hasEdge(p(0), p(1))))
      paths += path.toSeq
    }
    val emitted  = paths.result()
    val expected = BruteForce.allSimplePaths(g, s, t, k)
    assert(n == expected.size && emitted.size == expected.size)
    assert(emitted.toSet == expected.toSet)
  }

  for (e <- enumerators) {
    test(s"${e.name} emits valid ≤k simple paths on the paper graph") {
      import PaperGraph._
      assertValidPaths(e, graph, s, t, 7)
    }
  }

  test("PathEnum emits valid ≤k simple paths when its optimizer picks JOIN") {
    val n = 6
    val g = LocalGraph.fromEdges(n, for (u <- 0 until n; v <- 0 until n if u != v) yield (u, v))
    assert(PathEnum.chooseJoin(PathEnum.buildIndex(g, 0, n - 1, 5)))
    assertValidPaths(PathEnum, g, 0, n - 1, 5)
  }

  test("paper graph path census at k=4 matches Figure 1(b) structure") {
    import PaperGraph._
    // The five ≤4-hop s-t simple paths reconstructed in PaperGraph.spg4.
    assert(BruteForce.count(graph, s, t, 4) == 5)
    enumerators.foreach(e => assert(e.count(graph, s, t, 4) == 5, e.name))
  }

  test("unreachable pair: every enumerator returns zero") {
    val g = LocalGraph.fromEdges(4, Seq((0, 1), (2, 3)))
    enumerators.foreach(e => assert(e.count(g, 0, 3, 6) == 0, e.name))
  }

  test("direct edge only, k=1: exactly one path") {
    val g = LocalGraph.fromEdges(3, Seq((0, 2), (0, 1), (1, 2)))
    enumerators.foreach(e => assert(e.count(g, 0, 2, 1) == 1, e.name))
  }

  test("deadline aborts enumeration") {
    val g = GraphGen.uniform(40, 400, 13)
    val expired = System.nanoTime() - 1
    enumerators.foreach(e => intercept[DeadlineExceeded](e.count(g, 0, 1, 8, expired)))
  }

  for (e <- BruteForce +: enumerators) {
    test(s"${e.name} rejects s or t outside the graph, naming the query") {
      val g = PaperGraph.graph
      for ((s, t) <- Seq((-1, 7), (0, g.n), (g.n, 0), (0, -1))) {
        val ex = intercept[IllegalArgumentException](e.count(g, s, t, 4))
        assert(ex.getMessage.contains(s"query (s=$s, t=$t, k=4)"))
      }
    }
  }

  test("PathEnum optimizer picks DFS on sparse chains and still counts right") {
    val g = LocalGraph.fromEdges(6, Seq((0, 1), (1, 2), (2, 3), (3, 4), (4, 5)))
    val idx = PathEnum.buildIndex(g, 0, 5, 5)
    assert(!PathEnum.chooseJoin(idx))
    assert(PathEnum.count(g, 0, 5, 5) == 1)
  }

  test("PathEnum index prunes edges outside the distance window") {
    import PaperGraph._
    val idx = PathEnum.buildIndex(graph, s, t, 4)
    // e(b,j): Δ(s,b)=2, Δ(j,t)=3 -> 2+1+Δ(j,t)=6 > 4, pruned from the index.
    assert(!idx.graph.outAdj(b).contains(j))
    // e(s,c): 0+1+1 <= 4, kept.
    assert(idx.graph.outAdj(s).contains(c))
  }
}
