package repro.core

import repro.SparkSpec

class LocalGraphSpec extends SparkSpec {

  test("fromEdges deduplicates parallel edges") {
    val g = LocalGraph.fromEdges(3, Seq((0, 1), (0, 1), (1, 2)))
    assert(g.m == 2)
    assert(g.outAdj(0).toSeq == Seq(1))
  }

  test("fromEdges drops self-loops") {
    val g = LocalGraph.fromEdges(3, Seq((0, 0), (0, 1), (2, 2)))
    assert(g.m == 1)
    assert(g.edges.toSeq == Seq((0, 1)))
  }

  test("fromEdges rejects out-of-range endpoints") {
    intercept[IllegalArgumentException](LocalGraph.fromEdges(2, Seq((0, 5))))
  }

  test("adjacency is sorted both ways") {
    val g = LocalGraph.fromEdges(5, Seq((0, 4), (0, 2), (0, 3), (4, 1), (2, 1), (3, 1)))
    assert(g.outAdj(0).toSeq == Seq(2, 3, 4))
    assert(g.inAdj(1).toSeq == Seq(2, 3, 4))
  }

  test("reverse swaps adjacency") {
    val g = PaperGraph.graph
    val r = g.reverse
    assert(r.outAdj(PaperGraph.t).toSeq == g.inAdj(PaperGraph.t).toSeq)
    assert(r.m == g.m)
    assert(r.reverse.edges.toSet == g.edges.toSet)
  }

  test("degrees and counts on the paper graph") {
    val g = PaperGraph.graph
    assert(g.n == 8)
    assert(g.m == 14)
    assert(g.outDeg(PaperGraph.a) == 3)
    assert(g.inDeg(PaperGraph.b) == 2)
    assert(g.maxDeg == 3)
    assert(math.abs(g.avgDeg - 14.0 / 8) < 1e-9)
  }

  test("hasEdge agrees with the edge list") {
    val g = PaperGraph.graph
    for (u <- 0 until g.n; v <- 0 until g.n)
      assert(g.hasEdge(u, v) == PaperGraph.edges.contains((u, v)), s"($u,$v)")
  }

  test("encodedEdges round-trips through enc/src/dst") {
    val g = PaperGraph.graph
    val decoded = g.encodedEdges.map(e => (LocalGraph.src(e), LocalGraph.dst(e))).toSet
    assert(decoded == PaperGraph.edges.toSet)
  }

  test("enc/src/dst round-trip on extreme ids") {
    for ((u, v) <- Seq((0, 0), (1, Int.MaxValue), (Int.MaxValue, 7), (123456789, 987654321))) {
      val e = LocalGraph.enc(u, v)
      assert(LocalGraph.src(e) == u && LocalGraph.dst(e) == v)
    }
  }

  for (seed <- 0 until 10) {
    test(s"orderedBy: permutation, ascending in key, stable on ties (seed=$seed)") {
      val rnd = new scala.util.Random(seed)
      val adj = Array.fill(20)(rnd.shuffle((0 until 40).toVector).take(rnd.nextInt(12)).toArray)
      val key: Int => Long = w => (w % 4).toLong
      val ordered = LocalGraph.orderedBy(adj, key)
      for ((in, out) <- adj.zip(ordered)) {
        assert(out.sorted.toSeq == in.sorted.toSeq, "not a permutation")
        for (i <- 1 until out.length) {
          assert(key(out(i - 1)) <= key(out(i)), s"key order at $i")
          if (key(out(i - 1)) == key(out(i)))
            assert(in.indexOf(out(i - 1)) < in.indexOf(out(i)), s"tie order at $i")
        }
      }
    }
  }

  test("VSet.intersect over sorted arrays") {
    assert(VSet.intersect(Array(1, 3, 5), Array(2, 3, 5, 7)).toSeq == Seq(3, 5))
    assert(VSet.intersect(Array(1, 2), Array(3, 4)).toSeq == Seq.empty)
    assert(VSet.intersect(Array.emptyIntArray, Array(1)).toSeq == Seq.empty)
  }

  test("VSet.add keeps order and avoids duplicates") {
    assert(VSet.add(Array(1, 3), 2).toSeq == Seq(1, 2, 3))
    assert(VSet.add(Array(1, 3), 0).toSeq == Seq(0, 1, 3))
    assert(VSet.add(Array(1, 3), 4).toSeq == Seq(1, 3, 4))
    val a = Array(1, 3)
    assert(VSet.add(a, 3) eq a)
  }

  test("VSet.disjoint and contains") {
    assert(VSet.disjoint(Array(1, 4), Array(2, 3, 5)))
    assert(!VSet.disjoint(Array(1, 4), Array(4)))
    assert(VSet.contains(Array(1, 4, 9), 9))
    assert(!VSet.contains(Array(1, 4, 9), 5))
  }
}
