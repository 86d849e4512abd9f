package repro.distributed

import repro.{Oracle, SparkSpec}
import repro.baselines.BruteForce
import repro.core.{Eve, LocalGraph, PaperGraph, SpgOracle}
import repro.data.GraphGen

/** The GraphX dataflow must agree with the sequential EVE (and with DuckDB)
  * on every graph it is given.
  */
class DistEveSpec extends SparkSpec {

  private def distSpg(g: LocalGraph, s: Int, t: Int, k: Int): Set[(Long, Long)] = {
    val edges = SpgOracle.edgesDf(spark, g)
    DistEve.spg(spark, edges, s, t, k).collect().map(r => (r.getLong(0), r.getLong(1))).toSet
  }

  private def localSpg(g: LocalGraph, s: Int, t: Int, k: Int): Set[(Long, Long)] =
    Eve.spg(g, s, t, k).map(e => (LocalGraph.src(e).toLong, LocalGraph.dst(e).toLong)).toSet

  for (k <- Seq(3, 4, 6, 7)) {
    test(s"paper graph: DistEve equals local EVE (k=$k)") {
      import PaperGraph._
      assert(distSpg(graph, s, t, k) == localSpg(graph, s, t, k))
    }
  }

  for (seed <- 0 until 6) {
    test(s"random graphs: DistEve equals local EVE (seed=$seed)") {
      val n = 20 + seed * 3
      val g = GraphGen.uniform(n, 3 * n, seed * 41 + 2)
      val s = seed % n; val t = (seed * 7 + 5) % n
      val k = 4 + seed % 4
      if (s != t) assert(distSpg(g, s, t, k) == localSpg(g, s, t, k), s"k=$k ($s,$t)")
    }
  }

  test("DistEve matches DuckDB on the paper graph") {
    import PaperGraph._
    val df = DistEve.spg(spark, SpgOracle.edgesDf(spark, graph), s, t, 6)
    Oracle.assertEquivalent(df, SpgOracle.sql(s, t, 6), "edges" -> SpgOracle.edgesDf(spark, graph))
  }

  test("DistEve on an unreachable pair returns an empty DataFrame") {
    val g = LocalGraph.fromEdges(4, Seq((0, 1), (2, 3)))
    assert(DistEve.spg(spark, SpgOracle.edgesDf(spark, g), 0, 3, 5).count() == 0)
  }

  test("DistEve equals brute force on a power-law graph") {
    val g = GraphGen.powerLaw(30, 90, 0.9, 17)
    val s = 1; val t = 19; val k = 6
    val exp = BruteForce.spg(g, s, t, k)
      .map(e => (LocalGraph.src(e).toLong, LocalGraph.dst(e).toLong))
    assert(distSpg(g, s, t, k) == exp)
  }

  test("DistEve compacts vertex ids above Int range, duplicate edges and self-loops") {
    val g    = GraphGen.uniform(40, 130, seed = 11)
    val base = 1L << 40
    val s = 2; val t = 17; val k = 6
    import spark.implicits._
    val raw = g.edges.map { case (u, v) => (base + u, base + v) }.toSeq
    val loops = (0 until g.n by 5).map(v => (base + v, base + v))
    val df = (raw ++ raw.take(20) ++ loops).toDF("src", "dst")
    val got = DistEve.spg(spark, df, base + s, base + t, k)
      .collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    val exp = localSpg(g, s, t, k).map { case (u, v) => (base + u, base + v) }
    assert(exp.nonEmpty && got == exp)
  }

  test("DistEve leaves no RDD cached across calls") {
    import PaperGraph._
    val edges = SpgOracle.edgesDf(spark, graph).cache()
    edges.count()
    val sc = spark.sparkContext
    val before = sc.getPersistentRDDs.keySet
    DistEve.spg(spark, edges, s, t, 6).count()
    DistEve.spg(spark, edges, s, t, 5).count()
    // Compared by id, not by count: Spark's ContextCleaner may drop RDDs
    // that other suites left cached while this test runs.
    assert(sc.getPersistentRDDs.keySet.diff(before).isEmpty)
    edges.unpersist()
  }
}
