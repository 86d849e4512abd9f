package repro.distributed

import org.apache.spark.SparkException
import repro.SparkSpec
import repro.baselines.{BcDfs, JoinEnum, PathEnum}
import repro.core.Eve
import repro.data.GraphGen

class QueryRunnerSpec extends SparkSpec {

  test("batch results match a sequential loop") {
    val g  = GraphGen.dataset("tw").build()
    val k  = 5
    val qs = GraphGen.queries(g, k, 8, seed = 77)
    val r  = QueryRunner.run(spark, g, qs, k, SpgAlgo.EveAlgo(), timeoutMs = 30000)
    assert(r.outcomes.size == qs.size)
    assert(r.timeouts == 0)
    val expected = qs.map { case (s, t) => Eve.spg(g, s, t, k).length }
    assert(r.outcomes.sortBy(o => (o.s, o.t)).map(_.edges) ==
      qs.zip(expected).map { case ((s, t), e) => (s, t, e) }.sortBy(x => (x._1, x._2)).map(_._3))
  }

  test("all algorithms agree on batch edge counts") {
    val g  = GraphGen.uniform(200, 800, 4)
    val k  = 5
    val qs = GraphGen.queries(g, k, 6, seed = 3)
    val algos = SpgAlgo.EveAlgo() +: Seq(JoinEnum, PathEnum, BcDfs).map(SpgAlgo.Enumeration)
    val results = algos.map(a => QueryRunner.run(spark, g, qs, k, a, timeoutMs = 30000))
    val counts = results.map(_.outcomes.sortBy(o => (o.s, o.t)).map(_.edges))
    assert(counts.forall(_ == counts.head),
      s"algorithms disagree: ${algos.map(_.name).zip(counts)}")
  }

  test("timeouts are reported, not thrown") {
    val g  = GraphGen.uniform(300, 4000, 8)
    val qs = GraphGen.queries(g, 8, 3, seed = 1)
    val r  = QueryRunner.run(spark, g, qs, 8, SpgAlgo.Enumeration(BcDfs), timeoutMs = 0)
    assert(r.timeouts == r.outcomes.count(_.edges == -1))
    assert(r.outcomes.size == 3)
  }

  test("totals aggregate per-query times") {
    val g  = GraphGen.dataset("tw").build()
    val qs = GraphGen.queries(g, 4, 5, seed = 11)
    val r  = QueryRunner.run(spark, g, qs, 4, SpgAlgo.EveAlgo(), timeoutMs = 30000)
    assert(r.totalNs == r.outcomes.map(_.timeNs).sum)
    assert(r.totalMs > 0)
    assert(!r.anyTimeout)
  }

  test("an empty batch returns an empty result") {
    val g = GraphGen.uniform(50, 150, 2)
    val r = QueryRunner.run(spark, g, Seq.empty, 4, SpgAlgo.EveAlgo(), timeoutMs = 1000)
    assert(r.algo == "EVE" && r.outcomes.isEmpty && r.totalNs == 0)
  }

  test("a rejected query fails the batch, naming the query") {
    val g  = GraphGen.uniform(50, 150, 2)
    val ex = intercept[SparkException](
      QueryRunner.run(spark, g, Seq((0, g.n)), 4, SpgAlgo.EveAlgo(), timeoutMs = 1000, warmup = false))
    assert(ex.getMessage.contains(s"query (s=0, t=${g.n}, k=4)"))
  }
}
