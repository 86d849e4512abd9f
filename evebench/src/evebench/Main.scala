package evebench

import java.lang.management.ManagementFactory
import java.nio.file.{Path, Paths}
import java.time.Instant

import org.apache.spark.SparkEnv
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{LocalGraph, SpgOracle}
import repro.data.GraphGen
import repro.distributed.{DistEve, QueryRunner, SpgAlgo}

import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** One fixed input set. `pool` queries come from `GraphGen.queries` with the
  * run's seed. A QueryRunner workload answers all of them per batch; a
  * DistEve workload (`distributed`) answers them one `DistEve.spg` call at a
  * time. The set-up ends with `warmup` untimed calls of the same kind: whole
  * batches, or `DistEve.spg` calls on the first queries of the pool, so that
  * the JIT has settled before the first timed call.
  */
final case class Workload(name: String, dataset: String, k: Int, pool: Int, warmup: Int, distributed: Boolean)

object Workload {
  val all: Seq[Workload] = Seq(
    // |V|-proportional per-query floor: an ~8-vertex corridor in 15 000
    // vertices, no verification (k ≤ 4). Many queries, since each is ~0.3 ms.
    Workload("sparse-tw-k4", "tw", 4, pool = 4000, warmup = 2, distributed = false),
    // The GraphX path: Pregel distances, aggregateMessages propagation,
    // triplet labeling and, at k ≥ 5, broadcast-sharded verification.
    Workload("disteve-gg-k5", "gg", 5, pool = 16, warmup = 2, distributed = true),
    // Corridor ≈ all of V, ~50 000 undetermined edges: verification,
    // ordering and boundary computation dominate. Not in BENCHMARK.json: its
    // end-to-end figures move with each seed's query mix, and JoinEnum needs
    // ~0.5-4 s per query for the references, which bounds the pool.
    Workload("dense-wn-k6", "wn", 6, pool = 32, warmup = 2, distributed = false),
  )
}

final case class Options(workload: Workload, seed: Long, seconds: Int, trace: Boolean,
                         stateDir: Path, commit: String, sourceDigest: String, startEpochNs: Long)

/** The set-up: a Spark session, the graph, the queries and, for DistEve, the
  * cached (src, dst) DataFrame, all warmed up.
  */
final class Setup(val spark: SparkSession, val g: LocalGraph, val queries: IndexedSeq[(Int, Int)],
                  val edgesDf: DataFrame, val seconds: Double, val buildS: Double, val queriesS: Double)

/** The EVE benchmark. Prints its parameters, every metric by name with its
  * unit, and as the last line one JSON object with `correct`, `attempted`,
  * `failed` and `metrics`. Exits 1 when any answer is wrong.
  */
object Main {

  val TimeoutMs = 10000L
  /** Traced queries run sequentially; at least this many, else until the time is up. */
  val MinTraced = 20
  /** Timed `DistEve.spg` calls per run, at least; each takes seconds. */
  val MinDistCalls = 3

  private val parallelism = math.min(4, Runtime.getRuntime.availableProcessors())
  private val algo = SpgAlgo.EveAlgo()

  def main(args: Array[String]): Unit = {
    val code =
      try run(parse(args))
      catch {
        case e: Throwable =>
          e.printStackTrace()
          2
      }
    SparkSession.getActiveSession.foreach(_.stop())
    System.exit(code)
  }

  private def parse(args: Array[String]): Options = {
    val m = args.grouped(2).map { case Array(k, v) => k.stripPrefix("--") -> v }.toMap
    val w = Workload.all.find(_.name == m("workload"))
      .getOrElse(sys.error(s"unknown workload ${m("workload")}"))
    Options(w, m("seed").toLong, m("seconds").toInt, m("trace") == "1", Paths.get(m("state-dir")),
      m("commit"), m("source-digest"), m("start-epoch-ns").toLong)
  }

  private def session(o: Options): SparkSession = {
    val spark = SparkSession.builder
      .master(s"local[$parallelism]")
      .appName("evebench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.warehouse.dir", o.stateDir.resolve("spark-warehouse").toString)
      .config("spark.sql.shuffle.partitions", parallelism.toString)
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    spark
  }

  def log(msg: String): Unit = Console.err.println(s"[evebench] $msg")

  private def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  /** The set-up, timed from the launcher's start (`--start-epoch-ns`, taken
    * after the build), so that JVM start, class loading and the first JIT
    * are in it. References are computed after the queries and excluded.
    */
  private def setUp(o: Options): (Setup, IndexedSeq[Ref], Int) = {
    val w = o.workload
    val now = Instant.now()
    val t0 = System.nanoTime() - (now.getEpochSecond * 1000000000L + now.getNano - o.startEpochNs)
    val spark = session(o)
    val sessionS = secondsSince(t0)
    val b0 = System.nanoTime()
    val g = GraphGen.dataset(w.dataset).build()
    val buildS = secondsSince(b0)
    val q0 = System.nanoTime()
    val queries = GraphGen.queries(g, w.k, w.pool, o.seed).toIndexedSeq
    val queriesS = secondsSince(q0)
    val r0 = System.nanoTime()
    val key = s"${w.name}-${w.dataset}-${g.n}-${g.m}-k${w.k}-n${w.pool}-seed${o.seed}"
    val (refs, crossChecked) = References.load(o.stateDir.resolve("refs"), key, g, w.k, queries, parallelism)
    val refsNs = System.nanoTime() - r0
    val w0 = System.nanoTime()
    val edgesDf =
      if (w.distributed) {
        val df = SpgOracle.edgesDf(spark, g).cache()
        df.count()
        queries.take(w.warmup).foreach { case (s, t) => DistEve.spg(spark, df, s, t, w.k).count() }
        df
      } else {
        (1 to w.warmup).foreach(_ => QueryRunner.run(spark, g, queries, w.k, algo, TimeoutMs, warmup = false))
        null
      }
    val su = new Setup(spark, g, queries, edgesDf, (System.nanoTime() - t0 - refsNs) / 1e9, buildS, queriesS)
    log(f"set-up: ${su.seconds}%.2f s (to Spark session $sessionS%.2f s, graph $buildS%.2f s, " +
      f"queries $queriesS%.2f s, warm-up ${secondsSince(w0)}%.2f s; references ${refsNs / 1e9}%.2f s excluded)")
    (su, refs, crossChecked)
  }

  /** Failure tally; every attempt is either answered correctly or failed. */
  final class Tally {
    var attempted = 0
    var failed = 0
    val problems = ArrayBuffer[String]()
    def record(ok: Boolean, what: => String): Unit = {
      attempted += 1
      if (!ok) { failed += 1; if (problems.length < 10) problems += what }
    }
  }

  /** Closed loop: QueryRunner answers the whole batch, then the next batch
    * starts, until the time is up.
    */
  final case class BatchRun(queryNs: Vector[Long], wallNs: Vector[Long], batchTasks: Vector[Vector[Long]],
                            gcMs: Long)

  private def runBatches(o: Options, su: Setup, refs: IndexedSeq[Ref], tally: Tally, windowNs: Long,
                         counters: Option[SparkCounters]): BatchRun = {
    val times = ArrayBuffer[Long]()
    val walls = ArrayBuffer[Long]()
    val tasks = ArrayBuffer[Vector[Long]]()
    val gc0 = gcMs()
    val t0 = System.nanoTime()
    do {
      val before = counters.map(_.snapshot())
      val b0 = System.nanoTime()
      val res = try Some(QueryRunner.run(su.spark, su.g, su.queries, o.workload.k, algo, TimeoutMs, warmup = false))
        catch { case e: Exception => e.printStackTrace(); None }
      walls += System.nanoTime() - b0
      log(f"batch ${walls.length}: ${walls.last / 1e9}%.3f s")
      for (c <- counters; b <- before) tasks += c.snapshot().minus(b).taskMs
      res match {
        case None => su.queries.foreach(q => tally.record(ok = false, s"batch failed at $q"))
        case Some(r) =>
          su.queries.indices.foreach { i =>
            val out = r.outcomes(i); val ref = refs(i)
            tally.record(!out.timedOut && out.s == ref.s && out.t == ref.t && out.edges == ref.edges,
              s"(${ref.s},${ref.t}) QueryRunner edges=${out.edges} timedOut=${out.timedOut} reference=${ref.edges}")
            times += out.timeNs
          }
      }
    } while (System.nanoTime() - t0 < windowNs)
    BatchRun(times.toVector, walls.toVector, tasks.toVector, gcMs() - gc0)
  }

  /** One `DistEve.spg(..).count()`, from the cached (src, dst) DataFrame. */
  final case class DistCall(ns: Long, delta: SparkSnapshot, persisted: Int)

  /** Calls cycling through the pool until the window has passed and at least
    * [[MinDistCalls]] were made. Cached RDDs are left in place between calls,
    * so that what `DistEve.spg` itself leaves cached shows in `persisted`.
    */
  private def runDistEve(o: Options, su: Setup, refs: IndexedSeq[Ref], tally: Tally, windowNs: Long,
                         counters: Option[SparkCounters]): Vector[DistCall] = {
    val calls = ArrayBuffer[DistCall]()
    val t0 = System.nanoTime()
    while (calls.length < MinDistCalls || System.nanoTime() - t0 < windowNs) {
      val ref = refs(calls.length % refs.length)
      val before = counters.map(_.snapshot())
      val c0 = System.nanoTime()
      val count = try DistEve.spg(su.spark, su.edgesDf, ref.s, ref.t, o.workload.k).count()
        catch { case e: Exception => e.printStackTrace(); -1L }
      val ns = System.nanoTime() - c0
      log(f"DistEve (${ref.s},${ref.t}) edges=$count ${ns / 1e9}%.2f s")
      tally.record(count == ref.edges, s"(${ref.s},${ref.t}) DistEve edges=$count reference=${ref.edges}")
      val delta = (for (c <- counters; b <- before) yield c.snapshot().minus(b))
        .getOrElse(SparkSnapshot(0, 0, 0, 0, Vector.empty))
      calls += DistCall(ns, delta, su.spark.sparkContext.getPersistentRDDs.size)
    }
    calls.toVector
  }

  private def gcMs(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum

  def median(xs: Seq[Double]): Double = percentile(xs, 0.5)

  /** Linear interpolation between order statistics (as numpy's default). */
  def percentile(xs: Seq[Double], p: Double): Double = {
    if (xs.isEmpty) return 0.0
    val s = xs.sorted.toIndexedSeq
    val pos = p * (s.length - 1)
    val lo = math.floor(pos).toInt
    val hi = math.min(lo + 1, s.length - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  private def ms(ns: Seq[Long]): Seq[Double] = ns.map(_ / 1e6)

  private def run(o: Options): Int = {
    val (su, refs, crossChecked) = setUp(o)
    val spark = su.spark
    printParams(o, su, crossChecked)

    val tally = new Tally
    val metrics =
      if (!o.trace) endToEnd(o, su, refs, tally)
      else perLayer(o, su, refs, tally)

    val correct = tally.failed == 0
    tally.problems.foreach(p => println(s"wrong answer: $p"))
    metrics.foreach { case (name, (value, unit)) => println(f"$name%-36s $value%.6f $unit") }
    println(f"fail_frac ${tally.failed.toDouble / math.max(1, tally.attempted)}%.6f (${tally.failed} of ${tally.attempted})")
    println(Json.result(correct, tally.attempted, tally.failed, metrics))
    spark.stop()
    if (correct) 0 else 1
  }

  type Metrics = Seq[(String, (Double, String))]

  private def endToEnd(o: Options, su: Setup, refs: IndexedSeq[Ref], tally: Tally): Metrics = {
    val windowNs = o.seconds * 1000000000L
    // Throughput per timed call (median), so that a short stall of the
    // machine moves one sample only.
    val (queryMs, qps) =
      if (o.workload.distributed) {
        val calls = runDistEve(o, su, refs, tally, windowNs, None)
        (ms(calls.map(_.ns)), median(calls.map(c => 1e9 / c.ns)))
      } else {
        val b = runBatches(o, su, refs, tally, windowNs, None)
        (ms(b.queryNs), median(b.wallNs.map(ns => su.queries.length * 1e9 / ns)))
      }
    Seq(
      "query_p50_ms" -> (percentile(queryMs, 0.5), "ms"),
      "query_p95_ms" -> (percentile(queryMs, 0.95), "ms"),
      "batch_qps" -> (qps, "1/s"),
      "setup_s" -> (su.seconds, "s"),
    )
  }

  private def perLayer(o: Options, su: Setup, refs: IndexedSeq[Ref], tally: Tally): Metrics = {
    val w = o.workload
    val counters = new SparkCounters(su.spark.sparkContext)
    // The timed pass with counters, then the sequential traced pass, each
    // over a quarter of the window, which leaves time for the references.
    val quarterNs = o.seconds * 250000000L

    var busy, skew, gcPerBatch, runnerP50 = 0.0
    var calls = Vector.empty[DistCall]
    if (w.distributed) {
      calls = runDistEve(o, su, refs, tally, quarterNs, Some(counters))
      println(s"DistEve.persisted_rdds after each call: ${calls.map(_.persisted).mkString(" ")}")
      // Only QueryRunner has compiled the local path so far.
      refs.foreach(r => Trace.query(su.g, r.s, r.t, w.k, new LayerTotals))
    } else {
      val b = runBatches(o, su, refs, tally, quarterNs, Some(counters))
      // Σ per-query time over the task slots the batches held for their wall time.
      val slotNs = b.wallNs.zip(b.batchTasks).map { case (wall, tasks) => wall.toDouble * tasks.length }.sum
      busy = b.queryNs.sum / slotNs
      skew = median(b.batchTasks.filter(_.nonEmpty).map(t => t.max.toDouble / (t.sum.toDouble / t.length)))
      gcPerBatch = b.gcMs.toDouble / b.wallNs.length
      runnerP50 = percentile(ms(b.queryNs), 0.5)
    }
    def perCall(f: DistCall => Double): Double = if (calls.isEmpty) 0.0 else median(calls.map(f))

    // Sequential traced pass on this thread, outside Spark.
    val tot = new LayerTotals
    val t0 = System.nanoTime()
    var i = 0
    while (i < refs.length && (i < MinTraced || System.nanoTime() - t0 < quarterNs)) {
      val ref = refs(i)
      val (traced, untraced) = Trace.query(su.g, ref.s, ref.t, w.k, tot)
      tally.record(java.util.Arrays.equals(traced, untraced) && ref.matches(traced),
        s"(${ref.s},${ref.t}) traced=${traced.length} Eve.run=${untraced.length} reference=${ref.edges}")
      i += 1
    }

    val q = math.max(1, tot.queries).toDouble
    def perQ(ns: Long): Double = ns / 1e6 / q
    def kb(bytes: Long): Double = bytes / 1024.0 / q
    val seqP50 = percentile(ms(tot.untracedNs.toSeq), 0.5)
    roleCheck(w, tot)

    Seq(
      "Bfs.distances.ms" -> (perQ(tot.bfsNs), "ms"),
      "Bfs.alloc_kb" -> (kb(tot.bfsAlloc), "KiB"),
      "Bfs.ball_vertices" -> (tot.ball / q, "count"),
      "Bfs.corridor_vertices" -> (tot.corridor / q, "count"),
      "Bfs.corridor_ratio" -> (ratio(tot.corridor, tot.ball), "ratio"),
      "EssentialVertices.fwd_ms" -> (perQ(tot.fwdNs), "ms"),
      "EssentialVertices.bwd_ms" -> (perQ(tot.bwdNs), "ms"),
      "EssentialVertices.alloc_kb" -> (kb(tot.evAlloc), "KiB"),
      "EssentialVertices.reached_vertices" -> (tot.reached / q, "count"),
      "EdgeLabeling.upperBound.ms" -> (perQ(tot.labelNs), "ms"),
      "EdgeLabeling.alloc_kb" -> (kb(tot.labelAlloc), "KiB"),
      "EdgeLabeling.window_edges" -> (tot.window / q, "count"),
      "EdgeLabeling.spgu_edges" -> (tot.spgu / q, "count"),
      "EdgeLabeling.undetermined_edges" -> (tot.undetermined / q, "count"),
      "Boundary.compute.ms" -> (perQ(tot.boundaryNs), "ms"),
      "Boundary.departures" -> (tot.departures / q, "count"),
      "Boundary.arrivals" -> (tot.arrivals / q, "count"),
      "Verifier.order_ms" -> (perQ(tot.orderNs), "ms"),
      "Verifier.verify.ms" -> (perQ(tot.verifyNs), "ms"),
      "Verifier.alloc_kb" -> (kb(tot.verifierAlloc), "KiB"),
      "Verifier.confirmed_ratio" -> (ratio(tot.witnessed, tot.undetermined), "ratio"),
      "Eve.run.seq_p50_ms" -> (seqP50, "ms"),
      "trace.overhead_ms" -> (percentile(ms(tot.tracedNs.toSeq), 0.5) - seqP50, "ms"),
      "QueryRunner.busy_frac" -> (busy, "ratio"),
      "QueryRunner.task_skew" -> (skew, "ratio"),
      "QueryRunner.contention_ratio" -> (if (seqP50 > 0) runnerP50 / seqP50 else 0.0, "ratio"),
      "jvm.gc_ms" -> (gcPerBatch, "ms"),
      "DistEve.jobs" -> (perCall(_.delta.jobs.toDouble), "count"),
      "DistEve.stages" -> (perCall(_.delta.stages.toDouble), "count"),
      "DistEve.tasks" -> (perCall(_.delta.tasks.toDouble), "count"),
      "DistEve.shuffle_mb" -> (perCall(_.delta.shuffleBytes / 1048576.0), "MiB"),
      "DistEve.persisted_rdds" -> (calls.lastOption.map(_.persisted.toDouble).getOrElse(0.0), "count"),
      "GraphGen.build_s" -> (su.buildS, "s"),
      "GraphGen.queries_s" -> (su.queriesS, "s"),
      "LocalGraph.bytes" -> (SparkEnv.get.serializer.newInstance().serialize(su.g).remaining().toDouble, "B"),
    )
  }

  private def ratio(a: Long, b: Long): Double = if (b == 0) 0.0 else a.toDouble / b

  /** Prints whether the traced run shows the layer each workload was chosen
    * to stress. Informational: a later optimisation may rightly move it.
    */
  private def roleCheck(w: Workload, tot: LayerTotals): Unit = {
    val total = tot.tracedTotalNs.toDouble
    val layers = Seq("Bfs" -> tot.bfsNs, "EssentialVertices" -> (tot.fwdNs + tot.bwdNs),
      "EdgeLabeling" -> tot.labelNs, "Boundary" -> tot.boundaryNs, "Verifier" -> (tot.orderNs + tot.verifyNs))
    println("traced time share per layer: " +
      layers.map { case (n, ns) => f"$n=${ns / math.max(1.0, total)}%.3f" }.mkString(" "))
    val largest = layers.maxBy(_._2)._1
    def verdict(ok: Boolean): String = if (ok) "ok" else "NOT MET"
    val share = tot.verifierAndBoundaryNs / math.max(1.0, total)
    w.name match {
      case "dense-wn-k6" =>
        println(f"role check: Verifier+Boundary share $share%.3f >= 0.5: ${verdict(share >= 0.5)}")
      case "sparse-tw-k4" =>
        println(s"role check: Verifier+Boundary time ${tot.verifierAndBoundaryNs} ns == 0: " +
          verdict(tot.verifierAndBoundaryNs == 0))
        println(s"role check: largest layer $largest == Bfs: ${verdict(largest == "Bfs")}")
      case _ =>
        println(s"largest local layer: $largest")
    }
  }

  private def printParams(o: Options, su: Setup, crossChecked: Int): Unit = {
    val w = o.workload
    val sc = su.spark.sparkContext
    val params = Seq(
      "workload" -> w.name, "dataset" -> w.dataset, "vertices" -> su.g.n, "edges" -> su.g.m, "k" -> w.k,
      "seed" -> o.seed, "queries" -> su.queries.length, "warmup_calls" -> w.warmup,
      "timeout_ms" -> TimeoutMs, "seconds" -> o.seconds, "trace" -> o.trace,
      "references" -> "JoinEnum.spg", "bruteforce_cross_checked" -> crossChecked,
      "nproc" -> Runtime.getRuntime.availableProcessors(), "spark_master" -> sc.master,
      "spark_version" -> su.spark.version, "heap_max_mb" -> Runtime.getRuntime.maxMemory / 1048576,
      "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}",
      "jvm_args" -> ManagementFactory.getRuntimeMXBean.getInputArguments.asScala.mkString(" "),
      "gc" -> ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getName).mkString(", "),
      "git_commit" -> o.commit, "source_sha256" -> o.sourceDigest,
    )
    println(Json.obj(Seq("params" -> Json.obj(params))).json)
  }
}

/** Minimal JSON writer for flat records. */
object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    } + "\""

  def value(v: Any): String = v match {
    case s: String => str(s)
    case d: Double => if (d.isNaN || d.isInfinite) "null" else d.toString
    case b: Boolean => b.toString
    case n: Number => n.toString
    case raw: Raw => raw.json
    case other => str(other.toString)
  }

  final case class Raw(json: String)

  def obj(fields: Seq[(String, Any)]): Raw =
    Raw(fields.map { case (k, v) => s"${str(k)}: ${value(v)}" }.mkString("{", ", ", "}"))

  def result(correct: Boolean, attempted: Int, failed: Int, metrics: Main.Metrics): String =
    obj(Seq(
      "correct" -> correct, "attempted" -> attempted, "failed" -> failed,
      "metrics" -> obj(metrics.map { case (n, (v, u)) => n -> obj(Seq("value" -> v, "unit" -> u)) }),
    )).json
}
