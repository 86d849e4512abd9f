package evebench

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path, StandardCopyOption}
import java.util.concurrent.{Callable, Executors}

import repro.baselines.{BruteForce, JoinEnum}
import repro.core.{Deadline, DeadlineExceeded, LocalGraph}

import scala.jdk.CollectionConverters._

/** The reference answer to one query: the SPG's edge count and a
  * fingerprint of its sorted edge set.
  */
final case class Ref(s: Int, t: Int, edges: Int, fingerprint: Long) {
  def matches(sorted: Array[Long]): Boolean =
    sorted.length == edges && References.fingerprint(sorted) == fingerprint
}

/** Reference answers from an enumerator independent of EVE. `JoinEnum`
  * answers every query; `BruteForce` cross-checks each query it finishes
  * within [[CrossCheckMs]]. Both run outside every timed region, and the
  * answers are cached on disk per (workload, seed), since `wn` at k=6 costs
  * about a second per query.
  */
object References {

  val CrossCheckMs = 100L

  /** Order-sensitive 64-bit hash of a sorted encoded-edge array. */
  def fingerprint(sorted: Array[Long]): Long = {
    var h = 0x9e3779b97f4a7c15L ^ sorted.length
    var i = 0
    while (i < sorted.length) {
      var x = sorted(i) + h * 0x100000001b3L
      x = (x ^ (x >>> 33)) * 0xff51afd7ed558ccdL
      x = (x ^ (x >>> 33)) * 0xc4ceb9fe1a85ec53L
      h = x ^ (x >>> 33)
      i += 1
    }
    h
  }

  def sorted(edges: Iterable[Long]): Array[Long] = {
    val a = edges.toArray
    java.util.Arrays.sort(a)
    a
  }

  /** Cached references for `queries`, computing and storing them on a miss.
    * Returns the references and how many queries BruteForce cross-checked.
    */
  def load(cacheDir: Path, key: String, g: LocalGraph, k: Int, queries: IndexedSeq[(Int, Int)],
           threads: Int): (IndexedSeq[Ref], Int) = {
    val file = cacheDir.resolve(s"$key.refs")
    readCache(file, queries).getOrElse {
      val (refs, crossChecked) = compute(g, k, queries, threads)
      Files.createDirectories(cacheDir)
      val tmp = Files.createTempFile(cacheDir, key, ".tmp")
      val lines = s"cross_checked $crossChecked" +: refs.map(r => s"${r.s} ${r.t} ${r.edges} ${r.fingerprint}")
      Files.write(tmp, lines.asJava, UTF_8)
      Files.move(tmp, file, StandardCopyOption.REPLACE_EXISTING, StandardCopyOption.ATOMIC_MOVE)
      (refs, crossChecked)
    }
  }

  /** A cache hit only when it holds exactly these queries in this order. */
  private def readCache(file: Path, queries: IndexedSeq[(Int, Int)]): Option[(IndexedSeq[Ref], Int)] = {
    if (!Files.isRegularFile(file)) return None
    val lines = Files.readAllLines(file, UTF_8).asScala.toIndexedSeq
    val refs = lines.tail.map { l =>
      val f = l.split(' ')
      Ref(f(0).toInt, f(1).toInt, f(2).toInt, f(3).toLong)
    }
    if (refs.map(r => (r.s, r.t)) == queries) Some((refs, lines.head.split(' ')(1).toInt)) else None
  }

  private def compute(g: LocalGraph, k: Int, queries: IndexedSeq[(Int, Int)],
                      threads: Int): (IndexedSeq[Ref], Int) = {
    val pool = Executors.newFixedThreadPool(threads)
    try {
      val futures = queries.map { case (s, t) =>
        pool.submit(new Callable[(Ref, Boolean)] {
          def call(): (Ref, Boolean) = {
            val edges = sorted(JoinEnum.spg(g, s, t, k))
            val ref = Ref(s, t, edges.length, fingerprint(edges))
            val checked =
              try {
                val brute = sorted(BruteForce.spg(g, s, t, k, Deadline.in(CrossCheckMs)))
                if (!ref.matches(brute))
                  throw new IllegalStateException(s"JoinEnum and BruteForce disagree on ($s,$t,k=$k)")
                true
              } catch { case _: DeadlineExceeded => false }
            (ref, checked)
          }
        })
      }
      val done = futures.map(_.get())
      (done.map(_._1), done.count(_._2))
    } finally pool.shutdownNow()
  }
}
