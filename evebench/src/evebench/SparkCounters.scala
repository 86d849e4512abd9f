package evebench

import org.apache.spark.{ListenerBusDrain, SparkContext}
import org.apache.spark.scheduler._

import scala.collection.mutable.ArrayBuffer

/** Job, stage, task and shuffle counts seen by a listener the benchmark
  * registers from outside the program.
  */
final case class SparkSnapshot(jobs: Long, stages: Long, tasks: Long, shuffleBytes: Long, taskMs: Vector[Long]) {
  def minus(o: SparkSnapshot): SparkSnapshot = SparkSnapshot(
    jobs - o.jobs, stages - o.stages, tasks - o.tasks, shuffleBytes - o.shuffleBytes,
    taskMs.drop(o.taskMs.length))
}

final class SparkCounters(sc: SparkContext) extends SparkListener {
  private var jobs = 0L
  private var stages = 0L
  private var tasks = 0L
  private var shuffleBytes = 0L
  private val taskMs = ArrayBuffer[Long]()

  sc.addSparkListener(this)

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized { jobs += 1 }
  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized { stages += 1 }
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    tasks += 1
    taskMs += e.taskInfo.duration
    val m = e.taskMetrics
    if (m != null) shuffleBytes += m.shuffleWriteMetrics.bytesWritten
  }

  /** Counts after every event posted so far has been delivered. */
  def snapshot(): SparkSnapshot = {
    ListenerBusDrain(sc)
    synchronized(SparkSnapshot(jobs, stages, tasks, shuffleBytes, taskMs.toVector))
  }
}
