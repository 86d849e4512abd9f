package org.apache.spark

/** Waits until every Spark event posted so far has reached the registered
  * listeners. The listener bus is private to Spark; this object lives in
  * Spark's package only to reach it, so that counters read after an action
  * include all of that action's jobs, stages and tasks.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
