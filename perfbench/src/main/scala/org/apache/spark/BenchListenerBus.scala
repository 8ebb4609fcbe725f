package org.apache.spark

/** Waits until every event posted so far has reached the listeners, so the
  * benchmark's Spark counters are complete when a pass is read out.
  * `SparkContext.listenerBus` is package-private, hence this file's package.
  */
object BenchListenerBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty(60000L)
}
