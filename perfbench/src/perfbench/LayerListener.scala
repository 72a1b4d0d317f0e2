package perfbench

import scala.collection.mutable

import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerTaskEnd}

/** Sums Spark jobs, tasks, shuffle bytes, spill, task run time and task GC
  * time per layer.
  * The benchmark names the layer of the calls it makes with [[inLayer]]; the
  * name travels with each job as a local property, so events delivered
  * later on the listener bus are still charged to the right layer.
  */
final class LayerListener(sc: SparkContext) extends SparkListener {
  import LayerListener._

  private val stageLayer = mutable.Map.empty[Int, String]
  private val totals = mutable.Map.empty[String, Totals]
  private var started = 0L
  private var ended = 0L
  private var lastEvent = System.nanoTime()

  sc.addSparkListener(this)

  def inLayer[A](layer: String)(f: => A): A = {
    sc.setLocalProperty(Key, layer)
    try f finally sc.setLocalProperty(Key, null)
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val layer = Option(e.properties).flatMap(p => Option(p.getProperty(Key))).getOrElse("other")
    e.stageIds.foreach(stageLayer(_) = layer)
    totals.getOrElseUpdate(layer, new Totals).jobs += 1
    started += 1; lastEvent = System.nanoTime()
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized { ended += 1; lastEvent = System.nanoTime() }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val t = totals.getOrElseUpdate(stageLayer.getOrElse(e.stageId, "other"), new Totals)
    t.tasks += 1
    Option(e.taskMetrics).foreach { m =>
      t.shuffleBytes += m.shuffleReadMetrics.totalBytesRead + m.shuffleWriteMetrics.bytesWritten
      t.spillBytes += m.diskBytesSpilled
      t.gcMs += m.jvmGCTime
      t.runMs += m.executorRunTime
    }
    lastEvent = System.nanoTime()
  }

  /** Waits until every job started has ended and the bus has been quiet for
    * a moment, then returns the totals per layer and clears them.
    */
  def drain(): Map[String, Totals] = {
    val give = System.nanoTime() + 30L * 1000000000L
    def quiet = synchronized(started == ended && System.nanoTime() - lastEvent > 200L * 1000000L)
    while (!quiet && System.nanoTime() < give) Thread.sleep(20)
    synchronized {
      val out = totals.toMap
      totals.clear(); stageLayer.clear()
      out
    }
  }

  def close(): Unit = sc.removeSparkListener(this)
}

object LayerListener {
  val Key = "perfbench.layer"

  final class Totals {
    var jobs = 0L
    var tasks = 0L
    var shuffleBytes = 0L
    var spillBytes = 0L
    var gcMs = 0L
    var runMs = 0L
  }
}
