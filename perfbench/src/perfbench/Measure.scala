package perfbench

import java.lang.management.ManagementFactory

import scala.collection.mutable

/** Clocks, allocation counters and the result line. */
object Measure {

  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** Bytes allocated so far by the calling thread. */
  def allocatedBytes(): Long = threads.getThreadAllocatedBytes(Thread.currentThread().getId)

  final case class Timed[A](value: A, seconds: Double, allocMb: Double) {
    def ms: Double = seconds * 1e3
  }

  /** Runs `f` and returns its value with its wall time and the megabytes the
    * calling thread allocated meanwhile.
    */
  def timed[A](f: => A): Timed[A] = {
    val b0 = allocatedBytes()
    val t0 = System.nanoTime()
    val a = f
    val t1 = System.nanoTime()
    Timed(a, (t1 - t0) / 1e9, (allocatedBytes() - b0) / 1048576.0)
  }

  /** Runs `f` after a full collection, so that no garbage of earlier
    * operations is collected on its clock.
    */
  def timedClean[A](f: => A): Timed[A] = {
    System.gc()
    timed(f)
  }

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  private val started = System.nanoTime()

  def log(msg: String): Unit = Console.err.println(f"[perfbench ${(System.nanoTime() - started) / 1e9}%7.2f s] $msg")

  /** Operations attempted and failed, with the first few failure reasons
    * written to standard error. A failure of an operation that a known
    * program fault makes fail every time counts as failed but not as
    * `unexpected`; any other failure makes the run incorrect.
    */
  final class Tally {
    var attempted = 0L
    var failed = 0L
    var unexpected = 0L
    private val reported = mutable.Set.empty[String]
    def check(what: String, problem: Option[String], knownFault: Boolean = false): Unit = {
      attempted += 1
      problem.foreach { p =>
        failed += 1
        if (!knownFault) unexpected += 1
        if (reported.size < 5 && reported.add(what)) log(s"FAILED $what${if (knownFault) " (known fault)" else ""}: $p")
      }
    }
  }

  /** Metric name -> (value, unit), in insertion order. */
  final class Metrics {
    val values = mutable.LinkedHashMap.empty[String, (Double, String)]
    def put(name: String, value: Double, unit: String): Unit = values(name) = (value, unit)

    /** The metrics `expected` names, in its order; fails unless they are
      * exactly the recorded ones, each in its unit.
      */
    def inOrder(expected: Seq[(String, String)]): Metrics = {
      val missing = expected.filterNot { case (k, u) => values.get(k).exists(_._2 == u) }
      val extra = values.keySet -- expected.map(_._1)
      require(missing.isEmpty && extra.isEmpty,
        s"metrics differ from the manifest: missing or in another unit ${missing.map(_._1).mkString(", ")}; not in it ${extra.mkString(", ")}")
      val out = new Metrics
      expected.foreach { case (k, _) => out.values(k) = values(k) }
      out
    }
  }

  /** The last line of standard output: one JSON object. */
  def resultLine(correct: Boolean, tally: Tally, metrics: Metrics): String = {
    val ms = metrics.values.map { case (k, (v, u)) =>
      require(!v.isNaN && !v.isInfinite, s"metric $k is $v")
      s""""$k": {"value": ${java.lang.Double.toString(v)}, "unit": "$u"}"""
    }
    s"""{"correct": $correct, "attempted": ${tally.attempted}, "failed": ${tally.failed}, "metrics": {${ms.mkString(", ")}}}"""
  }
}
