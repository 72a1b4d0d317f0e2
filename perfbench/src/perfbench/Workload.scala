package perfbench

import scala.collection.mutable

import perfbench.Measure.{Metrics, Tally, log, median}

/** One benchmark workload. `setup` builds the inputs (timed as `setup_s`),
  * `round` runs one whole round of the measured operations and checks every
  * output. `traced` runs the per-layer replay instead of the plain rounds.
  *
  * Every workload's round is made of two kinds of operation, and all
  * workloads print the same metrics: the first and the second operation's
  * median time, the time and calling-thread allocation of a whole round,
  * and the set-up time. Which operations those are is the workload's own.
  */
trait Workload {
  def name: String

  /** Timings of the measured window by name; cleared after the warm-up. */
  val samples = new Samples

  /** Builds the inputs from `seed` and returns the set-up seconds of each
    * repetition.
    */
  def setup(seed: Long): Seq[Double]

  /** Runs after set-up, outside the measured window. */
  def warmUp(tally: Tally): Unit = round(tally)

  /** Runs one round, checks every output and adds the samples
    * [[Workload.FirstOp]], [[Workload.SecondOp]], [[Workload.RoundMs]] and
    * [[Workload.RoundMb]]. The round's own time and allocation leave out
    * the checks.
    */
  def round(tally: Tally): Unit

  /** Runs traced rounds until `deadline` (nanoTime) and records the
    * per-layer metrics of the layers the workload calls.
    */
  def traced(deadline: Long, tally: Tally, m: Metrics): Unit

  def close(): Unit = ()
}

object Workload {

  /** Set-up repetitions per run; `setup_s` is their median. */
  val setupReps = 3

  val FirstOp = "first_op_ms"
  val SecondOp = "second_op_ms"
  val RoundMs = "round_ms"
  val RoundMb = "round_mb"

  /** The end-to-end metrics, with their units, in the order they print. */
  val EndToEnd: Seq[(String, String)] = Seq(
    "setup_s" -> "s",
    "first_op_p50_ms" -> "ms",
    "second_op_p50_ms" -> "ms",
    "round_s" -> "s",
    "round_alloc_mb" -> "MB",
  )

  /** The per-layer metrics, with their units, in the order they print. */
  val PerLayer: Seq[(String, String)] = Seq(
    "unionfind.uf_init_ms" -> "ms",
    "unionfind.di_init_ms" -> "ms",
    "unionfind.di_init_alloc_mb" -> "MB",
    "unionfind.tracked_union_ms" -> "ms",
    "unionfind.di_update_ms" -> "ms",
    "unionfind.merges" -> "count",
    "unionfind.merged_clusters" -> "count",
    "core.diagram_rest_ms" -> "ms",
    "core.naive_union_pct" -> "%",
    "core.naive_to_clustering_pct" -> "%",
    "core.from_clusterings_pct" -> "%",
    "tables.tune_pct" -> "%",
    "emdata.generate_pct" -> "%",
    "emdata.cache_pct" -> "%",
    "matching.block_pct" -> "%",
    "matching.score_self_pct" -> "%",
    "matching.candidates" -> "count",
    "matching.pair_completeness" -> "ratio",
    "matching.candidate_precision" -> "ratio",
    "matching.score_shuffle_mb" -> "MB",
    "core.collect_pct" -> "%",
    "graph.closure_pct" -> "%",
    "graph.closure_jobs" -> "count",
    "graph.edges" -> "count",
    "graph.components" -> "count",
    "core.confusion_pct" -> "%",
    "core.confusion_jobs" -> "count",
    "spark.gc_pct" -> "%",
    "spark.spill_mb" -> "MB",
    "trace.overhead_pct" -> "%",
  )

  /** Per-layer metrics of layers that not every workload calls. A workload
    * that does not call the layer spends no share of its round there and
    * does no work in it, so these read 0 on it. Every other per-layer
    * metric, and every time, is measured on every workload.
    */
  val ZeroWhereNotCalled: Set[String] = Set(
    "core.naive_union_pct", "core.naive_to_clustering_pct", "core.from_clusterings_pct",
    "tables.tune_pct", "emdata.generate_pct", "emdata.cache_pct",
    "matching.block_pct", "matching.score_self_pct", "matching.candidates",
    "matching.pair_completeness", "matching.candidate_precision", "matching.score_shuffle_mb",
    "core.collect_pct", "graph.closure_pct", "graph.closure_jobs", "graph.edges", "graph.components",
    "core.confusion_pct", "core.confusion_jobs", "spark.gc_pct", "spark.spill_mb",
  )

  /** Runs `w`: set-up, warm-up, then whole rounds until `seconds` have
    * passed, and returns the result line.
    */
  def run(w: Workload, seed: Long, seconds: Int, trace: Boolean): String = {
    val setups = w.setup(seed)
    log(f"${w.name}: set-up ${setups.map(s => f"$s%.3f").mkString(", ")} s")
    val warm = new Tally
    w.warmUp(warm)
    w.samples.clear()
    val tally = new Tally
    val m = new Metrics
    val deadline = System.nanoTime() + seconds * 1000000000L
    if (trace) {
      w.traced(deadline, tally, m)
      ZeroWhereNotCalled.foreach(k => if (!m.values.contains(k)) m.put(k, 0.0, PerLayer.toMap.apply(k)))
    } else {
      var rounds = 0
      while (System.nanoTime() < deadline) { w.round(tally); rounds += 1 }
      log(s"${w.name}: $rounds rounds, ${tally.attempted} operations, ${tally.failed} failed")
      m.put("setup_s", median(setups), "s")
      m.put("first_op_p50_ms", w.samples.median(FirstOp), "ms")
      m.put("second_op_p50_ms", w.samples.median(SecondOp), "ms")
      m.put("round_s", w.samples.median(RoundMs) / 1e3, "s")
      m.put("round_alloc_mb", w.samples.median(RoundMb), "MB")
    }
    w.close()
    Measure.resultLine(warm.unexpected == 0 && tally.unexpected == 0, tally, m.inOrder(if (trace) PerLayer else EndToEnd))
  }
}

final class Samples {
  private val byName = mutable.Map.empty[String, mutable.ArrayBuffer[Double]]
  def add(name: String, v: Double): Unit = byName.getOrElseUpdate(name, mutable.ArrayBuffer.empty) += v
  def apply(name: String): Seq[Double] = byName.get(name).fold(Seq.empty[Double])(_.toSeq)
  def median(name: String): Double = Measure.median(apply(name))
  def clear(): Unit = byName.clear()
}
