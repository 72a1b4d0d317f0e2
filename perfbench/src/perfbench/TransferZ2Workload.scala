package perfbench

import java.io.File

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col

import repro.core.{MetricDiagram, MetricsEngine, ScoredMatch}
import repro.emdata.{DatasetSpecs, EmGen}
import repro.matching.{AttributeRule, Blocking, MatchingSolution, WeightedRuleMatcher}
import repro.tables.Table3

import perfbench.Measure.{Metrics, Tally, log, median, timed, timedClean}

/** `transfer-z2`: a reduced Table 3 pass over Z2 (18,915 records). Each
  * pass scores Z2 with one solution of each family and materialises the
  * scores, collects and tunes them with `Table3.tuneThreshold`, and
  * evaluates each solution's cell twice: the closure of the pairs with
  * `score >= t` through `MatchingSolution.clustering`, then
  * `MetricsEngine.confusionMatrix`. The Spark layers do the work here.
  */
final class TransferZ2Workload extends Workload {
  import TransferZ2Workload._

  val name = "transfer-z2"

  private val spark = TransferZ2Workload.session()
  private val listener = new LayerListener(spark.sparkContext)

  private val families = Seq("X2" -> DatasetSpecs.x2.pool.toSet, "X3" -> DatasetSpecs.x3.pool.toSet)
  private val solutions = families.map { case (fam, vocab) =>
    val sol = Table3.solutions.find(_.family == fam).get
    val matcher = WeightedRuleMatcher(
      sol.name,
      Table3.attrs.map(a => AttributeRule(a, sol.weights(a))),
      blockingAttrs = Seq("name"),
      maxBlockSize = MaxBlock,
      knownVocab = Some(vocab),
    )
    Solution(matcher, vocab, Table3.attrs.map(sol.weights))
  }

  private var data: Data = _
  private var warmData: Data = _
  private var attrValues: Array[Array[String]] = _
  private var expected: Map[String, mutable.LongMap[Unit]] = _
  private val generateS = ArrayBuffer.empty[Double]
  private val cacheS = ArrayBuffer.empty[Double]
  private val setupS = ArrayBuffer.empty[Double]

  def setup(seed: Long): Seq[Double] = {
    val spec = DatasetSpecs.z2.copy(seed = DatasetSpecs.z2.seed + 1000L * seed)
    val times = (1 to Workload.setupReps).map { _ =>
      if (data != null) data.records.unpersist(blocking = true)
      timedClean {
        val g = timed(EmGen.generate(spark, spec))
        val c = timed(g.value.records.cache().count())
        generateS += g.seconds; cacheS += c.seconds
        data = Data(g.value.records, g.value.gold, g.value.goldArray)
      }.seconds
    }
    setupS ++= times
    val small = spec.copy(nRecords = spec.nRecords / 8, dupClusters = spec.dupClusters.map { case (k, c) => (k, c / 8) })
    val w = EmGen.generate(spark, small)
    w.records.cache().count()
    warmData = Data(w.records, w.gold, w.goldArray)
    attrValues = new Array[Array[String]](data.n)
    data.records.select((col("id") +: Table3.attrs.map(col)): _*).collect().foreach { r =>
      attrValues(r.getLong(0).toInt) = Table3.attrs.indices.map(i => r.getString(i + 1)).toArray
    }
    expected = solutions.map { s =>
      s.name -> Reference.blockingPairs(Array.tabulate(data.n)(_.toLong), attrValues.map(_(0)), s.vocab, MaxBlock)
    }.toMap
    times
  }

  /** One solution's outputs in a pass. */
  private final case class Outcome(sol: Solution, scored: Array[(Long, Long, Double)], t: Double, cells: Seq[Cells])

  /** One pass over `d` with `sols`. `stage` times each call into a layer
    * and names the layer for the listener; a traced pass also materialises
    * the blocking on its own.
    */
  private def pass(d: Data, sols: Seq[Solution], traced: Boolean, times: Samples, cellRepeats: Int = CellRepeats): Seq[Outcome] = {
    def stage[A](layer: String)(f: => A): A = {
      val r = timed(listener.inLayer(layer)(f))
      times.add(layer, r.seconds)
      r.value
    }
    val scored = sols.map { sol =>
      if (traced) stage("matching.block") {
        val c = Blocking.tokenBlocking(d.records, Seq("name"), MaxBlock, knownVocab = Some(sol.vocab)).cache()
        c.count(); c.unpersist()
      }
      sol -> stage("matching.score") { val df = sol.matcher.score(d.records).cache(); df.count(); df }
    }
    val out = scored.map { case (sol, df) =>
      val rows = stage("core.collect")(df.select(col("a"), col("b"), col("score")).collect())
        .map(r => (r.getLong(0), r.getLong(1), r.getDouble(2)))
      val matches = rows.map { case (a, b, s) => ScoredMatch(a.toInt, b.toInt, s) }
      val t = stage("tables.tune")(Table3.tuneThreshold(matches, d.n, d.goldArray))
      val cells = (1 to cellRepeats).map { _ =>
        val cell = timed {
          val cl = stage("graph.closure")(Materialised(sol.name, df).clustering(spark, d.records, t))
          stage("core.confusion")(MetricsEngine.confusionMatrix(cl, d.gold, d.n.toLong))
        }
        times.add("cell", cell.seconds)
        Cells.of(cell.value)
      }
      Outcome(sol, rows, t, cells)
    }
    scored.foreach(_._2.unpersist())
    out
  }

  /** Checks every cell and, on Z2 itself, every candidate set and a sample
    * of the scores.
    */
  private def check(tally: Tally, d: Data, outcomes: Seq[Outcome]): Unit = outcomes.foreach { o =>
    if (d eq data) tally.check(s"${o.sol.name} scoring", Reference.scoringProblem(o.scored, expected(o.sol.name),
      (x, y) => Reference.weightedScore(attrValues(x.toInt).toSeq, attrValues(y.toInt).toSeq, o.sol.weights, o.sol.vocab),
      ScoreStride))
    val expectedCells = Reference.cellsAtThreshold(d.n, d.goldArray, o.scored.map(_._1.toInt), o.scored.map(_._2.toInt), o.scored.map(_._3), o.t)
    o.cells.foreach(c => tally.check(s"${o.sol.name} cell", Reference.sameCells(f"cell at t = ${o.t}%.6f", c, expectedCells)))
  }

  /** The warm-up is the first solution's half of a pass, with one cell,
    * over a Z2-shaped dataset of an eighth of Z2's size. Its plans compile to
    * the same code and it runs the same functions as a pass over Z2. Most of
    * a pass's cost is the per-job overhead of Spark and the first compilation
    * of the code, neither of which shrinks with the data; a whole warm-up
    * pass cost 6 s more per run and left the spread of the timings as it was.
    */
  override def warmUp(tally: Tally): Unit = {
    val p = timed(pass(warmData, solutions.take(1), traced = false, new Samples, cellRepeats = 1))
    log(f"warm-up ${p.seconds}%.2f s")
    check(tally, warmData, p.value)
  }

  /** The first operation is one solution's scoring, the second one cell's
    * evaluation; a round is a whole pass.
    */
  def round(tally: Tally): Unit = plainPass(tally, CellRepeats)

  private def plainPass(tally: Tally, cellRepeats: Int): Measure.Timed[Seq[Outcome]] = {
    val times = new Samples
    val p = timedClean(pass(data, solutions, traced = false, times, cellRepeats))
    samples.add(Workload.RoundMs, p.ms); samples.add(Workload.RoundMb, p.allocMb)
    times("matching.score").foreach(x => samples.add(Workload.FirstOp, x * 1e3))
    times("cell").foreach(x => samples.add(Workload.SecondOp, x * 1e3))
    log(f"pass ${p.seconds}%.2f s, score ${times("matching.score").map(x => f"$x%.2f").mkString(" ")} s, cells ${times("cell").map(x => f"$x%.2f").mkString(" ")} s")
    check(tally, data, p.value)
    p
  }

  /** Replays each solution's tuning diagram stage by stage and returns the
    * round's stage totals with the plain `custom` time of its diagrams.
    */
  private def replayTuning(tally: Tally, outcomes: Seq[Outcome]): (Double, Replay.CustomStages) =
    outcomes.map { o =>
      val matches = o.scored.map { case (a, b, sc) => ScoredMatch(a.toInt, b.toInt, sc) }
      val s = math.min(2001, matches.length + 1)
      val c = timedClean(MetricDiagram.custom(data.n, data.goldArray, matches.toIndexedSeq, s))
      val r = Replay.custom(data.n, data.goldArray, matches.toIndexedSeq, s)
      tally.check(s"${o.sol.name} tuning replay", Reference.diagramProblem(data.n, s, r.points)
        .orElse(if (r.points == c.value.map(Cells.of)) None else Some("replay differs from custom")))
      (c.ms, r)
    }.reduce((x, y) => (x._1 + y._1, x._2 + y._2))

  def traced(deadline: Long, tally: Tally, m: Metrics): Unit = {
    val times = new Samples
    val perPass = ArrayBuffer.empty[Map[String, LayerListener.Totals]]
    val plainMs = ArrayBuffer.empty[Double]
    val customMs = ArrayBuffer.empty[Double]
    val stages = ArrayBuffer.empty[Replay.CustomStages]
    var found = 0L; var candidates = 0L
    do {
      plainMs += plainPass(tally, cellRepeats = 1).ms
      listener.drain()
      val p = timedClean(pass(data, solutions, traced = true, times, cellRepeats = 1))
      samples.add("traced", p.ms)
      perPass += listener.drain()
      check(tally, data, p.value)
      val (c, r) = replayTuning(tally, p.value)
      customMs += c; stages += r
      samples.add("candidates", p.value.map(_.scored.length.toDouble).sum)
      p.value.foreach { o =>
        candidates += o.scored.length
        found += o.scored.count { case (a, b, _) => data.goldArray(a.toInt) == data.goldArray(b.toInt) }
        val kept = o.scored.filter(_._3 >= o.t)
        samples.add("edges", kept.length)
        samples.add("components", Reference.components(data.n, kept.map(_._1.toInt), kept.map(_._2.toInt)))
      }
    } while (System.nanoTime() < deadline)
    val passes = perPass.length
    val roundS = median(plainMs.toSeq) / 1e3
    /** The layer's seconds per traced pass as a share of a plain pass. */
    def share(layer: String) = Tracing.pct(times(layer).sum / passes, roundS)
    def perCell(layer: String)(f: LayerListener.Totals => Double) =
      median(perPass.map(_.get(layer).fold(0.0)(f)).toSeq) / solutions.length
    def whole(f: LayerListener.Totals => Double) = median(perPass.map(_.valuesIterator.map(f).sum).toSeq)
    val goldPairs = Reference.groupPairs(data.goldArray.map(_.toLong))
    Tracing.putCustom(m, customMs.toSeq, stages.toSeq)
    m.put("tables.tune_pct", share("tables.tune"), "%")
    m.put("emdata.generate_pct", Tracing.pct(median(generateS.toSeq), median(setupS.toSeq)), "%")
    m.put("emdata.cache_pct", Tracing.pct(median(cacheS.toSeq), median(setupS.toSeq)), "%")
    m.put("matching.block_pct", share("matching.block"), "%")
    m.put("matching.score_self_pct", share("matching.score") - share("matching.block"), "%")
    m.put("matching.candidates", samples.median("candidates"), "count")
    m.put("matching.pair_completeness", found.toDouble / (goldPairs * times("matching.block").length), "ratio")
    m.put("matching.candidate_precision", found.toDouble / candidates, "ratio")
    m.put("matching.score_shuffle_mb", perCell("matching.score")(_.shuffleBytes / 1048576.0), "MB")
    m.put("core.collect_pct", share("core.collect"), "%")
    m.put("graph.closure_pct", share("graph.closure"), "%")
    m.put("graph.closure_jobs", perCell("graph.closure")(_.jobs.toDouble), "count")
    m.put("graph.edges", samples.median("edges"), "count")
    m.put("graph.components", samples.median("components"), "count")
    m.put("core.confusion_pct", share("core.confusion"), "%")
    m.put("core.confusion_jobs", perCell("core.confusion")(_.jobs.toDouble), "count")
    m.put("spark.gc_pct", Tracing.pct(whole(_.gcMs.toDouble), whole(_.runMs.toDouble)), "%")
    m.put("spark.spill_mb", whole(_.spillBytes / 1048576.0), "MB")
    m.put("trace.overhead_pct", (samples.median("traced") / median(plainMs.toSeq) - 1) * 100, "%")
  }

  override def close(): Unit = {
    listener.close()
    spark.stop()
  }
}

object TransferZ2Workload {

  /** Records, gold clustering and record-indexed gold of one dataset. */
  final case class Data(records: DataFrame, gold: DataFrame, goldArray: Array[Int]) {
    def n: Int = goldArray.length
  }

  /** Table 3's block cap. */
  val MaxBlock = 60

  /** Each plain pass evaluates every cell this many times. A single
    * evaluation left the first cell of a pass, often a third slower than a
    * repeat of it, as half the samples, and the spread of the cell times
    * over five seeds rose from 14 % to 22 %.
    */
  val CellRepeats = 2

  /** Every `ScoreStride`-th scored pair has its score recomputed apart. */
  val ScoreStride = 37

  final case class Solution(matcher: WeightedRuleMatcher, vocab: Set[String], weights: Seq[Double]) {
    def name: String = matcher.name
  }

  /** A solution whose scores are already materialised, so that `clustering`
    * closes the scored pairs without scoring them again.
    */
  final case class Materialised(name: String, scores: DataFrame) extends MatchingSolution {
    def score(records: DataFrame): DataFrame = scores
  }

  /** Local Spark with one worker thread per core and shuffle partitions
    * sized for Z2 (two per thread); scratch space stays in the build
    * directory.
    */
  def session(): SparkSession = {
    val threads = Runtime.getRuntime.availableProcessors()
    val scratch = new File(sys.props.getOrElse("perfbench.scratch", ".bench_build/perfbench/spark")).getAbsolutePath
    val s = SparkSession.builder
      .master(s"local[$threads]")
      .appName("perfbench")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.ui.enabled", "false")
      .config("spark.local.dir", scratch)
      .config("spark.sql.warehouse.dir", s"$scratch/warehouse")
      .config("spark.sql.shuffle.partitions", threads.toString)
      .config("spark.sql.adaptive.enabled", "false")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    log(s"spark local[$threads], $threads shuffle partitions, heap ${Runtime.getRuntime.maxMemory >> 20} MB")
    s
  }
}
