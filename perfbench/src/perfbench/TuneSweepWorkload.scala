package perfbench

import scala.collection.immutable.ArraySeq
import scala.collection.mutable.ArrayBuffer
import scala.util.Random

import repro.core.{MetricDiagram, ScoredMatch}
import repro.tables.Table3

import perfbench.Measure.{Metrics, Tally, log, median, timed, timedClean}

/** `tune-sweep`: Table 3's tuning shape. Each round runs
  * `MetricDiagram.custom` with s = 2001 and then `Table3.tuneThreshold` over
  * a gold the size of X2 and about 1.47M scored matches, 99 % of them false
  * and tied on a few tens of thousands of distinct scores, as X2's real
  * candidates are. The sort, the tracked union, the intersection update and
  * the snapshots do the work; per-record set-up is small.
  *
  * The diagram runs on an input drawn from the run's seed. The tuning runs on
  * an input of the same shape drawn from a fixed seed: it fails on the tie
  * fault of count-based sampling, and a fixed input makes it fail in every
  * run rather than on most seeds.
  */
final class TuneSweepWorkload extends Workload {
  val name = "tune-sweep"

  private val s = 2001

  private var diag: TiedInput = _
  private var tune: TiedInput = _
  private var tuneDiagram: IndexedSeq[Cells] = _
  private val tieVerdicts = scala.collection.mutable.Map.empty[Double, Option[String]]

  def setup(seed: Long): Seq[Double] = {
    val times = (1 to Workload.setupReps).map { _ =>
      diag = null
      timedClean { diag = TiedInput(seed) }.seconds
    }
    tune = TiedInput(TiedInput.tuneSeed)
    tuneDiagram = MetricDiagram.custom(tune.n, tune.gold, tune.seq, s).map(Cells.of)
    times
  }

  private def diagramProblem(points: IndexedSeq[Cells]): Option[String] =
    Reference.diagramProblem(diag.n, s, points).orElse(Reference.sameCells("last point", points.last, diag.lastPoint))

  /** The tie check of `t`; it depends only on the fixed input and `t`, so a
    * verdict is computed once per distinct threshold.
    */
  private def tieProblem(t: Double): Option[String] =
    tieVerdicts.getOrElseUpdate(t,
      Reference.diagramProblem(tune.n, s, tuneDiagram)
        .orElse(Reference.tieProblem(tune.n, tune.gold, tune.a, tune.b, tune.score, tuneDiagram, t)))

  /** The first operation is a custom diagram, the second a threshold
    * tuning.
    */
  def round(tally: Tally): Unit = {
    val c = timedClean(MetricDiagram.custom(diag.n, diag.gold, diag.seq, s))
    tally.check("custom diagram", diagramProblem(c.value.map(Cells.of)))
    val t = tuneOnce(tally)
    samples.add(Workload.FirstOp, c.ms); samples.add(Workload.SecondOp, t.ms)
    samples.add(Workload.RoundMs, c.ms + t.ms); samples.add(Workload.RoundMb, c.allocMb + t.allocMb)
    log(f"custom ${c.ms}%.1f ms, tuneThreshold ${t.ms}%.1f ms")
  }

  private def tuneOnce(tally: Tally): Measure.Timed[Double] = {
    val t = timedClean(Table3.tuneThreshold(tune.matches, tune.n, tune.gold, s))
    tally.check("tuneThreshold", tieProblem(t.value), knownFault = true)
    t
  }

  def traced(deadline: Long, tally: Tally, m: Metrics): Unit = {
    val plain = ArrayBuffer.empty[Double]
    val tunes = ArrayBuffer.empty[Double]
    val rounds = ArrayBuffer.empty[Double]
    val stages = ArrayBuffer.empty[Replay.CustomStages]
    do {
      val c = timedClean(MetricDiagram.custom(diag.n, diag.gold, diag.seq, s))
      val t = tuneOnce(tally)
      plain += c.ms; tunes += t.ms; rounds += c.ms + t.ms
      val r = Replay.custom(diag.n, diag.gold, diag.seq, s)
      stages += r
      tally.check("custom replay", diagramProblem(r.points)
        .orElse(if (r.points == c.value.map(Cells.of)) None else Some("replay differs from custom")))
    } while (System.nanoTime() < deadline)
    Tracing.putCustom(m, plain.toSeq, stages.toSeq)
    m.put("tables.tune_pct", Tracing.pct(median(tunes.toSeq), median(rounds.toSeq)), "%")
  }
}

/** A gold clustering the size of X2 (58,653 records, 4,000 clusters of 3) and
  * about 1.47M scored matches: 11,000 of the 12,000 gold pairs and 1,459,000
  * distinct false pairs. True scores fall around 0.75, false ones around
  * 0.35 with a thin tail above 0.6. Like a token Jaccard, each score is a
  * ratio i/j with a union size j between 10 and 300, so the matches tie on
  * a few tens of thousands of distinct scores, most heavily on simple ratios.
  */
final case class TiedInput(seed: Long) {
  val n = 58653
  private val rnd = new Random(seed)

  // The draws live in methods of their own: a constructor this large is
  // too big for the JIT to compile, and its loops ran interpreted.
  val gold: Array[Int] = drawGold()
  val matches: Array[ScoredMatch] = drawMatches()

  private def drawGold(): Array[Int] = {
    val perm = Array.range(0, n)
    shuffleInts(perm)
    val g = new Array[Int](n)
    var pos = 0
    while (pos < n) { g(perm(pos)) = if (pos < 3 * TiedInput.clusters) pos / 3 else pos; pos += 1 }
    g
  }

  private def drawMatches(): Array[ScoredMatch] = {
    val byCluster = Array.fill(TiedInput.clusters)(new Array[Int](3))
    val filled = new Array[Int](TiedInput.clusters)
    var r = 0
    while (r < n) {
      val c = gold(r)
      if (c < TiedInput.clusters) { byCluster(c)(filled(c)) = r; filled(c) += 1 }
      r += 1
    }
    val truePairs = byCluster.flatMap(c => Array((c(0), c(1)), (c(0), c(2)), (c(1), c(2))))
    shuffle(truePairs)
    val falseKeys = new Array[Long](TiedInput.falseMatches + TiedInput.falseMatches / 50)
    var k = 0
    while (k < falseKeys.length) {
      val a = rnd.nextInt(n); val b = rnd.nextInt(n)
      if (gold(a) != gold(b)) { falseKeys(k) = math.min(a, b).toLong * n + math.max(a, b); k += 1 }
    }
    java.util.Arrays.sort(falseKeys)
    var d = 0
    k = 0
    while (k < falseKeys.length && d < TiedInput.falseMatches) {
      if (k == 0 || falseKeys(k) != falseKeys(k - 1)) { falseKeys(d) = falseKeys(k); d += 1 }
      k += 1
    }
    require(d == TiedInput.falseMatches, "too few distinct false pairs")
    def ratio(x: Double) = {
      val den = TiedInput.minTokens + rnd.nextInt(TiedInput.maxTokens - TiedInput.minTokens + 1)
      math.round(math.min(1.0, math.max(0.0, x)) * den).toDouble / den
    }
    val out = new Array[ScoredMatch](TiedInput.trueMatches + d)
    var i = 0
    while (i < TiedInput.trueMatches) {
      val (a, b) = truePairs(i)
      out(i) = ScoredMatch(a, b, ratio(0.75 + 0.1 * rnd.nextGaussian()))
      i += 1
    }
    while (i < out.length) {
      val key = falseKeys(i - TiedInput.trueMatches)
      out(i) = ScoredMatch((key / n).toInt, (key % n).toInt, ratio(0.35 + 0.12 * rnd.nextGaussian()))
      i += 1
    }
    shuffle(out)
    out
  }

  private def shuffle[T <: AnyRef](xs: Array[T]): Unit = {
    var i = xs.length - 1
    while (i > 0) { val j = rnd.nextInt(i + 1); val x = xs(i); xs(i) = xs(j); xs(j) = x; i -= 1 }
  }

  private def shuffleInts(xs: Array[Int]): Unit = {
    var i = xs.length - 1
    while (i > 0) { val j = rnd.nextInt(i + 1); val x = xs(i); xs(i) = xs(j); xs(j) = x; i -= 1 }
  }

  val seq: IndexedSeq[ScoredMatch] = ArraySeq.unsafeWrapArray(matches)
  val a = new Array[Int](matches.length)
  val b = new Array[Int](matches.length)
  val score = new Array[Double](matches.length)
  unzip()

  private def unzip(): Unit = {
    var i = 0
    while (i < matches.length) { a(i) = matches(i).a; b(i) = matches(i).b; score(i) = matches(i).score; i += 1 }
  }
  lazy val lastPoint: Cells = Reference.closureCells(n, gold, a, b, a.length)
}

object TiedInput {
  val clusters = 4000
  val trueMatches = 11000
  val falseMatches = 1459000
  val minTokens = 10
  val maxTokens = 300
  /** Seed of the tuning input; independent of the run's seed. On this input
    * the diagram's best point falls inside a group of 58 matches tied at
    * 13/18, so the tie fault shows; on about half of the seeds the best
    * point ends a tie group and it would not.
    */
  val tuneSeed = 2L
}
