package perfbench

import scala.collection.mutable.ArrayBuffer

import repro.core.{MetricDiagram, ScoredMatch}
import repro.tables.Table1

import perfbench.Measure.{Metrics, Tally, log, median, timed, timedClean}

/** `table1`: Table 1's own shape. Custom diagrams (s = 100) at the Magellan
  * Songs row alternate with naïve diagrams at the FreeDB CDs row. Few matches
  * per record, so per-record set-up and the naïve rebuild do most of the work.
  */
final class Table1Workload extends Workload {
  val name = "table1"

  private val s = Table1.samplePoints

  /** A row's inputs and the closure of all its matches, computed apart. */
  private final class Input(row: Table1.Workload, seed: Long) {
    val n: Int = row.records
    val (gold, matches) = Table1.build(row.copy(seed = row.seed + 1000L * seed))
    lazy val lastPoint: Cells = Reference.closureCells(n, gold, matches.map(_.a).toArray, matches.map(_.b).toArray, matches.length)
  }

  private def row(dataset: String) = Table1.workloads.find(_.dataset == dataset).get

  private var songs: Input = _
  private var cds: Input = _
  private var cdsCustom: IndexedSeq[Cells] = _

  def setup(seed: Long): Seq[Double] = {
    val times = (1 to Workload.setupReps).map { _ =>
      songs = null; cds = null
      timedClean { songs = new Input(row("Magellan Songs"), seed); cds = new Input(row("FreeDB CDs"), seed) }.seconds
    }
    cdsCustom = MetricDiagram.custom(cds.n, cds.gold, cds.matches, s).map(Cells.of)
    times
  }

  private def diagramProblem(in: Input, points: IndexedSeq[Cells]): Option[String] =
    Reference.diagramProblem(in.n, s, points)
      .orElse(Reference.sameCells("last point", points.last, in.lastPoint))

  private def checkNaive(points: IndexedSeq[Cells]): Option[String] =
    diagramProblem(cds, points).orElse(if (points == cdsCustom) None else Some("naive differs from custom"))

  /** The first operation is a custom diagram, the second a naive one. */
  def round(tally: Tally): Unit = {
    val c = timedClean(MetricDiagram.custom(songs.n, songs.gold, songs.matches, s))
    tally.check("custom diagram", diagramProblem(songs, c.value.map(Cells.of)))
    val nv = timedClean(MetricDiagram.naive(cds.n, cds.gold, cds.matches, s))
    tally.check("naive diagram", checkNaive(nv.value.map(Cells.of)))
    samples.add(Workload.FirstOp, c.ms); samples.add(Workload.SecondOp, nv.ms)
    samples.add(Workload.RoundMs, c.ms + nv.ms); samples.add(Workload.RoundMb, c.allocMb + nv.allocMb)
    log(f"custom ${c.ms}%.1f ms, naive ${nv.ms}%.1f ms")
  }

  def traced(deadline: Long, tally: Tally, m: Metrics): Unit = {
    val plain = ArrayBuffer.empty[Double]
    val rounds = ArrayBuffer.empty[Double]
    val stages = ArrayBuffer.empty[Replay.CustomStages]
    val naive = ArrayBuffer.empty[Replay.NaiveStages]
    do {
      val c = timedClean(MetricDiagram.custom(songs.n, songs.gold, songs.matches, s))
      val nv = timedClean(MetricDiagram.naive(cds.n, cds.gold, cds.matches, s))
      plain += c.ms; rounds += c.ms + nv.ms
      tally.check("naive diagram", checkNaive(nv.value.map(Cells.of)))
      val r = Replay.custom(songs.n, songs.gold, songs.matches, s)
      stages += r
      tally.check("custom replay", diagramProblem(songs, r.points).orElse(if (r.points == c.value.map(Cells.of)) None else Some("replay differs from custom")))
      val nr = Replay.naive(cds.n, cds.gold, cds.matches, s)
      naive += nr
      tally.check("naive replay", if (nr.points == cdsCustom) None else Some("naive replay differs from the program"))
    } while (System.nanoTime() < deadline)
    Tracing.putCustom(m, plain.toSeq, stages.toSeq)
    val round = median(rounds.toSeq)
    m.put("core.naive_union_pct", Tracing.pct(median(naive.map(_.unionMs).toSeq), round), "%")
    m.put("core.naive_to_clustering_pct", Tracing.pct(median(naive.map(_.toClusteringMs).toSeq), round), "%")
    m.put("core.from_clusterings_pct", Tracing.pct(median(naive.map(_.fromClusteringsMs).toSeq), round), "%")
  }
}
