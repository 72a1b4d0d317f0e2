package perfbench

import repro.core.{ConfusionMatrix, ScoredMatch}
import repro.unionfind.{DynamicIntersection, UnionFind}

import perfbench.Measure.{Metrics, median, timed}

/** Stage-by-stage replays of `MetricDiagram.custom` and `naive` through the
  * public API of `unionfind` and `ConfusionMatrix.fromClusterings`, timing
  * each stage from outside. Used only by traced runs, so a change to a
  * layer's signature stops the traced run and leaves the end-to-end runs
  * alone. Both replays sample the score-descending matches by count, as
  * the program does today; the caller checks that the replayed matrices
  * equal the program's.
  */
object Replay {

  /** Per-diagram stage totals of one replayed `custom` diagram. */
  final case class CustomStages(
      points: IndexedSeq[Cells],
      totalMs: Double,
      ufInitMs: Double,
      diInitMs: Double,
      diInitAllocMb: Double,
      trackedUnionMs: Double,
      diUpdateMs: Double,
      merges: Long,
      mergedClusters: Long,
  ) {
    def unionfindMs: Double = ufInitMs + diInitMs + trackedUnionMs + diUpdateMs

    /** Stage totals of two diagrams of one round; the points are dropped. */
    def +(o: CustomStages): CustomStages = CustomStages(IndexedSeq.empty, totalMs + o.totalMs, ufInitMs + o.ufInitMs,
      diInitMs + o.diInitMs, diInitAllocMb + o.diInitAllocMb, trackedUnionMs + o.trackedUnionMs,
      diUpdateMs + o.diUpdateMs, merges + o.merges, mergedClusters + o.mergedClusters)
  }

  final case class NaiveStages(points: IndexedSeq[Cells], unionMs: Double, toClusteringMs: Double, fromClusteringsMs: Double)

  private def bounds(m: Int, s: Int): Array[Int] = Array.tabulate(s)(i => ((i.toLong * m) / (s - 1)).toInt)

  def custom(n: Int, gold: Array[Int], matches: IndexedSeq[ScoredMatch], s: Int): CustomStages = {
    val all = timed {
      val sorted = matches.sortBy(-_.score)
      val b = bounds(sorted.length, s)
      val uf = timed(new UnionFind(n))
      val di = timed(new DynamicIntersection(gold))
      val goldPairs = Reference.groupPairs(gold.map(_.toLong))
      val total = Reference.pairsOf(n.toLong)
      def snapshot(): Cells = {
        val tp = di.value.pairCount; val ep = uf.value.pairCount
        Cells(tp, ep - tp, goldPairs - tp, total - ep - goldPairs + tp)
      }
      val points = IndexedSeq.newBuilder[Cells]
      points += snapshot()
      var unionS = 0.0; var updateS = 0.0; var merges = 0L; var merged = 0L
      var i = 1
      while (i < s) {
        val batch = sorted.view.slice(b(i - 1), b(i)).map(m => (m.a, m.b))
        val tu = timed(uf.value.trackedUnion(batch))
        val up = timed(di.value.update(tu.value))
        unionS += tu.seconds; updateS += up.seconds
        merges += tu.value.length; merged += tu.value.iterator.map(_.sources.length.toLong).sum
        points += snapshot()
        i += 1
      }
      CustomStages(points.result(), 0, uf.ms, di.ms, di.allocMb, unionS * 1e3, updateS * 1e3, merges, merged)
    }
    all.value.copy(totalMs = all.ms)
  }

  def naive(n: Int, gold: Array[Int], matches: IndexedSeq[ScoredMatch], s: Int): NaiveStages = {
    val sorted = matches.sortBy(-_.score)
    val b = bounds(sorted.length, s)
    var unionS = 0.0; var toClS = 0.0; var fromS = 0.0
    val points = (0 until s).map { i =>
      val uf = timed {
        val uf = new UnionFind(n)
        var j = 0
        while (j < b(i)) { uf.union(sorted(j).a, sorted(j).b); j += 1 }
        uf
      }
      val cl = timed(uf.value.toClustering)
      val cm = timed(ConfusionMatrix.fromClusterings(cl.value, gold))
      unionS += uf.seconds; toClS += cl.seconds; fromS += cm.seconds
      Cells.of(cm.value)
    }
    NaiveStages(points, unionS * 1e3, toClS * 1e3, fromS * 1e3)
  }
}

/** Per-layer metrics shared by the workloads. */
object Tracing {

  /** `part` as a percentage of `whole`. */
  def pct(part: Double, whole: Double): Double = part / whole * 100

  /** The `unionfind` stages, the rest of `custom` and the replay's overhead,
    * from the plain `custom` time of each round and the replayed stages of
    * the same round's diagrams.
    */
  def putCustom(m: Metrics, plainMs: Seq[Double], st: Seq[Replay.CustomStages]): Unit = {
    def med(f: Replay.CustomStages => Double) = median(st.map(f))
    m.put("unionfind.uf_init_ms", med(_.ufInitMs), "ms")
    m.put("unionfind.di_init_ms", med(_.diInitMs), "ms")
    m.put("unionfind.di_init_alloc_mb", med(_.diInitAllocMb), "MB")
    m.put("unionfind.tracked_union_ms", med(_.trackedUnionMs), "ms")
    m.put("unionfind.di_update_ms", med(_.diUpdateMs), "ms")
    m.put("unionfind.merges", st.head.merges.toDouble, "count")
    m.put("unionfind.merged_clusters", st.head.mergedClusters.toDouble, "count")
    m.put("core.diagram_rest_ms", median(plainMs) - med(_.unionfindMs), "ms")
    m.put("trace.overhead_pct", (med(_.totalMs) / median(plainMs) - 1) * 100, "%")
  }
}
