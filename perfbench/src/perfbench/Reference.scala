package perfbench

import scala.collection.mutable

/** Confusion-matrix cells as the benchmark's own checks compute them. */
final case class Cells(tp: Long, fp: Long, fn: Long, tn: Long) {
  def pp: Long = tp + fp
  def total: Long = tp + fp + fn + tn
  def f1: Double = if (tp == 0) 0.0 else 2.0 * tp / (2.0 * tp + fp + fn)
}

object Cells {
  def of(m: repro.core.ConfusionMatrix): Cells = Cells(m.tp, m.fp, m.fn, m.tn)
}

/** Checks computed apart from the program: a few-line union-find with pair
  * counting, the diagram properties that hold whatever the sampling, the
  * tie check of threshold tuning, and an in-memory token blocking with a
  * vocabulary-discounted Jaccard. Each check returns `None` when the
  * program's output passes and a one-line reason otherwise.
  */
object Reference {

  def pairsOf(n: Long): Long = n * (n - 1) / 2

  /** Sum of C(size, 2) over the groups of equal keys. Sorts `keys`. */
  def groupPairs(keys: Array[Long]): Long = {
    java.util.Arrays.sort(keys)
    var total = 0L
    var i = 0
    while (i < keys.length) {
      var j = i + 1
      while (j < keys.length && keys(j) == keys(i)) j += 1
      total += pairsOf((j - i).toLong)
      i = j
    }
    total
  }

  /** Cluster root of every record in the closure of the pairs `(a(i), b(i))`
    * for `i < m`, over `n` records.
    */
  private def roots(n: Int, a: Array[Int], b: Array[Int], m: Int): Array[Int] = {
    val parent = Array.range(0, n)
    def find(x0: Int): Int = {
      var x = x0
      while (parent(x) != x) { parent(x) = parent(parent(x)); x = parent(x) }
      x
    }
    var i = 0
    while (i < m) {
      val ra = find(a(i)); val rb = find(b(i))
      if (ra != rb) parent(ra) = rb
      i += 1
    }
    Array.tabulate(n)(find)
  }

  /** Confusion matrix of the transitive closure of the pairs `(a(i), b(i))`
    * for `i < m` against `gold`, over `n` records.
    */
  def closureCells(n: Int, gold: Array[Int], a: Array[Int], b: Array[Int], m: Int): Cells = {
    val root = roots(n, a, b, m)
    val ep = groupPairs(root.map(_.toLong))
    val gp = groupPairs(gold.map(_.toLong))
    val tp = groupPairs(Array.tabulate(n)(r => (root(r).toLong << 32) | (gold(r) & 0xffffffffL)))
    Cells(tp, ep - tp, gp - tp, pairsOf(n.toLong) - ep - gp + tp)
  }

  /** Number of clusters of at least two records in the closure of the pairs. */
  def components(n: Int, a: Array[Int], b: Array[Int]): Int = {
    val root = roots(n, a, b, a.length)
    (a.iterator ++ b.iterator).map(root).distinct.size
  }

  /** Closure cells of every pair with `score >= t`. */
  def cellsAtThreshold(n: Int, gold: Array[Int], a: Array[Int], b: Array[Int], score: Array[Double], t: Double): Cells = {
    val idx = score.indices.filter(score(_) >= t).toArray
    closureCells(n, gold, idx.map(a), idx.map(b), idx.length)
  }

  def sameCells(what: String, program: Cells, expected: Cells): Option[String] =
    if (program == expected) None else Some(s"$what: program $program, expected $expected")

  /** Properties of an `s`-point diagram over `n` records that hold however
    * the sample points are placed: point 0 admits no match, every point's
    * cells sum to C(n,2), TP and FP never fall and FN never rises.
    */
  def diagramProblem(n: Int, s: Int, points: Seq[Cells]): Option[String] = {
    val total = pairsOf(n.toLong)
    if (points.length != s) Some(s"diagram has ${points.length} points, expected $s")
    else if (points.head.pp != 0) Some(s"point 0 admits matches: ${points.head}")
    else points.indexWhere(_.total != total) match {
      case i if i >= 0 => Some(s"point $i sums to ${points(i).total}, expected $total")
      case _ =>
        points.sliding(2).zipWithIndex.collectFirst {
          case (Seq(p, q), i) if q.tp < p.tp || q.fp < p.fp || q.fn > p.fn =>
            s"point ${i + 1} is not monotone: $p then $q"
        }
    }
  }

  /** Tie check of threshold tuning. The threshold `t` that the tuner returns
    * must deliver, through `score >= t`, an f1 at least as high as the best
    * point of the tuner's `diagram`; and it may deliver more only when that
    * best point is itself the outcome of some threshold, so that the
    * diagram promised nothing that no threshold delivers.
    */
  def tieProblem(n: Int, gold: Array[Int], a: Array[Int], b: Array[Int], score: Array[Double],
                 diagram: Seq[Cells], t: Double): Option[String] = {
    val best = diagram.maxBy(_.f1)
    val delivered = cellsAtThreshold(n, gold, a, b, score, t)
    val eps = 1e-9
    if (delivered.f1 < best.f1 - eps)
      Some(f"threshold $t%.6f delivers f1 ${delivered.f1}%.6f, the diagram promised ${best.f1}%.6f")
    else if (delivered.f1 > best.f1 + eps && !isThresholdOutcome(n, gold, a, b, score, best))
      Some(f"diagram's best point $best (f1 ${best.f1}%.6f) is no threshold's outcome; threshold $t%.6f delivers f1 ${delivered.f1}%.6f")
    else None
  }

  /** Whether some threshold `score >= t` yields exactly `target`. The
    * admitted pair count never falls as `t` falls, so a binary search over
    * the distinct scores finds the only candidate threshold.
    */
  def isThresholdOutcome(n: Int, gold: Array[Int], a: Array[Int], b: Array[Int], score: Array[Double],
                         target: Cells): Boolean = {
    val ts = (Double.PositiveInfinity +: score.distinct.sorted(Ordering.Double.TotalOrdering.reverse)).toArray
    var lo = 0; var hi = ts.length - 1
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (cellsAtThreshold(n, gold, a, b, score, ts(mid)).pp >= target.pp) hi = mid else lo = mid + 1
    }
    cellsAtThreshold(n, gold, a, b, score, ts(lo)) == target
  }

  /** Lower-cased whitespace tokens, empty ones dropped. */
  def tokens(s: String): Array[String] =
    if (s == null) Array.empty else s.toLowerCase.split("\\s+").filter(_.nonEmpty).distinct

  /** Token blocking: records sharing a token of at least `minLen` letters
    * that `vocab` knows, in a block of at most `maxBlock` records, become
    * candidates. Pairs are keyed `a * 2^32 + b` with `a < b`.
    */
  def blockingPairs(ids: Array[Long], values: Array[String], vocab: Set[String], maxBlock: Int,
                    minLen: Int = 3): mutable.LongMap[Unit] = {
    val blocks = mutable.HashMap.empty[String, mutable.ArrayBuffer[Long]]
    var r = 0
    while (r < ids.length) {
      tokens(values(r)).foreach { t =>
        if (t.length >= minLen && vocab.contains(t)) blocks.getOrElseUpdate(t, mutable.ArrayBuffer.empty) += ids(r)
      }
      r += 1
    }
    val out = mutable.LongMap.empty[Unit]
    blocks.valuesIterator.filter(_.length <= maxBlock).foreach { members =>
      for (x <- members; y <- members if x < y) out(pairKey(x, y)) = ()
    }
    out
  }

  def pairKey(a: Long, b: Long): Long = (a << 32) | b

  /** Vocabulary-discounted Jaccard: shared tokens `vocab` knows count
    * fully, unknown shared tokens count half.
    */
  def discountedJaccard(x: String, y: String, vocab: Set[String]): Double = {
    val tx = tokens(x); val ty = tokens(y)
    if (tx.isEmpty || ty.isEmpty) 0.0
    else {
      val inter = tx.filter(ty.contains)
      (inter.length + inter.count(vocab.contains)) / (2.0 * (tx.length + ty.length - inter.length))
    }
  }

  /** Weighted mean of the per-attribute similarities over the attributes
    * that are present on at least one side; one missing side scores 0.
    */
  def weightedScore(left: Seq[String], right: Seq[String], weights: Seq[Double], vocab: Set[String]): Double = {
    var num = 0.0; var den = 0.0
    var i = 0
    while (i < weights.length) {
      val l = left(i); val r = right(i)
      if (l != null || r != null) {
        den += weights(i)
        if (l != null && r != null) num += weights(i) * discountedJaccard(l, r, vocab)
      }
      i += 1
    }
    if (den > 0) num / den else 0.0
  }

  /** Compares a solution's scored candidates with the in-memory blocking and
    * scoring. The pair sets must be equal; the scores are compared on every
    * `stride`-th pair.
    */
  def scoringProblem(program: Array[(Long, Long, Double)], expectedPairs: mutable.LongMap[Unit],
                     scoreOf: (Long, Long) => Double, stride: Int): Option[String] = {
    val got = mutable.LongMap.empty[Unit]
    program.foreach { case (a, b, _) => got(pairKey(a, b)) = () }
    val missing = expectedPairs.keysIterator.find(k => !got.contains(k))
    val extra = got.keysIterator.find(k => !expectedPairs.contains(k))
    def show(k: Long) = s"(${k >>> 32}, ${k & 0xffffffffL})"
    if (got.size != program.length) Some(s"${program.length - got.size} duplicate candidate pairs")
    else if (missing.isDefined) Some(s"candidate ${show(missing.get)} missing; ${expectedPairs.size} expected, ${got.size} scored")
    else if (extra.isDefined) Some(s"candidate ${show(extra.get)} is not a blocking pair")
    else program.indices.by(stride).iterator.map(program(_)).collectFirst {
      case (a, b, s) if math.abs(s - scoreOf(a, b)) > 1e-9 => s"pair ($a, $b) scored $s, expected ${scoreOf(a, b)}"
    }
  }
}
