package perfbench

import scala.collection.immutable.ArraySeq

import repro.core.{MetricDiagram, ScoredMatch}
import repro.emdata.{DatasetSpecs, EmGen}
import repro.matching.{AttributeRule, WeightedRuleMatcher}
import repro.tables.{Table1, Table3}

/** The benchmark's own tests: every check accepts the program's correct
  * output and rejects a perturbed one. No timing is asserted. Run with
  * `bash perfbench/run.sh selftest`; exits non-zero when a test fails.
  */
object SelfTest {

  private var failures = 0

  private def test(name: String)(body: => Unit): Unit =
    try { body; println(s"ok   $name") }
    catch { case e: Throwable => failures += 1; println(s"FAIL $name: $e") }

  private def expect(cond: Boolean, what: => String): Unit = if (!cond) throw new AssertionError(what)
  private def passes(p: Option[String]): Unit = expect(p.isEmpty, s"check rejected correct output: ${p.get}")
  private def rejects(p: Option[String]): Unit = expect(p.isDefined, "check accepted a wrong output")

  /** ROADMAP's tie example: gold {0,1},{2,3}; two matches tied at 0.9. */
  private val tieGold = Array(0, 0, 1, 1)
  private def tieMatches(second: Double) =
    Array(ScoredMatch(0, 1, 0.9), ScoredMatch(2, 3, second), ScoredMatch(0, 2, 0.5))

  private def tieCheck(matches: Array[ScoredMatch], s: Int): Option[String] = {
    val diagram = MetricDiagram.custom(4, tieGold, ArraySeq.unsafeWrapArray(matches), s).map(Cells.of)
    val t = Table3.tuneThreshold(matches, 4, tieGold, s)
    Reference.tieProblem(4, tieGold, matches.map(_.a), matches.map(_.b), matches.map(_.score), diagram, t)
  }

  def main(args: Array[String]): Unit = {
    val small = TiedInput(5)
    val smallN = small.n

    test("closure cells match the program's last diagram point") {
      val points = MetricDiagram.custom(smallN, small.gold, small.seq, 11).map(Cells.of)
      passes(Reference.sameCells("last point", points.last, small.lastPoint))
      rejects(Reference.sameCells("last point", points.last.copy(tp = points.last.tp - 1, fn = points.last.fn + 1), small.lastPoint))
    }

    test("diagram properties accept the program's diagram and reject perturbed ones") {
      val points = MetricDiagram.custom(smallN, small.gold, small.seq, 11).map(Cells.of)
      passes(Reference.diagramProblem(smallN, 11, points))
      rejects(Reference.diagramProblem(smallN, 12, points))
      rejects(Reference.diagramProblem(smallN, 11, points.updated(0, points(0).copy(fp = 1, tn = points(0).tn - 1))))
      rejects(Reference.diagramProblem(smallN, 11, points.updated(5, points(5).copy(tp = points(5).tp + 1))))
      val p = points(5)
      rejects(Reference.diagramProblem(smallN, 11, points.updated(5, p.copy(tp = points(4).tp - 1, fn = p.fn + p.tp - points(4).tp + 1))))
    }

    test("naive equals custom on the FreeDB CDs row") {
      val (gold, matches) = Table1.build(Table1.workloads.find(_.dataset == "FreeDB CDs").get)
      expect(MetricDiagram.naive(gold.length, gold, matches, 100) == MetricDiagram.custom(gold.length, gold, matches, 100),
        "naive and custom differ")
    }

    test("tie check fails on the three-match example") {
      rejects(tieCheck(tieMatches(0.9), 3))
    }

    test("tie check passes on untied scores") {
      passes(tieCheck(tieMatches(0.8), 3))
      val (gold, cora) = Table1.build(Table1.workloads.find(_.dataset == "HPI Cora").get)
      val untied = cora.groupBy(_.score).valuesIterator.collect { case Seq(m) => m }.toArray
      val diagram = MetricDiagram.custom(gold.length, gold, ArraySeq.unsafeWrapArray(untied), 2001).map(Cells.of)
      val t = Table3.tuneThreshold(untied, gold.length, gold, 2001)
      passes(Reference.tieProblem(gold.length, gold, untied.map(_.a), untied.map(_.b), untied.map(_.score), diagram, t))
    }

    test("cells at a threshold reject a perturbed matrix") {
      val t = 0.7
      val cells = Reference.cellsAtThreshold(smallN, small.gold, small.a, small.b, small.score, t)
      val admitted = small.matches.filter(_.score >= t)
      val byProgram = MetricDiagram.custom(smallN, small.gold, ArraySeq.unsafeWrapArray(admitted), 2).map(Cells.of).last
      passes(Reference.sameCells("cell", byProgram, cells))
      rejects(Reference.sameCells("cell", byProgram.copy(fp = byProgram.fp + 1, tn = byProgram.tn - 1), cells))
    }

    test("in-memory blocking and scoring reproduce the matcher; a dropped or rescored pair is rejected") {
      val spark = TransferZ2Workload.session()
      try {
        val spec = DatasetSpecs.tiny(400)
        val d = EmGen.generate(spark, spec)
        val vocab = spec.pool.take(spec.pool.size / 2).toSet
        val weights = Table3.attrs.map(Table3.solutions.head.weights)
        val matcher = WeightedRuleMatcher("t", Table3.attrs.zip(weights).map { case (a, w) => AttributeRule(a, w) },
          Seq("name"), TransferZ2Workload.MaxBlock, Some(vocab))
        val scored = matcher.score(d.records).collect().map(r => (r.getLong(0), r.getLong(1), r.getDouble(2)))
        val values = new Array[Array[String]](spec.nRecords)
        d.records.collect().foreach(r => values(r.getLong(0).toInt) = Table3.attrs.map(a => r.getAs[String](a)).toArray)
        val expected = Reference.blockingPairs(Array.tabulate(spec.nRecords)(_.toLong), values.map(_(0)), vocab, TransferZ2Workload.MaxBlock)
        val scoreOf = (a: Long, b: Long) => Reference.weightedScore(values(a.toInt).toSeq, values(b.toInt).toSeq, weights, vocab)
        expect(scored.length > 50, s"only ${scored.length} candidates")
        passes(Reference.scoringProblem(scored, expected, scoreOf, 1))
        rejects(Reference.scoringProblem(scored.drop(1), expected, scoreOf, 1))
        rejects(Reference.scoringProblem(scored :+ ((0L, spec.nRecords - 1L, 0.0)), expected, scoreOf, 1))
        rejects(Reference.scoringProblem(scored.updated(3, scored(3).copy(_3 = scored(3)._3 + 0.01)), expected, scoreOf, 1))
      } finally spark.stop()
    }

    test("the metrics a run prints are those of BENCHMARK.json, in its units") {
      val manifest = new com.fasterxml.jackson.databind.ObjectMapper().readTree(new java.io.File("BENCHMARK.json"))
      def listed(key: String) = {
        val it = manifest.get(key).elements()
        val out = Seq.newBuilder[(String, String)]
        while (it.hasNext) { val e = it.next(); out += e.get("name").asText -> e.get("unit").asText }
        out.result()
      }
      expect(listed("end_to_end") == Workload.EndToEnd, s"end_to_end ${listed("end_to_end")} vs ${Workload.EndToEnd}")
      expect(listed("per_layer") == Workload.PerLayer, s"per_layer ${listed("per_layer")} vs ${Workload.PerLayer}")
      expect(Workload.ZeroWhereNotCalled.subsetOf(Workload.PerLayer.map(_._1).toSet), "unknown zero metric")
      expect(!Workload.PerLayer.exists { case (k, u) => Workload.ZeroWhereNotCalled(k) && (u == "ms" || u == "s") },
        "a time may read 0")
    }

    println(if (failures == 0) "all tests passed" else s"$failures tests failed")
    sys.exit(if (failures == 0) 0 else 1)
  }
}
