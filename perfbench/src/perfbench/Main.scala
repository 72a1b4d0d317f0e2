package perfbench

/** Entry point:
  * `Main --workload <table1|tune-sweep|transfer-z2> --seed <n> --seconds <n> --trace <0|1>`.
  * Prints the result as the last line of standard output; everything else
  * goes to standard error.
  */
object Main {

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def opt(k: String) = opts.getOrElse(k, usage(s"missing --$k"))
    val workload: Workload = opt("workload") match {
      case "table1"      => new Table1Workload
      case "tune-sweep"  => new TuneSweepWorkload
      case "transfer-z2" => new TransferZ2Workload
      case other         => usage(s"unknown workload $other")
    }
    val seed = opt("seed").toLong
    val seconds = opt("seconds").toInt
    val trace = opt("trace") match {
      case "0" => false
      case "1" => true
      case other => usage(s"--trace takes 0 or 1, got $other")
    }
    require(seconds >= 1, "--seconds must be at least 1")
    val line = Workload.run(workload, seed, seconds, trace)
    println(line)
    Console.out.flush()
    // Spark leaves non-daemon threads behind that would hold the JVM open.
    sys.exit(0)
  }

  private def usage(msg: String): Nothing = {
    Console.err.println(s"perfbench: $msg\nusage: --workload <table1|tune-sweep|transfer-z2> --seed <n> --seconds <n> --trace <0|1>")
    sys.exit(2)
  }
}
