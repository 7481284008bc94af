package repro.perfbench

import org.apache.spark.sql.SparkSession

/** Benchmark entry point:
  *
  * {{{
  * Main --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1] [--corpus-seed <m>]
  * }}}
  *
  * `--seed` orders the sessions; `--corpus-seed` (default 0, the tables'
  * corpora) picks the corpora.
  * Prints notes, then one JSON result line as the last line of standard
  * output. `--trace 0` (default) prints the end-to-end metrics, `--trace 1`
  * the per-layer ones. Exits 2 on bad arguments and 1 if the run breaks.
  */
object Main {

  final case class Options(workload: String, seed: Long, seconds: Int, trace: Boolean, corpusSeed: Long)

  def parse(args: Seq[String]): Either[String, Options] = {
    val pairs = args.grouped(2).toSeq
    if (args.length % 2 != 0 || pairs.exists(p => !p.head.startsWith("--")))
      return Left("arguments come in --name value pairs")
    val m = pairs.map(p => p.head.stripPrefix("--") -> p(1)).toMap
    val unknown = m.keySet -- Set("workload", "seed", "seconds", "trace", "corpus-seed")
    if (unknown.nonEmpty) return Left(s"unknown option(s): ${unknown.mkString(", ")}")
    for {
      workload <- m.get("workload").toRight("--workload is required")
      _ <- Either.cond(Workloads.Names.contains(workload), (),
        s"unknown workload '$workload' (one of ${Workloads.Names.mkString(", ")})")
      seed <- m.get("seed").fold[Either[String, Long]](Right(0L))(s => s.toLongOption.toRight(s"bad --seed $s"))
      corpusSeed <- m.get("corpus-seed").fold[Either[String, Long]](Right(0L))(s =>
        s.toLongOption.toRight(s"bad --corpus-seed $s"))
      seconds <- m.get("seconds").fold[Either[String, Int]](Right(10))(s =>
        s.toIntOption.filter(_ >= 1).toRight(s"bad --seconds $s"))
      trace <- m.get("trace").fold[Either[String, Boolean]](Right(false)) {
        case "0" => Right(false)
        case "1" => Right(true)
        case t => Left(s"bad --trace $t")
      }
    } yield Options(workload, seed, seconds, trace, corpusSeed)
  }

  /** Local mode on every core, configured as the repository's test harness
    * configures it.
    */
  def sparkSession(): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[${Runtime.getRuntime.availableProcessors}]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  /** When `main` started, and how long the JVM had been up by then. */
  val startNs: Long = System.nanoTime()
  val jvmUptimeAtStartS: Double = java.lang.management.ManagementFactory.getRuntimeMXBean.getUptime / 1e3

  def main(args: Array[String]): Unit = {
    val opts = parse(args.toSeq) match {
      case Right(o) => o
      case Left(err) =>
        Console.err.println(s"perfbench: $err")
        sys.exit(2)
    }
    val spark = sparkSession()
    val code =
      try {
        val bench = new Bench(spark, Workloads(opts.workload, opts.seed, opts.corpusSeed), Console.err.println)
        val report = if (opts.trace) bench.trace() else bench.measure(opts.seconds)
        report.notes.foreach(println)
        println(report.json)
        0
      } catch {
        case e: Throwable =>
          e.printStackTrace()
          1
      } finally spark.stop()
    sys.exit(code)
  }
}

