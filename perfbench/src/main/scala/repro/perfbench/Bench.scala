package repro.perfbench

import java.lang.management.ManagementFactory

import org.apache.spark.sql.SparkSession
import repro.bench.{MethodConfig, SearchOutcome}
import repro.embed.ClipSim
import repro.store.{LocalVectorStore, SparkVectorStore, VectorStore}

import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** The metrics each mode prints, with units. */
object MetricNames {
  val EndToEnd: Seq[(String, String)] = Seq(
    "setup_s" -> "s",
    "sessions_per_s" -> "1/s",
    "round_p50_ms" -> "ms",
    "round_p90_ms" -> "ms",
    "seesaw_map" -> "AP",
    "heap_mb" -> "MB",
  )

  val PerLayer: Seq[(String, String)] = Seq(
    "store.lookup_ms" -> "ms",
    "store.lookup_s" -> "s",
    "store.lookups" -> "count",
    "store.spark_lookup_ms" -> "ms",
    "store.spark_overhead_ms" -> "ms",
    "embed.patch_records_ms" -> "ms",
    "embed.store_build_s" -> "s",
    "embed.spark_table_s" -> "s",
    "bench.label_ms" -> "ms",
    "bench.examples_per_solve" -> "count",
    "bench.trace_overhead_pct" -> "%",
    "core.align_ms" -> "ms",
    "core.align_s" -> "s",
    "core.solves" -> "count",
    "core.lbfgs_iters" -> "count",
    "core.lbfgs_evals" -> "count",
    "core.lbfgs_capped" -> "count",
    "core.loss_eval_us" -> "us",
    "graph.nndescent_s" -> "s",
    "graph.knn_recall" -> "ratio",
    "graph.md_s" -> "s",
    "baseline.ens_session_ms" -> "ms",
    "baseline.ens_rounds" -> "count",
    "baseline.rocchio_ms" -> "ms",
    "jvm.gc_s" -> "s",
  )

  def metrics(units: Seq[(String, String)], values: Map[String, Double]): Seq[Metric] =
    units.map { case (n, u) => Metric(n, u, values.getOrElse(n, sys.error(s"metric $n was not measured"))) }
}

/** Runs one workload: the untraced run for the end-to-end metrics, or the
  * traced run for the per-layer ones.
  */
final class Bench(spark: SparkSession, w: Workload, log: String => Unit) {

  /** At least this many set-ups per untraced run; `setup_s` is their median. */
  val SetupReps = 3

  private var failures = 0
  private def fail(where: String, errs: Seq[String]): Boolean = {
    errs.take(3).foreach(e => if (failures < 20) { log(s"CHECK FAILED $where: $e"); failures += 1 })
    errs.nonEmpty
  }

  /** Heap in use after forced collections. Spark's context cleaner frees
    * shuffle and broadcast state of collected jobs in the background, so
    * each collection is followed by a pause for it to catch up.
    */
  private def heapMb(): Double = {
    (1 to 3).foreach { _ => System.gc(); Thread.sleep(300) }
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }

  private def gcSeconds(): Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum / 1e3

  /** Builds the first draw once on tiny corpora, so that Spark's first jobs
    * and the JIT do not count in the traced run's set-up.
    */
  private def warmUpSetUp(): Unit = {
    val first = w.byDraw.head
    Setup.build(spark, first.copy(corpora = first.corpora.map(c => c.copy(sf = c.sf * 0.05)))).foreach(_.release())
  }

  /** The sessions of a pass, corpus by corpus; within a corpus in an order
    * drawn from the workload seed.
    */
  private def sessionsOf(prepared: Seq[Prepared]): IndexedSeq[SessionSpec] = {
    val rng = new scala.util.Random(w.seed)
    prepared.zipWithIndex.flatMap { case (p, ci) =>
      rng.shuffle(for {
        (cat, i) <- w.categories(p.user).zipWithIndex
        m <- w.methods if m == MethodConfig.SeeSaw || i % w.othersEvery == 0
      } yield SessionSpec(ci, cat, m))
    }.toIndexedSeq
  }

  /** The reference stores the checks scan: the store itself, or for the
    * Spark workload a `LocalVectorStore` of the same corpus.
    */
  private def references(prepared: Seq[Prepared]): Seq[LocalVectorStore] =
    prepared.map { p =>
      p.store match {
        case l: LocalVectorStore => l
        case _ => LocalVectorStore.build(p.corpus.spec, p.corpus.sf, p.corpus.multiscale)
      }
    }

  private def sameShown(a: SessionRun, b: SessionRun): Boolean =
    a.outcome.map(_.trace) == b.outcome.map(_.trace) && a.shown == b.shown

  /** Checks every session of a pass, and for the Spark workload replays it
    * on the reference store; true where a session fails.
    */
  private def checkPass(
      runs: IndexedSeq[SessionRun],
      prepared: Seq[Prepared],
      refs: Seq[LocalVectorStore],
      truths: Seq[Truth],
      scans: Seq[BruteForce],
  ): IndexedSeq[Boolean] = {
    var lookup = 0
    runs.map { r =>
      val ci = r.spec.corpus
      val first = lookup
      lookup += r.queries.length
      val errs = Checks.session(r, truths(ci), scans(ci), i => (first + i) % w.bruteForceEvery == 0)
      val spark =
        if (!w.onSpark) Nil
        else {
          val local = Sessions.run(prepared(ci), r.spec, refs(ci))
          if (sameShown(local, r)) Nil else Seq("Spark store showed other images than the local store")
        }
      fail(s"${prepared(ci).corpus.label} cat ${r.spec.cat} ${r.spec.method.name}", errs ++ spark)
    }
  }

  /** Runs the sessions of the first categories of each corpus of the first
    * draw, untimed.
    */
  private def warmUp(sessions: IndexedSeq[SessionSpec], prepared: Seq[Prepared]): Unit = {
    val warm = prepared.map(p =>
      if (p.corpus.draw == w.corpora.head.draw) w.categories(p.user).take(w.warmupCategories).toSet else Set.empty[Int])
    sessions.filter(s => warm(s.corpus).contains(s.cat))
      .foreach(s => Sessions.run(prepared(s.corpus), s, prepared(s.corpus).store))
  }

  /** The untraced run: the set-up of each draw (a workload of one draw is
    * set up `SetupReps` times, keeping the last), a warm-up pass, then whole
    * passes over every session until `seconds` have gone by; prints the
    * end-to-end metrics.
    */
  def measure(seconds: Int): Report = {
    def since(t: Long): Double = (System.nanoTime() - t) / 1e9
    // The first set-up also pays for Spark's first jobs and the JIT; the
    // median drops it.
    val setupStart = System.nanoTime()
    val draws = w.byDraw
    val built = mutable.Map.empty[Int, Seq[Prepared]]
    val setupS = (0 until math.max(SetupReps, draws.size)).map { i =>
      val d = i % draws.size
      built.remove(d).foreach(_.foreach(_.release()))
      val t0 = System.nanoTime()
      built(d) = Setup.build(spark, draws(d))
      (System.nanoTime() - t0) / 1e9
    }
    val prepared = draws.indices.flatMap(built)
    val checksStart = System.nanoTime()
    val heap = heapMb()
    val refs = references(prepared)
    val truths = prepared.map(p => new Truth(p.corpus))
    val scans = refs.map(new BruteForce(_))
    val mdOk = prepared.forall(p => p.mD.forall(m => !fail(s"M_D of ${p.corpus.label}", Checks.dbAlign(m))))
    val sessions = sessionsOf(prepared)
    val warmStart = System.nanoTime()
    warmUp(sessions, prepared)

    val first = mutable.ArrayBuffer.empty[SessionRun]
    val repeatsDiffer = mutable.ArrayBuffer.empty[Int] // session index, per later pass
    val rounds = mutable.ArrayBuffer.empty[Double]
    var sessionNs = 0L
    var completed = 0
    var passes = 0
    var lastPassNs = 0L
    val t0 = System.nanoTime()
    // Whole passes, while the next one is expected to end within `seconds`.
    while (passes == 0 || System.nanoTime() - t0 + lastPassNs <= seconds * 1000000000L) {
      val passStart = System.nanoTime()
      sessions.indices.foreach { i =>
        val s = sessions(i)
        val p = prepared(s.corpus)
        val r = Sessions.run(p, s, p.store)
        if (passes == 0) first += r
        else if (!sameShown(first(i), r)) repeatsDiffer += i
        if (r.outcome.isRight) completed += 1
        sessionNs += r.durationNs
        if (s.isSeeSaw && r.outcome.isRight) rounds ++= r.roundsMs
      }
      lastPassNs = System.nanoTime() - passStart
      passes += 1
    }
    val measured = since(t0)
    val checkStart = System.nanoTime()
    val firstFailed = checkPass(first.toIndexedSeq, prepared, refs, truths, scans)
    repeatsDiffer.foreach(i => fail(s"session $i", Seq("a later pass showed other images than the first")))
    // A session failing its checks fails in every pass it ran.
    val failed = firstFailed.count(identity) * passes +
      repeatsDiffer.count(i => !firstFailed(i))
    val seesaw = first.filter(r => r.spec.isSeeSaw).flatMap(_.outcome.toOption)
    require(rounds.nonEmpty && seesaw.nonEmpty, "no SeeSaw sessions completed")
    prepared.foreach(_.release())

    val values = Map(
      "setup_s" -> Stats.median(setupS),
      "sessions_per_s" -> completed / (sessionNs / 1e9),
      "round_p50_ms" -> Stats.median(rounds),
      "round_p90_ms" -> Stats.quantile(rounds, 0.9),
      "seesaw_map" -> Stats.mean(seesaw.map(_.ap)),
      "heap_mb" -> heap,
    )
    val notes = Seq(
      f"${w.name}: ${sessions.size} sessions per pass, $passes passes, ${rounds.size} SeeSaw rounds, " +
        f"session time ${sessionNs / 1e9}%.2f s",
      s"set-up times (s): ${setupS.map(t => f"$t%.3f").mkString(" ")}",
      f"phases (s): JVM and Spark start ${(setupStart - Main.startNs) / 1e9 + Main.jvmUptimeAtStartS}%.1f, " +
        f"set-ups ${(checksStart - setupStart) / 1e9}%.1f, " +
        f"heap and input checks ${(warmStart - checksStart) / 1e9}%.1f, " +
        f"warm-up pass ${(t0 - warmStart) / 1e9}%.1f, measured $measured%.1f, output checks ${since(checkStart)}%.1f",
    ) ++ w.methods.map { m =>
      val rs = first.filter(_.spec.method == m)
      val shown = rs.map(r => r.outcome.map(_.nSeen).getOrElse(0)).sum
      f"${m.name}: ${rs.size} sessions, $shown images shown, ${rs.map(_.durationNs).sum / 1e9}%.3f s (first pass)"
    } ++ prepared.indices.map { ci =>
      val aps = first.filter(r => r.spec.corpus == ci && r.spec.isSeeSaw).flatMap(_.outcome.toOption).map(_.ap)
      f"SeeSaw mAP ${prepared(ci).corpus.label}: ${Stats.mean(aps)}%.4f over ${aps.size} queries"
    }
    Report(mdOk, sessions.size * passes, failed, MetricNames.metrics(MetricNames.EndToEnd, values), notes)
  }

  /** Median `topImages` on a `SparkVectorStore` holding a single image. */
  private def sparkOverheadMs(p: Prepared): Double = {
    val meta = repro.data.ImageCorpus.imageMeta(p.corpus.spec, 0L)
    val one = SparkVectorStore.fromRecords(spark, ClipSim.patchRecords(p.corpus.spec, meta, p.corpus.multiscale))
    one.nVectors
    val q = p.user.textEmbedding(w.categories(p.user).head)
    (1 to 2).foreach(_ => one.topImages(q, 1, Set.empty))
    val ms = (1 to 9).map { _ =>
      val t0 = System.nanoTime()
      one.topImages(q, 1, Set.empty)
      (System.nanoTime() - t0) / 1e6
    }
    one.unpersist()
    Stats.median(ms)
  }

  /** SeeSaw sessions a Spark probe replays. */
  val SparkProbeSessions = 3

  /** Measures the Spark store on a corpus of a local workload: the patch
    * table built and cached, then the lookups of the first SeeSaw sessions
    * replayed on it (after a few untimed ones). Returns every lookup whose
    * answer differs from the local store's.
    */
  private def sparkProbe(p: Prepared, runs: Seq[SessionRun], spans: Spans): Seq[String] = {
    val c = p.corpus
    val store = spans.time("embed.spark_table") {
      val s = SparkVectorStore.fromDataFrame(spark, ClipSim.patchVectors(spark, c.spec, c.sf, c.multiscale), c.spec.dim)
      s.nVectors
      s
    }
    val lookups = for {
      r <- runs
      i <- r.queries.indices
    } yield (r.queries(i), r.shown.take(i).toSet, r.answers(i).map(_.imgId))
    lookups.take(5).foreach { case (q, ex, _) => store.topImages(q, 1, ex) }
    val errs = lookups.flatMap { case (q, ex, want) =>
      val got = spans.time("store.spark_lookup")(store.topImages(q, 1, ex)).map(_.imgId)
      if (got == want) None else Some(s"Spark store answered $got, local store $want")
    }
    store.unpersist()
    errs
  }

  private val LayerNames = Seq("store.lookup", "embed.patch_records", "bench.label", "core.align")

  /** The traced run: one pass over every session with each layer call timed,
    * checked against `SearchSession.run` and `QueryAligner.align`; prints
    * the per-layer metrics.
    */
  def trace(): Report = {
    warmUpSetUp()
    val spans = new Spans
    val recall = mutable.ArrayBuffer.empty[Double]
    val prepared = Setup.buildTraced(spark, w, spans, recall)
    val refs = references(prepared)
    val truths = prepared.map(p => new Truth(p.corpus))
    val scans = refs.map(new BruteForce(_))
    val mdOk = prepared.forall(p => p.mD.forall(m => !fail(s"M_D of ${p.corpus.label}", Checks.dbAlign(m))))
    val sessions = sessionsOf(prepared)
    warmUp(sessions, prepared)
    val sparkOverhead = if (w.onSpark || w.sparkProbe) sparkOverheadMs(prepared.head) else 0.0
    val probeRuns = mutable.ArrayBuffer.empty[SessionRun]

    val scratch = new Spans
    var untracedNs = 0L
    var tracedNs = 0L
    val ensMs = mutable.ArrayBuffer.empty[Double]
    val ensRounds = mutable.ArrayBuffer.empty[Double]
    val solves = mutable.ArrayBuffer.empty[(Int, Int, Sessions.SolveCount)] // corpus, examples, count
    val seesawLayerS = mutable.Map.empty[String, Double].withDefaultValue(0.0)
    var seesawRoundS = 0.0
    var seesawRounds = 0
    var failed = 0
    var lookup = 0
    val gc0 = gcSeconds()
    sessions.foreach { s =>
      val ci = s.corpus
      val p = prepared(ci)
      // Agreement runs on the local store: for spark-store the untraced run
      // shows the same images there, and it keeps Spark rounds to one pass.
      val local = p.copy(store = refs(ci))
      val r = Sessions.run(local, s, local.store)
      val first = lookup
      lookup += r.queries.length
      val errs = mutable.ArrayBuffer.empty[String]
      errs ++= Checks.session(r, truths(ci), scans(ci), i => (first + i) % w.bruteForceEvery == 0)
      if (w.sparkProbe && ci == 0 && s.isSeeSaw && probeRuns.size < SparkProbeSessions) probeRuns += r
      if (!s.usesStore) {
        ensMs += r.durationNs / 1e6
        r.outcome.foreach(o => ensRounds += o.nSeen)
      } else {
        val before = LayerNames.map(spans.totalS)
        val t0 = System.nanoTime()
        val tLocal = Sessions.traced(local, s, if (w.onSpark) scratch else spans)
        tracedNs += System.nanoTime() - t0
        untracedNs += r.durationNs
        if (r.outcome.map(_.trace) != Right(tLocal.trace) || r.shown != tLocal.shown)
          errs += "traced loop showed other images than SearchSession.run"
        val t = if (w.onSpark) Sessions.traced(p, s, spans) else tLocal
        if (t.shown != tLocal.shown) errs += "Spark store showed other images than the local store"
        if (s.isSeeSaw) {
          LayerNames.zip(before).foreach { case (n, b) => seesawLayerS(n) += spans.totalS(n) - b }
          seesawRoundS += t.roundsNs.sum / 1e9
          seesawRounds += t.roundsNs.size
        }
        t.solves.foreach { solve =>
          val c = Sessions.countSolve(solve, p.mD)
          if (!c.agrees) errs += "counting re-solve differs from QueryAligner.align"
          solves += ((ci, solve.examples.size, c))
        }
      }
      if (fail(s"${p.corpus.label} cat ${s.cat} ${s.method.name}", errs.toSeq)) failed += 1
    }
    val gcS = gcSeconds() - gc0
    if (w.sparkProbe && fail(s"${prepared.head.corpus.label} on SparkVectorStore", sparkProbe(prepared.head, probeRuns.toSeq, spans)))
      failed += probeRuns.size
    prepared.foreach(_.release())

    val counts = solves.map(_._3)
    val values = Map(
      "store.lookup_ms" -> spans.medianMs("store.lookup"),
      "store.lookup_s" -> spans.totalS("store.lookup"),
      "store.lookups" -> spans.count("store.lookup").toDouble,
      "store.spark_lookup_ms" -> spans.medianMs(if (w.onSpark) "store.lookup" else "store.spark_lookup"),
      "store.spark_overhead_ms" -> sparkOverhead,
      "embed.patch_records_ms" -> spans.medianMs("embed.patch_records"),
      "embed.store_build_s" -> spans.totalS("embed.store_build"),
      "embed.spark_table_s" -> spans.totalS("embed.spark_table"),
      "bench.label_ms" -> spans.medianMs("bench.label"),
      "bench.examples_per_solve" -> Stats.mean(solves.map(_._2.toDouble)),
      "bench.trace_overhead_pct" -> (if (untracedNs == 0) 0.0 else 100.0 * (tracedNs.toDouble / untracedNs - 1)),
      "core.align_ms" -> spans.medianMs("core.align"),
      "core.align_s" -> spans.totalS("core.align"),
      "core.solves" -> counts.size.toDouble,
      "core.lbfgs_iters" -> Stats.mean(counts.map(_.iterations.toDouble)),
      "core.lbfgs_evals" -> Stats.mean(counts.map(_.evals.toDouble)),
      "core.lbfgs_capped" -> counts.count(!_.converged).toDouble,
      "core.loss_eval_us" -> (if (counts.isEmpty) 0.0 else Stats.median(counts.flatMap(_.evalNs).map(_ / 1e3))),
      "graph.nndescent_s" -> spans.totalS("graph.nndescent"),
      "graph.knn_recall" -> Stats.mean(recall),
      "graph.md_s" -> spans.totalS("graph.md"),
      "baseline.ens_session_ms" -> (if (ensMs.isEmpty) 0.0 else Stats.median(ensMs)),
      "baseline.ens_rounds" -> Stats.mean(ensRounds),
      "baseline.rocchio_ms" -> spans.medianMs("baseline.rocchio"),
      "jvm.gc_s" -> gcS,
    )
    val split =
      if (seesawRounds == 0) "no SeeSaw rounds"
      else {
        val parts = LayerNames.map(n => n -> seesawLayerS(n)) :+ ("other" -> (seesawRoundS - LayerNames.map(seesawLayerS).sum))
        f"SeeSaw round split (mean of $seesawRounds rounds, ${1e3 * seesawRoundS / seesawRounds}%.3f ms): " +
          parts.map { case (n, t) => f"$n ${1e3 * t / seesawRounds}%.3f ms (${100 * t / seesawRoundS}%.1f%%)" }.mkString(", ")
      }
    val perCorpus = prepared.indices.map { ci =>
      val cs = solves.filter(_._1 == ci).map(_._3)
      f"${prepared(ci).corpus.label}: ${cs.size} solves, ${cs.count(!_.converged)} unconverged, " +
        f"${Stats.mean(cs.map(_.iterations.toDouble))}%.1f iterations and ${Stats.mean(cs.map(_.evals.toDouble))}%.1f evaluations per solve"
    }
    Report(mdOk, sessions.size, failed, MetricNames.metrics(MetricNames.PerLayer, values),
      (s"${w.name}: traced ${sessions.size} sessions" +: split +: perCorpus).toSeq)
  }
}
