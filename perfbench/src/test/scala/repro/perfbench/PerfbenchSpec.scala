package repro.perfbench

import java.io.File

import com.fasterxml.jackson.databind.ObjectMapper
import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite
import repro.bench.{MethodConfig, SimulatedUser}
import repro.store.{ImageHit, LocalVectorStore, VectorStore}

import scala.jdk.CollectionConverters._

/** Tiny-scale runs of every workload, and the output checks' own checks. */
class PerfbenchSpec extends AnyFunSuite with BeforeAndAfterAll {

  private lazy val spark: SparkSession = Main.sparkSession()

  override def afterAll(): Unit = {
    spark.stop()
    super.afterAll()
  }

  /** Each workload at a small fraction of its size and dimension 32; the
    * Spark workload on three categories so its rounds stay few.
    */
  private def tiny(name: String): Workload = {
    val w = Workloads(name, seed = 0, dim = 32, sfScale = 0.25)
    if (!w.onSpark) w else w.copy(categories = Workloads.mostFrequent(3), warmupCategories = 1)
  }

  /** Metric names BENCHMARK.json declares, by section. */
  private def declared(section: String): Seq[String] = {
    val file = Seq(new File("BENCHMARK.json"), new File("../BENCHMARK.json")).find(_.isFile).get
    new ObjectMapper().readTree(file).get(section).elements().asScala.map(_.get("name").asText()).toSeq
  }

  test("BENCHMARK.json declares exactly the metrics the benchmark prints") {
    assert(declared("end_to_end") == MetricNames.EndToEnd.map(_._1))
    assert(declared("per_layer") == MetricNames.PerLayer.map(_._1))
    assert(declared("workloads").forall(Workloads.Names.contains))
  }

  private def assertPrints(report: Report, names: Seq[(String, String)]): Unit = {
    assert(report.correct)
    assert(report.failed == 0)
    assert(report.attempted > 0)
    assert(report.metrics.map(m => m.name -> m.unit) == names)
    assert(report.metrics.forall(m => !m.value.isNaN && !m.value.isInfinite))
    val line = report.json
    names.foreach { case (n, u) => assert(line.contains(s""""$n": {"value": """) && line.contains(s""""unit": "$u"""")) }
  }

  Workloads.Names.foreach { name =>
    test(s"$name: a tiny untraced run prints every end-to-end metric and passes every check") {
      val report = new Bench(spark, tiny(name), _ => ()).measure(seconds = 1)
      assertPrints(report, MetricNames.EndToEnd)
      val m = report.metrics.map(x => x.name -> x.value).toMap
      assert(m("setup_s") > 0 && m("sessions_per_s") > 0 && m("heap_mb") > 0)
      assert(m("round_p50_ms") > 0 && m("round_p90_ms") >= m("round_p50_ms"))
      assert(m("seesaw_map") > 0 && m("seesaw_map") <= 1)
    }

    test(s"$name: a tiny traced run prints every per-layer metric and agrees with the program") {
      val report = new Bench(spark, tiny(name), _ => ()).trace()
      assertPrints(report, MetricNames.PerLayer)
      val m = report.metrics.map(x => x.name -> x.value).toMap
      assert(m("store.lookups") > 0 && m("core.solves") > 0 && m("core.lbfgs_iters") > 0)
      assert(m("graph.knn_recall") > 0.5 && m("graph.knn_recall") <= 1)
      val onSpark = name == "spark-store" || name == "ladder-multiscale"
      assert((m("store.spark_overhead_ms") > 0) == onSpark)
      assert((m("store.spark_lookup_ms") > 0) == onSpark)
      assert((m("embed.spark_table_s") > 0) == onSpark)
      assert((m("baseline.ens_session_ms") > 0) == (name == "baselines-coarse"))
    }
  }

  test("another corpus seed draws other corpora, which pass every check") {
    assert(Main.parse(Seq("--workload", "ladder-multiscale", "--corpus-seed", "2")).map(_.corpusSeed) == Right(2L))
    val w = Workloads("ladder-multiscale", seed = 1, corpusSeed = 1, dim = 32, sfScale = 0.25)
    assert(w.corpora.map(_.spec.seed).toSet.intersect(tiny("ladder-multiscale").corpora.map(_.spec.seed).toSet).isEmpty)
    assertPrints(new Bench(spark, w, _ => ()).measure(seconds = 1), MetricNames.EndToEnd)
  }

  /** Answers with the second-best unseen image. */
  private final class SecondBest(inner: LocalVectorStore) extends VectorStore {
    override def dim: Int = inner.dim
    override def nVectors: Long = inner.nVectors
    override def nImages: Long = inner.nImages
    override def topImages(q: Array[Float], k: Int, exclude: Set[Long]): IndexedSeq[ImageHit] =
      inner.topImages(q, k + 1, exclude).drop(1)
  }

  test("the brute-force check catches a store that returns the second-best image") {
    val w = tiny("baselines-coarse")
    val c = w.corpora.head
    val store = LocalVectorStore.build(c.spec, c.sf, c.multiscale)
    val user = new SimulatedUser(c.spec, c.sf)
    val cat = user.queryCategories.head
    val truth = new Truth(c)
    val scan = new BruteForce(store)
    val session = SessionSpec(0, cat, MethodConfig.ZeroShot)

    val honest = Prepared(c, user, store, None, None, () => ())
    assert(Checks.session(Sessions.run(honest, session, store), truth, scan, _ => true).isEmpty)

    val wrong = new SecondBest(store)
    val errs = Checks.session(Sessions.run(honest.copy(store = wrong), session, wrong), truth, scan, _ => true)
    assert(errs.exists(_.contains("an unseen image scores")), errs)
  }

  test("the recomputed AP follows the benchmark task's rule") {
    assert(Checks.averagePrecision(Seq(true, false, true), 2) == (1.0 + 2.0 / 3) / 2)
    assert(Checks.averagePrecision(Seq(false, false), 0) == 0.0)
    assert(Checks.averagePrecision(Seq.fill(12)(true), 50) == 1.0)
  }
}
