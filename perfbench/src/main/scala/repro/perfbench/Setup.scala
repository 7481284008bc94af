package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.bench.{BenchmarkRunner, GraphContext, SimulatedUser}
import repro.core.Linalg
import repro.embed.ClipSim
import repro.graph.{DbAlign, DbAlignMatrix, KnnGraph}
import repro.store.{LocalVectorStore, SparkVectorStore, VectorStore}

import scala.collection.mutable

/** Named duration samples, recorded around calls into the program's layers. */
final class Spans {
  private val samples = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[Long]]

  def add(name: String, ns: Long): Unit =
    samples.getOrElseUpdate(name, mutable.ArrayBuffer.empty[Long]) += ns

  def time[A](name: String)(body: => A): A = {
    val t0 = System.nanoTime()
    val r = body
    add(name, System.nanoTime() - t0)
    r
  }

  def count(name: String): Int = samples.get(name).fold(0)(_.size)

  /** Every sample of a span, in milliseconds. */
  def ms(name: String): Seq[Double] = samples.get(name).fold(Seq.empty[Double])(_.map(_ / 1e6).toSeq)

  def medianMs(name: String): Double = if (count(name) == 0) 0.0 else Stats.median(ms(name))

  def totalS(name: String): Double = samples.get(name).fold(0.0)(_.sum / 1e9)
}

/** The artifacts one corpus of a workload serves sessions from. */
final case class Prepared(
    corpus: Corpus,
    user: SimulatedUser,
    store: VectorStore,
    mD: Option[DbAlignMatrix],
    graphCtx: Option[GraphContext],
    release: () => Unit,
)

/** Builds a workload's artifacts through the program's public builders. */
object Setup {

  /** The set-up `setup_s` times: `BenchmarkRunner.prepare` for the local
    * workloads; for spark-store, the Table 6 dataflow (a cached patch table
    * from `ClipSim.patchVectors`, M_D from `DbAlign.fromGraphSpark`).
    */
  def build(spark: SparkSession, w: Workload): Seq[Prepared] =
    w.corpora.map { c =>
      if (w.onSpark) sparkCorpus(spark, c, None)
      else {
        val a = BenchmarkRunner.prepare(spark, c.spec, c.sf, c.multiscale, w.needMd, w.needGraph)
        Prepared(c, a.user, a.store, a.mD, a.graphCtx, () => ())
      }
    }

  /** The same set-up with each layer call timed into `spans`; it repeats
    * the calls `BenchmarkRunner.prepare` makes, in the same order.
    */
  def buildTraced(spark: SparkSession, w: Workload, spans: Spans, recall: mutable.ArrayBuffer[Double]): Seq[Prepared] =
    w.corpora.map { c =>
      if (w.onSpark) sparkCorpus(spark, c, Some((spans, recall)))
      else {
        val user = new SimulatedUser(c.spec, c.sf)
        val store = spans.time("embed.store_build")(LocalVectorStore.build(c.spec, c.sf, c.multiscale))
        val mD =
          if (!w.needMd) None
          else {
            val vecs = store.vecs.toIndexedSeq
            val graph = spans.time("graph.nndescent")(
              KnnGraph.nnDescent(vecs, BenchmarkRunner.DbAlignK, BenchmarkRunner.DefaultSigma))
            recall += knnRecall(graph, vecs)
            Some(spans.time("graph.md")(DbAlign.fromGraphSpark(spark, graph, vecs)))
          }
        val graphCtx =
          if (!w.needGraph) None
          else {
            val coarse = spans.time("embed.store_build")(LocalVectorStore.build(c.spec, c.sf, multiscale = false))
            val graph = spans.time("graph.nndescent")(
              KnnGraph.nnDescent(coarse.vecs.toIndexedSeq, BenchmarkRunner.EnsK, BenchmarkRunner.DefaultSigma))
            recall += knnRecall(graph, coarse.vecs.toIndexedSeq)
            Some(GraphContext(graph, coarse.vecs))
          }
        Prepared(c, user, store, mD, graphCtx, () => ())
      }
    }

  private def sparkCorpus(
      spark: SparkSession,
      c: Corpus,
      traced: Option[(Spans, mutable.ArrayBuffer[Double])],
  ): Prepared = {
    import spark.implicits._
    def time[A](name: String)(body: => A): A = traced.fold(body)(_._1.time(name)(body))
    val user = new SimulatedUser(c.spec, c.sf)
    val (store, vecs) = time("embed.spark_table") {
      val table = ClipSim.patchVectors(spark, c.spec, c.sf, c.multiscale)
      val store = SparkVectorStore.fromDataFrame(spark, table, c.spec.dim)
      store.nVectors // materializes the cached table
      // The graph input, read back from the cached table in store order.
      val vecs = table.select("img_id", "patch_id", "vec").orderBy("img_id", "patch_id")
        .select("vec").as[Array[Float]].collect().toIndexedSeq
      (store, vecs)
    }
    val graph = time("graph.nndescent")(
      KnnGraph.nnDescent(vecs, BenchmarkRunner.DbAlignK, BenchmarkRunner.DefaultSigma))
    traced.foreach(_._2 += knnRecall(graph, vecs))
    val mD = time("graph.md")(DbAlign.fromGraphSpark(spark, graph, vecs))
    Prepared(c, user, store, Some(mD), None, () => store.unpersist())
  }

  /** Nodes of a graph whose neighbours are checked by brute force. */
  val RecallSample = 200

  /** Fraction of the exact k nearest neighbours the graph holds, over a
    * fixed, evenly spaced node sample.
    */
  def knnRecall(graph: KnnGraph, vecs: IndexedSeq[Array[Float]]): Double = {
    val n = vecs.length
    val k = graph.k
    val nodes = (0 until math.min(RecallSample, n)).map(i => (i.toLong * n / math.min(RecallSample, n)).toInt)
    var hit = 0L
    nodes.foreach { i =>
      val exact = (0 until n).filter(_ != i)
        .map(j => (Linalg.sqDist(vecs(i), vecs(j)), j))
        .sorted.take(k).map(_._2).toSet
      hit += graph.neighbors(i).count(exact.contains)
    }
    hit.toDouble / (nodes.size.toLong * k)
  }
}
