package repro.perfbench

import repro.baseline.Rocchio
import repro.bench.{MethodConfig, SearchOutcome, SearchSession}
import repro.core.{AlignerConfig, Example, LBFGS, Linalg, LossFunction, Metrics, QueryAligner}
import repro.embed.ClipSim
import repro.store.{ImageHit, VectorStore}

import scala.collection.mutable

/** One session of a pass: a corpus (index into the workload), a query
  * category and a method.
  */
final case class SessionSpec(corpus: Int, cat: Int, method: MethodConfig) {
  /** Whether the method queries the store (ENS and propagation do not). */
  def usesStore: Boolean = method match {
    case MethodConfig.ZeroShot | _: MethodConfig.Aligned | _: MethodConfig.RocchioCfg => true
    case _ => false
  }
  def isSeeSaw: Boolean = method == MethodConfig.SeeSaw
}

/** A `VectorStore` wrapper that marks when each lookup returns and keeps
  * the query and the answer for the output checks, which run after the
  * timed loop.
  */
final class RecordingStore(inner: VectorStore) extends VectorStore {
  val returnNs: mutable.ArrayBuffer[Long] = mutable.ArrayBuffer.empty
  val queries: mutable.ArrayBuffer[Array[Float]] = mutable.ArrayBuffer.empty
  val answers: mutable.ArrayBuffer[IndexedSeq[ImageHit]] = mutable.ArrayBuffer.empty

  override def dim: Int = inner.dim
  override def nVectors: Long = inner.nVectors
  override def nImages: Long = inner.nImages

  override def topImages(q: Array[Float], k: Int, exclude: Set[Long]): IndexedSeq[ImageHit] = {
    val hits = inner.topImages(q, k, exclude)
    returnNs += System.nanoTime()
    queries += q
    answers += hits
    hits
  }
}

/** What one `SearchSession.run` call did, as seen from outside it. */
final case class SessionRun(
    spec: SessionSpec,
    outcome: Either[String, SearchOutcome],
    startNs: Long,
    endNs: Long,
    returnNs: IndexedSeq[Long],
    queries: IndexedSeq[Array[Float]],
    answers: IndexedSeq[IndexedSeq[ImageHit]],
) {
  /** Images shown, in order (the top hit of each lookup). */
  def shown: IndexedSeq[Long] = answers.flatMap(_.headOption.map(_.imgId))

  def durationNs: Long = endNs - startNs

  /** Round latencies (ms): from the previous lookup's return, or the
    * session start, to the next lookup's return.
    */
  def roundsMs: IndexedSeq[Double] =
    (startNs +: returnNs).sliding(2).collect { case Seq(a, b) => (b - a) / 1e6 }.toIndexedSeq
}

object Sessions {

  /** Runs one session through `SearchSession.run`, on the driver thread. */
  def run(p: Prepared, s: SessionSpec, store: VectorStore): SessionRun = {
    val rec = new RecordingStore(store)
    val t0 = System.nanoTime()
    val outcome =
      try Right(SearchSession.run(rec, p.user, s.cat, s.method, p.corpus.multiscale, p.mD, p.graphCtx))
      catch { case e: Exception => Left(s"${e.getClass.getSimpleName}: ${e.getMessage}") }
    val t1 = System.nanoTime()
    SessionRun(s, outcome, t0, t1, rec.returnNs.toIndexedSeq, rec.queries.toIndexedSeq, rec.answers.toIndexedSeq)
  }

  /** One query-aligner solve seen by the traced loop. */
  final case class Solve(q0: Array[Float], examples: IndexedSeq[Example], cfg: AlignerConfig, out: Array[Float])

  /** What the traced loop shows and solves for one session. */
  final case class Traced(trace: IndexedSeq[Boolean], shown: IndexedSeq[Long], solves: IndexedSeq[Solve], roundsNs: IndexedSeq[Long])

  /** `SearchSession`'s query-vector loop, repeated with the same public
    * calls and each call into a layer timed into `spans`: store lookup,
    * re-embedding the shown image, labelling, and the query update.
    */
  def traced(p: Prepared, s: SessionSpec, spans: Spans): Traced = {
    val user = p.user
    val q0 = user.textEmbedding(s.cat)
    var q = q0
    val examples = mutable.ArrayBuffer.empty[Example]
    val seen = mutable.Set.empty[Long]
    val trace = mutable.ArrayBuffer.empty[Boolean]
    val shownImgs = mutable.ArrayBuffer.empty[Long]
    val solves = mutable.ArrayBuffer.empty[Solve]
    val rounds = mutable.ArrayBuffer.empty[Long]
    var found = 0
    var shown = 0
    var last = System.nanoTime()
    var exhausted = false
    while (!exhausted && found < Metrics.DefaultTarget && shown < Metrics.DefaultBudget) {
      val exclude = seen.toSet
      val hits = spans.time("store.lookup")(p.store.topImages(q, 1, exclude))
      val now = System.nanoTime()
      rounds += now - last
      last = now
      if (hits.isEmpty) exhausted = true
      else {
        val img = hits.head.imgId
        seen += img
        shownImgs += img
        val relevant = user.isRelevant(img, s.cat)
        trace += relevant
        if (relevant) found += 1
        shown += 1
        if (s.method != MethodConfig.ZeroShot && found < Metrics.DefaultTarget && shown < Metrics.DefaultBudget) {
          val patches = spans.time("embed.patch_records")(
            ClipSim.patchRecords(user.spec, user.meta(img), p.corpus.multiscale))
          examples ++= spans.time("bench.label")(user.labelPatches(patches, s.cat))
          val snapshot = examples.toIndexedSeq
          q = s.method match {
            case MethodConfig.Aligned(_, cfg) =>
              val w = spans.time("core.align")(QueryAligner.align(q0, snapshot, cfg, p.mD))
              solves += Solve(q0, snapshot, cfg, w)
              w
            case r: MethodConfig.RocchioCfg =>
              spans.time("baseline.rocchio")(Rocchio(r.alpha, r.beta, r.gamma).update(q0, snapshot))
            case _ => q
          }
        }
      }
    }
    Traced(trace.toIndexedSeq, shownImgs.toIndexedSeq, solves.toIndexedSeq, rounds.toIndexedSeq)
  }

  /** The gradient tolerance `QueryAligner.align` passes to L-BFGS. */
  val AlignGradTol = 1e-5

  /** L-BFGS work of one solve, counted by solving it again. */
  final case class SolveCount(iterations: Int, evals: Int, converged: Boolean, evalNs: IndexedSeq[Long], agrees: Boolean)

  /** Solves again with a counting objective around the same `LossFunction`
    * and the same settings as `QueryAligner.align`, and reports whether the
    * result is bitwise the vector the aligner returned.
    */
  def countSolve(s: Solve, mD: Option[repro.graph.DbAlignMatrix]): SolveCount = {
    val effLambdaD = if (mD.isDefined) s.cfg.lambdaD else 0.0
    val loss = new LossFunction(s.q0, s.examples, s.cfg.lambda, s.cfg.lambdaC, effLambdaD, mD)
    val evalNs = mutable.ArrayBuffer.empty[Long]
    val counting = new LBFGS.Objective {
      override def valueAndGradient(x: Array[Double]): (Double, Array[Double]) = {
        val t0 = System.nanoTime()
        val r = loss.valueAndGradient(x)
        evalNs += System.nanoTime() - t0
        r
      }
    }
    val res = LBFGS.minimize(counting, Linalg.toDouble(Linalg.normalize(s.q0)),
      memory = s.cfg.lbfgsMemory, maxIters = s.cfg.lbfgsMaxIters, gradTol = AlignGradTol)
    val w =
      if (Linalg.normD(res.x) < 1e-9) Linalg.normalize(s.q0)
      else Linalg.toFloat(Linalg.normalizeD(res.x))
    SolveCount(res.iterations, evalNs.size, res.converged, evalNs.toIndexedSeq, java.util.Arrays.equals(w, s.out))
  }
}
