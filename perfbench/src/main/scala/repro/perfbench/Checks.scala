package repro.perfbench

import repro.bench.MethodConfig
import repro.core.Metrics
import repro.data.ImageCorpus
import repro.graph.{DbAlign, DbAlignMatrix}
import repro.store.{ImageHit, LocalVectorStore}

/** Ground truth of a corpus, recomputed from `ImageCorpus.imageMeta` apart
  * from the program's `SimulatedUser`.
  */
final class Truth(c: Corpus) {
  val nImages: Int = c.spec.imagesAt(c.sf)

  private val relevant: Map[Int, Set[Long]] =
    (0L until nImages.toLong)
      .flatMap(id => ImageCorpus.imageMeta(c.spec, id).objects.map(o => o.cat -> id))
      .groupBy(_._1)
      .map { case (cat, pairs) => cat -> pairs.map(_._2).toSet }

  def isRelevant(img: Long, cat: Int): Boolean = relevant.get(cat).exists(_.contains(img))

  def relevantCount(cat: Int): Long = relevant.get(cat).fold(0L)(_.size.toLong)
}

/** The benchmark's own scan over a store's vectors: per image, the maximum
  * patch inner product, accumulated in double in dimension order.
  */
final class BruteForce(ref: LocalVectorStore) {
  private val vecs = ref.vecs
  private val imgIds = ref.imgIds

  /** Every image's (id, max patch score) for query q. */
  def imageScores(q: Array[Float]): Iterator[(Long, Double)] = new Iterator[(Long, Double)] {
    private var i = 0
    def hasNext: Boolean = i < vecs.length
    def next(): (Long, Double) = {
      val img = imgIds(i)
      var best = Double.NegativeInfinity
      while (i < vecs.length && imgIds(i) == img) {
        val v = vecs(i)
        var s = 0.0; var d = 0
        while (d < v.length) { s += v(d).toDouble * q(d); d += 1 }
        if (s > best) best = s
        i += 1
      }
      (img, best)
    }
  }

  /** Why `answer` is not the best unseen image for q, if it is not. The
    * answer may be any image tied with the best within `Checks.Tie`.
    */
  def check(q: Array[Float], exclude: Set[Long], answer: IndexedSeq[ImageHit]): Option[String] = {
    val scores = imageScores(q).toMap
    val open = scores.iterator.filter { case (img, _) => !exclude.contains(img) }
    if (!open.hasNext) return if (answer.isEmpty) None else Some("answer from an exhausted store")
    val best = open.maxBy(_._2)._2
    answer.headOption match {
      case None => Some("no answer, but unseen images remain")
      case Some(hit) if exclude.contains(hit.imgId) => Some(s"image ${hit.imgId} shown again")
      case Some(hit) if !scores.contains(hit.imgId) => Some(s"unknown image ${hit.imgId}")
      case Some(hit) if math.abs(scores(hit.imgId) - hit.score) > Checks.Tie =>
        Some(s"image ${hit.imgId} reported score ${hit.score}, scan gives ${scores(hit.imgId)}")
      case Some(hit) if scores(hit.imgId) < best - Checks.Tie =>
        Some(s"image ${hit.imgId} scores ${scores(hit.imgId)}, an unseen image scores $best")
      case _ => None
    }
  }
}

/** Output checks, computed apart from the program. */
object Checks {

  /** Scores this close count as a tie. */
  val Tie = 1e-9

  /** AP of the §5.1 benchmark task: precision at each relevant result found,
    * summed and divided by min(target, relevant images in the corpus).
    */
  def averagePrecision(trace: Seq[Boolean], totalRelevant: Long): Double = {
    val r = math.min(Metrics.DefaultTarget.toLong, totalRelevant)
    if (r == 0) return 0.0
    var found = 0
    var sum = 0.0
    trace.iterator.zipWithIndex.takeWhile(_ => found < r).foreach { case (rel, i) =>
      if (rel) { found += 1; sum += found.toDouble / (i + 1) }
    }
    sum / r
  }

  /** Every failed check of one session; empty when it passes.
    *
    * @param checkLookup whether to brute-force the i-th lookup of this session
    */
  def session(run: SessionRun, truth: Truth, scan: BruteForce, checkLookup: Int => Boolean): Seq[String] =
    run.outcome match {
      case Left(err) => Seq(s"session threw $err")
      case Right(o) =>
        val cat = run.spec.cat
        val trace = o.trace
        val errs = Seq.newBuilder[String]
        val total = truth.relevantCount(cat)
        if (o.totalRelevant != total) errs += s"relevant count ${o.totalRelevant}, ground truth has $total"
        val ap = averagePrecision(trace, total)
        if (math.abs(o.ap - ap) > 1e-12) errs += s"AP ${o.ap}, recomputed $ap"

        // Stop rule: exactly at `target` found or `budget` shown.
        val found = trace.count(identity)
        val target = Metrics.DefaultTarget
        val budget = Metrics.DefaultBudget
        val stopsRight =
          if (found == target) trace.last
          else found < target && (trace.length == budget || trace.length == truth.nImages)
        if (trace.length > budget || !stopsRight)
          errs += s"stopped after ${trace.length} shown with $found found"

        if (run.spec.usesStore) {
          val shown = run.shown
          if (shown.length != trace.length) errs += s"${shown.length} images shown, trace has ${trace.length}"
          if (shown.distinct.length != shown.length) errs += "an image was shown twice"
          shown.zip(trace).zipWithIndex.foreach { case ((img, rel), i) =>
            if (truth.isRelevant(img, cat) != rel) errs += s"round ${i + 1}: label $rel for image $img is wrong"
          }
          if (run.spec.method.isInstanceOf[MethodConfig.Aligned])
            run.queries.drop(1).zipWithIndex.foreach { case (q, i) =>
              val norm = math.sqrt(q.map(v => v.toDouble * v).sum)
              if (!q.forall(v => !v.isNaN && !v.isInfinite) || math.abs(norm - 1.0) > 1e-5)
                errs += s"solve ${i + 1}: aligner output has norm $norm"
            }
          run.queries.indices.filter(checkLookup).foreach { i =>
            scan.check(run.queries(i), shown.take(i).toSet, run.answers(i))
              .foreach(e => errs += s"lookup ${i + 1}: $e")
          }
        }
        errs.result()
    }

  /** M_D: symmetric, non-negative on random quadratic probes, and with trace
    * dim × `DbAlign.TraceScale`.
    */
  def dbAlign(m: DbAlignMatrix): Seq[String] = {
    val d = m.dim
    val errs = Seq.newBuilder[String]
    val maxAbs = m.m.map(math.abs).max
    var asym = 0.0
    for (i <- 0 until d; j <- i + 1 until d) asym = math.max(asym, math.abs(m.m(i * d + j) - m.m(j * d + i)))
    if (asym > 1e-9 * maxAbs) errs += s"M_D is not symmetric (max |m_ij - m_ji| = $asym)"
    val tr = (0 until d).map(i => m.m(i * d + i)).sum
    val want = d * DbAlign.TraceScale
    if (math.abs(tr - want) > 1e-9 * want) errs += s"M_D trace $tr, expected $want"
    val rng = new java.util.Random(17)
    (0 until 32).foreach { _ =>
      val w = Array.fill(d)(rng.nextGaussian())
      val qf = m.quadForm(w)
      if (qf < -1e-12 * tr * w.map(x => x * x).sum) errs += s"M_D quadratic form $qf < 0"
    }
    errs.result()
  }
}
