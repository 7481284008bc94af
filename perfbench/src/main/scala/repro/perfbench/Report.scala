package repro.perfbench

/** Order statistics over measured samples. */
object Stats {

  /** Linearly interpolated quantile, p in [0, 1] (numpy's default rule). */
  def quantile(xs: collection.Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "quantile of no samples")
    val s = xs.toArray.sorted
    val h = (s.length - 1) * p
    val lo = math.floor(h).toInt
    val hi = math.ceil(h).toInt
    s(lo) + (h - lo) * (s(hi) - s(lo))
  }

  def median(xs: collection.Seq[Double]): Double = quantile(xs, 0.5)

  def mean(xs: collection.Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size
}

/** One reported metric. */
final case class Metric(name: String, unit: String, value: Double)

/** What one benchmark run prints: the result line, plus human-readable
  * notes (sample counts, per-corpus breakdowns) printed before it.
  */
final case class Report(
    correct: Boolean,
    attempted: Int,
    failed: Int,
    metrics: Seq[Metric],
    notes: Seq[String],
) {
  require(attempted >= 1, "a run attempts at least one session")

  /** The last line of standard output: one JSON object. */
  def json: String = {
    val ms = metrics.map { m =>
      require(!m.value.isNaN && !m.value.isInfinite, s"metric ${m.name} is not finite")
      s""""${m.name}": {"value": ${m.value}, "unit": "${m.unit}"}"""
    }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}
