package repro.perfbench

import repro.core.Frame
import repro.metrics.Metrics

/** The harness's own tests: percentile selection, the "at least ten samples
  * beyond the tail" rule, MB/s accounting and the JSON writer. Run with
  * `python3 perfbench/run.py --self-test`. */
object SelfTest {
  private var failures = 0

  private def expect(what: String)(ok: => Boolean): Unit =
    if (!scala.util.Try(ok).getOrElse(false)) { failures += 1; println(s"# self-test FAILED: $what") }

  private def throws(body: => Any): Boolean = scala.util.Try(body).isFailure

  def run(): Int = {
    val xs = (1 to 100).map(_.toDouble)
    expect("p50 of 1..100 is the 50th value")(Stats.tail(xs, 0.5) == 50.0)
    expect("p90 of 1..100 is the 90th value, despite 0.9*100 rounding up")(Stats.tail(xs, 0.9) == 90.0)
    expect("p75 of 1..40 is the 30th value")(Stats.tail((1 to 40).map(_.toDouble), 0.75) == 30.0)
    expect("p100 leaves nothing beyond")(Stats.beyond(10, 1.0) == 0)
    expect("percentile order does not depend on input order")(
      Stats.tail(scala.util.Random.shuffle(xs), 0.75) == 75.0)
    expect("p75 needs 40 samples")(Stats.minSamples(0.75) == 40)
    expect("p90 needs 100 samples")(Stats.minSamples(0.9) == 100)
    expect("p99 needs 1000 samples")(Stats.minSamples(0.99) == 1000)
    expect("p50 needs 20 samples")(Stats.minSamples(0.5) == 20)
    expect("p75 of 39 samples is refused")(throws(Stats.tail((1 to 39).map(_.toDouble), 0.75)))
    expect("p90 of 99 samples is refused")(throws(Stats.tail((1 to 99).map(_.toDouble), 0.9)))
    expect("median of odd count")(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    expect("median of even count")(Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5)

    // MB/s accounting: FP32 sizes (12 bytes per particle), 10^6 bytes per MB.
    val frames = IndexedSeq.fill(2)(Frame(new Array[Double](1000), new Array[Double](1000), new Array[Double](1000)))
    expect("input bytes are FP32-accounted")(Series("t", frames, repro.core.Lcp.LcpConfig(1e-2)).inputBytes == 24000L)
    expect("FP32 accounting matches Metrics")(Metrics.originalSizeBytes(frames) == 24000L)
    expect("1e6 bytes in 1 s is 1 MB/s")(Stats.mbps(1000000L, 1.0) == 1.0)
    expect("12 MB in 2 s is 6 MB/s")(Stats.mbps(12000000L, 2.0) == 6.0)
    expect("zero duration is refused")(throws(Stats.mbps(1L, 0.0)))
    expect("p10 of 1..20 is the 2nd value")(Stats.quantile((1 to 20).map(_.toDouble).reverse, 0.1) == 2.0)
    expect("workload MB/s sums bytes over the sum of per-input fastest tenths")(
      Stats.workloadMbps(Seq((2000000L, (1 to 20).map(_.toDouble).reverse), (2000000L, Seq(2.0)))) == 1.0)
    expect("workload MB/s ignores how many samples each input got")(
      Stats.workloadMbps(Seq((1000000L, Seq(1.0)), (1000000L, Seq.fill(50)(1.0)))) == 1.0)

    expect("JSON escapes and nests")(
      Json(scala.collection.immutable.ListMap("a\"b" -> List[Any](1, 2.5), "c" -> true)) == "{\"a\\\"b\":[1,2.5],\"c\":true}")
    expect("JSON refuses NaN")(throws(Json(Double.NaN)))

    val tr = new Tracer(0)
    val (_, parent) = tr.span("outer") { tr.span("inner")(Thread.sleep(5)); Thread.sleep(5) }
    tr.spans.transform(s => if (s.name == "inner") s.copy(parent = parent) else s)
    expect("self time excludes child spans")(tr.self("outer") < tr.total("outer") - 0.004)
    tr.duplicate(Thread.sleep(5))
    expect("duplicated work is timed apart from the spans")(tr.duplicateSeconds >= 0.004 && tr.spans.size == 2)

    println(s"# self-test: ${if (failures == 0) "all passed" else s"$failures failed"}")
    if (failures == 0) 0 else 1
  }
}
