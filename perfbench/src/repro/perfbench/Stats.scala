package repro.perfbench

/** Sample statistics and throughput accounting shared by every workload. */
object Stats {

  /** A tail percentile counts as measured only with this many samples
    * strictly beyond it. */
  val MinBeyond = 10

  /** 0-based nearest-rank index of percentile `q` (0 < q <= 1) among `n`
    * sorted samples. The epsilon keeps q·n exact when it is an integer in
    * real arithmetic (0.9 · 100 is 90.00000000000001 in binary). */
  def rank(n: Int, q: Double): Int = {
    require(n >= 1 && q > 0 && q <= 1, s"percentile $q of $n samples")
    math.max(0, math.ceil(q * n - 1e-9).toInt - 1)
  }

  /** Number of samples ranked strictly above percentile `q`. */
  def beyond(n: Int, q: Double): Int = n - 1 - rank(n, q)

  /** Smallest sample count that leaves [[MinBeyond]] samples beyond `q`. */
  def minSamples(q: Double): Int = Iterator.from(1).find(beyond(_, q) >= MinBeyond).get

  /** Nearest-rank percentile; fails when fewer than [[MinBeyond]] samples
    * lie beyond it, so an under-sampled tail is never reported. */
  def tail(xs: Seq[Double], q: Double): Double = {
    require(beyond(xs.size, q) >= MinBeyond,
      s"p${(q * 100).round} needs ${minSamples(q)} samples, got ${xs.size}")
    quantile(xs, q)
  }

  /** Nearest-rank percentile `q` of `xs`, without the tail rule. */
  def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, s"p${(q * 100).round} of no samples")
    xs.sorted.apply(rank(xs.size, q))
  }

  /** Median (mean of the two middle samples for an even count). */
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val m = s.size / 2
    if (s.size % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2
  }

  /** Throughput in MB/s (10^6 bytes) of `bytes` processed in `seconds`. */
  def mbps(bytes: Long, seconds: Double): Double = {
    require(seconds > 0, s"non-positive duration $seconds")
    bytes / 1e6 / seconds
  }

  /** The percentile of each input's times that throughput is computed
    * from: the fastest tenth. On a shared host each vCPU flips between a
    * fast state and one about 1.6x slower (other tenants' load), so a
    * run's median follows how long it happened to spend in the slow state;
    * its fastest samples, taken while run.py moves the measuring thread
    * round the vCPUs, stay with the codec's own speed. */
  val ThroughputQ = 0.1

  /** Throughput of a workload made of several inputs, each timed
    * separately: total bytes over the sum of each input's [[ThroughputQ]]
    * time, so the mix of inputs is fixed whatever number of samples each one
    * got. */
  def workloadMbps(inputs: Seq[(Long, Seq[Double])]): Double =
    mbps(inputs.map(_._1).sum, inputs.map { case (_, secs) => quantile(secs, ThroughputQ) }.sum)
}
