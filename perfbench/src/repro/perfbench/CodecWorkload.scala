package repro.perfbench

import scala.collection.mutable.ArrayBuffer

/** The `temporal` and `spatial` workloads: the codec on one thread in a
  * closed loop, each operation starting when the previous one returns. */
object CodecWorkload {
  /** (name, value, unit) of one reported metric. */
  type Metric = (String, Double, String)

  /** Setup repetitions; `setup_s` is their median. */
  val SetupReps = 3
  /** Throughput timings need this many samples per archive. */
  val MinSamples = 3
  /** The retrieval tail percentile. */
  val TailQ = 0.75

  /** Call `step(k)` for k = 0, 1, … until `budgetS` seconds have passed and
    * `enough` holds. A step that fails leaves `enough` unmet, so once the
    * budget is spent the loop also stops at the first new failure. */
  def loop(budgetS: Double, gate: Gate)(enough: => Boolean)(step: Int => Unit): Unit = {
    val end     = System.nanoTime() + (budgetS * 1e9).toLong
    val failed0 = gate.failed
    var k = 0
    while (System.nanoTime() < end || (!enough && gate.failed == failed0)) { step(k); k += 1 }
  }

  /** `<name>.p50` and `<name>.p75` of samples in milliseconds. */
  private def latency(name: String, ms: Seq[Double]): Seq[Metric] =
    Seq((s"$name.p50", Stats.median(ms), "ms"), (s"$name.p75", Stats.tail(ms, TailQ), "ms"))

  /** Generate the inputs and build every archive `SetupReps` times (the
    * first pass also warms the JIT); keeps the last build. Every rebuild
    * must reproduce the first build's bytes. */
  def setup(gen: => IndexedSeq[Series], gate: Gate): (IndexedSeq[Built], Double) = {
    var built: IndexedSeq[Built] = null
    val times = (1 to SetupReps).map { rep =>
      val t0 = System.nanoTime()
      val next = gen.map(Codec.build(_, gate))
      val dt = (System.nanoTime() - t0) / 1e9
      if (built != null)
        gate.check(s"setup $rep: archives reproduce")(built.map(_.digest) == next.map(_.digest))
      built = next
      dt
    }
    (built, Stats.median(times))
  }

  /** Decompressions of every archive per measuring round. */
  val DecompressPerRound = 2
  /** Frame and batch retrievals per measuring round. */
  val RetrievalsPerRound = 16

  /** End-to-end metrics from rounds repeated for `seconds`. A round
    * compresses every archive once, decompresses each
    * [[DecompressPerRound]] times and makes [[RetrievalsPerRound]] frame and
    * batch retrievals, so a slow drift of the host's speed over the run
    * reaches every metric alike. Each round starts with `newRound(k)`. */
  def measure(built: IndexedSeq[Built], seed: Long, seconds: Double, gate: Gate,
              report: String => Unit, newRound: Int => Unit): Seq[Metric] = {
    val n      = built.size
    val comp   = Array.fill(n)(ArrayBuffer.empty[Double])
    val alloc  = Array.fill(n)(ArrayBuffer.empty[Double])
    val decomp = Array.fill(n)(ArrayBuffer.empty[Double])
    // Retrieval reads the multi-frame archives. Targets cycle through a
    // seeded shuffle of every frame (every batch) of them, so each run
    // samples the same mix of temporal-chain lengths.
    val chains  = built.filter(_.numFrames > 1)
    val rng     = new scala.util.Random(seed)
    val frames  = rng.shuffle(for (b <- chains; f <- 0 until b.numFrames) yield (b, f))
    val batches = rng.shuffle(for (b <- chains; j <- b.archive.batches.indices) yield (b, j))
    val minRet  = Stats.minSamples(TailQ)
    val frameMs, batchMs = ArrayBuffer.empty[Double]
    def enough = comp.forall(_.size >= MinSamples) && decomp.forall(_.size >= MinSamples) &&
      frameMs.size >= minRet && batchMs.size >= minRet
    loop(seconds, gate)(enough) { round =>
      newRound(round)
      for (i <- 0 until n) {
        val a0 = Codec.allocated()
        Codec.compress(built(i), gate).foreach { t => comp(i) += t; alloc(i) += (Codec.allocated() - a0).toDouble }
        for (_ <- 1 to DecompressPerRound) Codec.decompress(built(i), gate).foreach(decomp(i) += _)
      }
      for (r <- round * RetrievalsPerRound until (round + 1) * RetrievalsPerRound) {
        val (fb, f) = frames(r % frames.size)
        Codec.frameRetrieval(fb, f, gate).foreach(frameMs += _ * 1e3)
        val (bb, j) = batches(r % batches.size)
        Codec.batchRetrieval(bb, j, gate).foreach(batchMs += _ * 1e3)
      }
    }
    report(s"samples: compress ${comp.map(_.size).mkString("/")}, decompress ${decomp.map(_.size).mkString("/")}, " +
      s"frame retrieval ${frameMs.size}, batch retrieval ${batchMs.size}")
    val input = built.map(_.series.inputBytes)
    Seq(
      ("compress_MBps", Stats.workloadMbps(input.zip(comp.map(_.toSeq))), "MB/s"),
      ("decompress_MBps", Stats.workloadMbps(input.zip(decomp.map(_.toSeq))), "MB/s"),
    ) ++ latency("frame_retrieval_ms", frameMs.toSeq) ++ latency("batch_retrieval_ms", batchMs.toSeq) ++ Seq(
      ("compression_ratio", input.sum.toDouble / built.map(_.bytes.length.toLong).sum, "ratio"),
      ("compress_alloc_B_per_B", alloc.map(a => Stats.median(a.toSeq)).sum / input.sum, "B/B"),
    )
  }

  /** Seeded retrieval targets for the traced chain count. */
  def targets(b: Built, rng: java.util.Random): Seq[Int] =
    if (b.numFrames > 1) Seq.fill(16)(rng.nextInt(b.numFrames)) else Seq.empty

  /** Traced passes until `seconds` have passed (at least one): an untraced
    * compression of every archive, then the traced replay of compression,
    * decompression and retrieval. Replay problems go to `problems`. The
    * tracing overhead compares the traced compression, less its stage
    * decompositions and checks, with the untraced one. */
  def trace(built: IndexedSeq[Built], seed: Long, seconds: Double, gate: Gate,
            problems: ArrayBuffer[String]): Seq[Tracer] = {
    val passes = ArrayBuffer.empty[Tracer]
    val rng    = new java.util.Random(seed)
    loop(seconds, gate)(passes.nonEmpty) { k =>
      val plain = built.flatMap(Codec.compress(_, gate)).sum
      val tr    = new Tracer(k)
      val t0    = System.nanoTime()
      val replays = built.map(b => new Replay(b, tr, problems))
      replays.foreach(_.compress())
      val traced = (System.nanoTime() - t0) / 1e9 - tr.duplicateSeconds
      tr.add("trace.overhead_ratio", traced / plain - 1)
      replays.foreach(_.decompress())
      replays.lazyZip(built).foreach((r, b) => r.retrieval(targets(b, rng)))
      passes += tr
    }
    passes.toSeq
  }
}
