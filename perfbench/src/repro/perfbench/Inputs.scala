package repro.perfbench

import repro.core.Frame
import repro.core.Lcp.LcpConfig
import repro.data.Particles
import repro.metrics.Metrics

/** One archive's worth of input: the frames and the codec configuration. */
final case class Series(name: String, frames: IndexedSeq[Frame], cfg: LcpConfig) {
  /** FP32-accounted size, the base of every MB/s figure. */
  val inputBytes: Long = Metrics.originalSizeBytes(frames)
}

/** The workloads' inputs, generated from the benchmark seed alone. */
object Inputs {
  val TemporalN      = 10000
  val TemporalFrames = 64
  val SpatialN       = 150000
  val StreamN        = 40000
  val StreamFrames   = 16
  val SparkN         = 4000
  val SparkFrames    = 64
  /** One batch per Spark group: four groups, so four compression tasks. */
  val SparkBatchesPerGroup = 1

  private def seeds(seed: Long, k: Int): IndexedSeq[Long] = {
    val r = new java.util.Random(seed)
    IndexedSeq.fill(k)(r.nextLong())
  }

  /** Four multi-frame MD sets at eb 1e-2, batch 16, default `LcpConfig`. */
  def temporal(seed: Long): IndexedSeq[Series] = {
    val s   = seeds(seed, 4)
    val cfg = LcpConfig(eb = 1e-2, batchSize = 16)
    IndexedSeq[(String, (Int, Int, Long) => IndexedSeq[Frame])](
      "Copper" -> Particles.copper, "Helium" -> Particles.helium,
      "LJ" -> Particles.lj, "YIIP" -> Particles.yiip,
    ).zip(s).map { case ((name, gen), sd) => Series(name, gen(TemporalN, TemporalFrames, sd), cfg) }
  }

  /** Block size of the snapshot stream. Chosen by the sweep, it followed
    * the seed's cluster layout (256 to 1024), and decoding time tripled
    * between choices, so the stream fixes the sweep's most common choice. */
  val StreamP = 256

  /** Four single-frame sets at eb 1e-3 (one 1-frame archive each, block
    * size from the sweep), plus a HACC snapshot stream with a fresh seed
    * per frame, batch 8. */
  def spatial(seed: Long): IndexedSeq[Series] = {
    val s   = seeds(seed, 4 + StreamFrames)
    val cfg = LcpConfig(eb = 1e-3)
    val single = IndexedSeq[(String, (Int, Long) => Frame)](
      "BUN-ZIPPER" -> Particles.bunZipper, "HACC" -> Particles.hacc,
      "WarpX" -> Particles.warpx, "3DEP" -> Particles.threeDep,
    ).zip(s).map { case ((name, gen), sd) => Series(name, IndexedSeq(gen(SpatialN, sd)), cfg) }
    val stream = IndexedSeq.tabulate(StreamFrames)(k => Particles.hacc(StreamN, s(4 + k)))
    single :+ Series("HACC-stream", stream, cfg.copy(batchSize = 8, blockSizeP = Some(StreamP)))
  }

  /** Helium at eb 1e-2, batch 16, for the traced Spark data-lake path. */
  def spark(seed: Long): Series =
    Series("Helium", Particles.helium(SparkN, SparkFrames, seeds(seed, 1).head), LcpConfig(eb = 1e-2, batchSize = 16))
}
