package repro.perfbench

import java.lang.management.ManagementFactory
import repro.core.{Frame, Lcp}
import repro.core.Lcp.LcpArchive
import repro.metrics.Metrics

/** A series compressed once: the archive bytes and reconstruction every
  * later operation on it is checked against. */
final case class Built(series: Series, result: Lcp.Result, bytes: Array[Byte], recon: IndexedSeq[Frame]) {
  val digest: String = Gate.sha256(bytes)
  def archive: LcpArchive = result.archive
  def numFrames: Int = series.frames.size
}

/** The codec operations the benchmark times, each with its output check. */
object Codec {
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** Heap bytes allocated so far by the calling thread. */
  def allocated(): Long = threads.getCurrentThreadAllocatedBytes

  /** Compress, serialize, parse and decode `s`, checking every decoded
    * frame against the error bound through `Result.perms`. */
  def build(s: Series, gate: Gate): Built = {
    val res   = Lcp.compress(s.frames, s.cfg)
    val bytes = res.archive.toBytes
    val recon = Lcp.decompressAll(LcpArchive.fromBytes(bytes))
    gate.check(s"${s.name}: decoded frame count")(recon.size == s.frames.size)
    for ((f, i) <- s.frames.zipWithIndex if i < recon.size)
      gate.check(s"${s.name} frame $i: error bound") {
        recon(i).n == f.n && Metrics.withinBound(Metrics.maxAbsError(f, recon(i), res.perms(i)), s.cfg.eb)
      }
    Built(s, res, bytes, recon)
  }

  def compress(b: Built, gate: Gate): Option[Double] =
    gate.timed(s"${b.series.name}: compress")(Lcp.compress(b.series.frames, b.series.cfg).archive.toBytes)(
      java.util.Arrays.equals(_, b.bytes)).map(_._2)

  def decompress(b: Built, gate: Gate): Option[Double] =
    gate.timed(s"${b.series.name}: decompress")(Lcp.decompressAll(LcpArchive.fromBytes(b.bytes)))(
      Gate.sameFrames(_, b.recon)).map(_._2)

  def frameRetrieval(b: Built, frame: Int, gate: Gate): Option[Double] =
    gate.timed(s"${b.series.name}: frame $frame")(Lcp.decompressFrame(LcpArchive.fromBytes(b.bytes), frame))(
      Gate.sameFrame(_, b.recon(frame))).map(_._2)

  def batchRetrieval(b: Built, batch: Int, gate: Gate): Option[Double] = {
    val start = batch * b.series.cfg.batchSize
    val want  = b.recon.slice(start, start + b.series.cfg.batchSize)
    gate.timed(s"${b.series.name}: batch $batch")(Lcp.decompressBatch(LcpArchive.fromBytes(b.bytes), batch))(
      Gate.sameFrames(_, want)).map(_._2)
  }
}
