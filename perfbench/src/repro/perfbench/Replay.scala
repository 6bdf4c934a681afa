package repro.perfbench

import java.io.{ByteArrayInputStream, ByteArrayOutputStream}
import java.util.Arrays
import scala.collection.mutable
import repro.coding.{ByteIO, Dictionary, IntCoder}
import repro.core._
import repro.core.Lcp.{EbScaleMode, LcpArchive}

/** Traced replay of what `Lcp.compress` and `Lcp.decompressAll` did for one
  * archive, through the public stage calls of `core` and `coding`.
  *
  * Compression re-runs Algorithm 1: the §7.4.1 block-size sweep, the §7.4.2
  * probe and micro-trial, and per frame the LCP-FSM decision with LCP-S or
  * LCP-T. Each `LcpS.compress` / `LcpT.compress` call is timed whole, then
  * its stages (quantization, blocking, `IntCoder.encode`, Zstd) are called
  * one by one on the same input as its child spans, so its self time is the
  * whole call minus those stages. Decompression does the same with
  * `LcpS.decompress` / `LcpT.decompress`.
  *
  * The replay is checked against the archive: the chosen p, anchor eb scale,
  * per-frame method and trial count must match `Result`, every replayed
  * payload must equal the archive's bytes, and every stage decomposition
  * must reproduce the whole call's output. Any mismatch is returned as a
  * problem, and the caller then reports the trace as invalid. The
  * decompositions and checks run under `Tracer.duplicate`, so the tracing
  * overhead leaves them out.
  */
final class Replay(b: Built, tr: Tracer, problems: mutable.Buffer[String]) {
  private val s   = b.series
  private val cfg = s.cfg
  private val a   = b.archive

  private def problem(what: String): Unit = if (problems.size < 20) problems += s"${s.name} $what"

  private def item(i: Int) = s"${s.name}#$i"

  // Stage data kept from compression for the decode decomposition.
  private final case class SStages(z: Array[Byte], qf: Quantizer.QFrame, g: BlockIndex.Grouped, p: Int)
  private val sStages = mutable.Map.empty[Int, SStages]
  private val tStages = mutable.Map.empty[Int, Array[Byte]]

  private def encode(x: Array[Long], delta: Boolean, parent: Int, it: String): Array[Byte] = {
    val (enc, _) = tr.span("coding.intcoder.encode", parent, it)(IntCoder.encode(x, delta))
    tr.add("coding.intcoder.encode.symbols", x.length)
    tr.add(if ((enc(0) & 2) != 0) "coding.intcoder.encode.huffman_arrays" else "coding.intcoder.encode.fixed_arrays", 1)
    enc
  }

  private def zstd(body: Array[Byte], parent: Int, it: String): Array[Byte] = {
    val (z, _) = tr.span("coding.zstd.compress", parent, it)(Dictionary.compress(body))
    tr.add("coding.zstd.bytes_in", body.length)
    tr.add("coding.zstd.bytes_out", z.length)
    z
  }

  private def sections(arrays: Seq[Array[Byte]]): Array[Byte] = {
    val body = new ByteArrayOutputStream()
    arrays.foreach(ByteIO.writeSection(body, _))
    body.toByteArray
  }

  private def endsWith(bytes: Array[Byte], tail: Array[Byte]): Boolean =
    bytes.length >= tail.length &&
      Arrays.equals(bytes, bytes.length - tail.length, bytes.length, tail, 0, tail.length)

  private def lcpS(f: Frame, eb: Double, p: Int, i: Int): LcpS.SResult = {
    val it = item(i)
    val a0 = Codec.allocated()
    val (res, id) = tr.span("core.lcps.compress", item = it)(LcpS.compress(f, eb, p))
    tr.add("core.lcps.compress.alloc_B", Codec.allocated() - a0)
    tr.duplicate {
      val (qf, _) = tr.span("core.quantize", id, it)(Quantizer.quantizeFrame(f, eb))
      val (g, _)  = tr.span("core.block_group", id, it)(BlockIndex.group(qf, p))
      tr.add("core.block_group.blocks", g.blockIds.length)
      val z = zstd(sections(Seq(g.blockIds, g.counts, g.relX, g.relY, g.relZ).map(encode(_, delta = true, id, it))), id, it)
      if (!endsWith(res.bytes, z)) problem(s"frame $i: LCP-S stages do not reproduce LcpS.compress")
      sStages(i) = SStages(z, qf, g, p)
    }
    res
  }

  private def lcpT(aligned: Frame, prev: Frame, i: Int): (LcpT.TResult, Int, Array[Byte]) = {
    val it = item(i)
    val a0 = Codec.allocated()
    val (res, id) = tr.span("core.lcpt.compress", item = it)(LcpT.compress(aligned, prev, cfg.eb))
    tr.add("core.lcpt.compress.alloc_B", Codec.allocated() - a0)
    val z = tr.duplicate {
      val qs = Seq((aligned.x, prev.x), (aligned.y, prev.y), (aligned.z, prev.z)).map { case (cur, pr) =>
        Array.tabulate(cur.length)(k => Quantizer.quantizeResidual(cur(k), pr(k), cfg.eb))
      }
      val z = zstd(sections(qs.map(encode(_, delta = false, id, it))), id, it)
      if (!endsWith(res.bytes, z)) problem(s"frame $i: LCP-T stages do not reproduce LcpT.compress")
      z
    }
    (res, id, z)
  }

  private def payload(i: Int): Array[Byte] = {
    val e = a.entries(i)
    if (e.inAnchor) a.anchors(e.slot) else a.batches(i / a.batchSize)(e.slot)
  }

  /** §7.4.2 micro-trial, as `Lcp.compress` runs it: a particle-sampled
    * 3-batch prefix compressed with and without the anchor scale. */
  private def scalingPays(p: Int): Boolean = {
    val prefix = s.frames.take(3 * cfg.batchSize)
    val n      = prefix.head.n
    if (n == 0 || prefix.exists(_.n != n)) return false
    val sampled =
      if (n <= 4096) prefix
      else {
        val stride = n.toDouble / 4096
        val idx    = Array.tabulate(4096)(k => (k * stride).toInt)
        prefix.map(_.reorder(idx))
      }
    def size(mode: EbScaleMode) =
      Lcp.compress(sampled, cfg.copy(ebScaleMode = mode, blockSizeP = Some(p))).archive.compressedSizeBytes
    size(Lcp.Forced(EbScale.Factor)) < size(Lcp.Off)
  }

  /** Replay the compression of the whole series. */
  def compress(): Unit = {
    val frames = s.frames
    val p = cfg.blockSizeP.getOrElse {
      val ((bp, sizes), _) = tr.span("core.blocksize_sweep", item = s.name)(BlockSizeOpt.bestBlockSize(frames.head, cfg.eb))
      tr.add("core.blocksize_sweep.candidates", sizes.size)
      bp
    }
    if (p != a.p) problem(s"block size $p, archive has ${a.p}")
    val scale = cfg.ebScaleMode match {
      case Lcp.Off       => 1.0
      case Lcp.Forced(f) => f
      case Lcp.Auto      =>
        val batches = (frames.size + cfg.batchSize - 1) / cfg.batchSize
        val pays = batches >= 3 &&
          tr.span("core.ebscale.probe", item = s.name)(EbScale.highTemporalCorrelation(frames, cfg.eb))._1 &&
          tr.span("core.ebscale.trial", item = s.name)(scalingPays(p))._1
        if (pays) EbScale.Factor else 1.0
    }
    if (scale != a.anchorEbScale) problem(s"anchor eb scale $scale, archive has ${a.anchorEbScale}")
    if (scale != 1.0) tr.add("core.ebscale.applied", 1)

    val fsm = new LcpFsm
    var prevRecon, anchorRecon: Frame = null
    var prevPerm, anchorPerm: Array[Int] = null
    var lastSSize = -1L
    var tTrials   = 0
    for ((f, i) <- frames.zipWithIndex) {
      val firstInBatch = i % cfg.batchSize == 0
      val basisRecon   = if (firstInBatch) anchorRecon else prevRecon
      val basisPerm    = if (firstInBatch) anchorPerm else prevPerm
      val canTemporal  = !cfg.disableTemporal && basisRecon != null && basisRecon.n == f.n && f.n > 0
      val sEb          = if (firstInBatch) cfg.eb / scale else cfg.eb
      var spatial: LcpS.SResult = null
      var temporal: LcpT.TResult = null
      if (!canTemporal || fsm.nextAction() == LcpFsm.UseSpatial) {
        spatial = lcpS(f, sEb, p, i)
        fsm.observe(compared = false, spatialWon = true)
      } else {
        val (t, tid, tz) = lcpT(f.reorder(basisPerm), basisRecon, i)
        tTrials += 1
        tr.add("core.fsm.t_trials", 1)
        val sEst = if (lastSSize >= 0) lastSSize else { spatial = lcpS(f, sEb, p, i); spatial.bytes.length.toLong }
        val spatialWon = sEst <= t.bytes.length
        if (spatialWon) {
          tr.add("core.fsm.wasted_trial_s", tr.seconds(tid))
          if (spatial == null) spatial = lcpS(f, sEb, p, i)
        } else {
          tr.add("core.fsm.t_wins", 1)
          spatial = null
          temporal = t
          tStages(i) = tz
        }
        fsm.observe(compared = true, spatialWon = spatialWon)
      }
      val method = if (spatial != null) 'S' else 'T'
      tr.duplicate {
        if (method != b.result.methods(i)) problem(s"frame $i: replay chose $method, archive has ${b.result.methods(i)}")
        else if (a.entries(i).temporal != (method == 'T') || a.entries(i).inAnchor != (spatial != null && firstInBatch))
          problem(s"frame $i: archive entry ${a.entries(i)} disagrees with method $method")
        else if (!Arrays.equals(if (spatial != null) spatial.bytes else temporal.bytes, payload(i)))
          problem(s"frame $i: replayed payload differs from the archive")
      }
      if (spatial != null) {
        lastSSize = spatial.bytes.length.toLong
        if (firstInBatch) { anchorRecon = spatial.recon; anchorPerm = spatial.perm }
        prevRecon = spatial.recon; prevPerm = spatial.perm
      } else {
        prevRecon = temporal.recon
        prevPerm = basisPerm
      }
    }
    if (tTrials != b.result.tTrials) problem(s"$tTrials LCP-T trials, archive result has ${b.result.tTrials}")
  }

  private def decodeS(i: Int): Frame = {
    val it = item(i)
    val (out, id) = tr.span("core.lcps.decompress", item = it)(LcpS.decompress(payload(i)))
    sStages.get(i).foreach { st =>
      val (body, _) = tr.span("coding.zstd.decompress", id, it)(Dictionary.decompress(st.z))
      val in = new ByteArrayInputStream(body)
      val Seq(ids, counts, rx, ry, rz) = Seq.fill(5) {
        val sec = ByteIO.readSection(in)
        tr.span("coding.intcoder.decode", id, it)(IntCoder.decode(new ByteArrayInputStream(sec)))._1
      }
      val ((qx, qy, qz), _) = tr.span("core.block_ungroup", id, it)(BlockIndex.ungroup(ids, counts, rx, ry, rz, st.p, st.g.bnx, st.g.bny))
      val q = st.qf
      if (!Gate.sameFrame(out, Quantizer.QFrame(qx, qy, qz, q.minX, q.minY, q.minZ, q.eb).dequantize))
        problem(s"frame $i: LCP-S decode stages do not reproduce LcpS.decompress")
    }
    out
  }

  private def decodeT(i: Int, basis: Frame): Frame = {
    val it = item(i)
    val (out, id) = tr.span("core.lcpt.decompress", item = it)(LcpT.decompress(payload(i), basis))
    tStages.get(i).foreach { z =>
      val (body, _) = tr.span("coding.zstd.decompress", id, it)(Dictionary.decompress(z))
      val in = new ByteArrayInputStream(body)
      val dims = Seq(basis.x, basis.y, basis.z).map { prev =>
        val q = tr.span("coding.intcoder.decode", id, it)(IntCoder.decode(new ByteArrayInputStream(ByteIO.readSection(in))))._1
        Array.tabulate(q.length)(k => Quantizer.reconResidual(prev(k), q(k), cfg.eb))
      }
      if (!Gate.sameFrame(out, Frame(dims(0), dims(1), dims(2))))
        problem(s"frame $i: LCP-T decode stages do not reproduce LcpT.decompress")
    }
    out
  }

  private val anchorFrame: Map[Int, Int] =
    a.entries.zipWithIndex.collect { case (e, i) if e.inAnchor => e.slot -> i }.toMap

  /** Replay `Lcp.decompressAll`, batch by batch, and check the frames it
    * decodes against the archive's reference decode. */
  def decompress(): Unit = {
    val out = mutable.ArrayBuffer.empty[Frame]
    for (batch <- a.batches.indices) {
      val start = batch * a.batchSize
      var prev: Frame = null
      for (i <- start until math.min(start + a.batchSize, a.numFrames)) {
        val e = a.entries(i)
        prev =
          if (!e.temporal) decodeS(i)
          else decodeT(i, if (i == start) decodeS(anchorFrame(e.anchorRef)) else prev)
        out += prev
      }
    }
    if (!Gate.sameFrames(out.toSeq, b.recon)) problem("replayed decode differs from Lcp.decompressAll")
  }

  /** Archive (de)serialization, and the frames `Lcp.decompressFrame` decodes
    * for each target: its temporal chain back to the nearest spatial frame,
    * plus the anchor frame when the chain starts at a temporal batch head. */
  def retrieval(targets: Seq[Int]): Unit = {
    val (bytes, _) = tr.span("core.archive.to_bytes", item = s.name)(a.toBytes)
    val (back, _)  = tr.span("core.archive.from_bytes", item = s.name)(LcpArchive.fromBytes(bytes))
    if (!Arrays.equals(bytes, b.bytes) || back.entries != a.entries) problem("archive does not round-trip")
    for (t <- targets) {
      val start = t / a.batchSize * a.batchSize
      var chainStart = t
      while (chainStart > start && a.entries(chainStart).temporal) chainStart -= 1
      val anchor = if (a.entries(chainStart).temporal) 1 else 0
      tr.add("core.retrieval.chain_frames", t - chainStart + 1 + anchor)
      tr.add("core.retrieval.targets", 1)
    }
  }
}
