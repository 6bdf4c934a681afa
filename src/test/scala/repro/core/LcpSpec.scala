package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.{PropSupport, TestFrames}
import repro.metrics.Metrics
import repro.core.Lcp._

class LcpSpec extends AnyFunSuite with PropSupport {

  private def checkBound(frames: IndexedSeq[Frame], r: Lcp.Result, eb: Double): Unit = {
    val dec = Lcp.decompressAll(r.archive)
    assert(dec.size == frames.size)
    frames.indices.foreach { i =>
      assert(dec(i).n == frames(i).n, s"frame $i particle count")
      assert(Metrics.withinBound(Metrics.maxAbsError(frames(i), dec(i), r.perms(i)), eb), s"frame $i bound")
    }
  }

  /** Same frame count and bit-identical x, y and z in every frame. */
  private def assertSameFrames(got: Seq[Frame], want: Seq[Frame]): Unit = {
    assert(got.size == want.size, "frame count")
    got.zip(want).zipWithIndex.foreach { case ((g, w), k) =>
      assert(java.util.Arrays.equals(g.x, w.x) && java.util.Arrays.equals(g.y, w.y) &&
        java.util.Arrays.equals(g.z, w.z), s"frame $k")
    }
  }

  test("single frame archive roundtrip") {
    val frames = IndexedSeq(TestFrames.bunny(500))
    val r = Lcp.compress(frames, LcpConfig(0.01, batchSize = 8))
    checkBound(frames, r, 0.01)
    assert(r.methods == IndexedSeq('S'))
  }

  test("multi-frame roundtrip on all four multi-frame datasets") {
    for (gen <- Seq(TestFrames.copper _, TestFrames.helium _, TestFrames.lj _, TestFrames.yiip _)) {
      val frames = gen(800, 6)
      val eb = 0.02
      val r = Lcp.compress(frames, LcpConfig(eb, batchSize = 4))
      checkBound(frames, r, eb)
    }
  }

  test("coherent data selects temporal compression for most frames") {
    val frames = TestFrames.copper(2000, 8)
    val r = Lcp.compress(frames, LcpConfig(0.05, batchSize = 4))
    assert(r.methods.count(_ == 'T') >= 4, s"methods were ${r.methods}")
  }

  test("single-frame batches force spatial everywhere except anchored heads") {
    val frames = TestFrames.copper(500, 4)
    val r = Lcp.compress(frames, LcpConfig(0.02, batchSize = 1))
    // Batch heads may still be temporal thanks to anchor frames (§7.3).
    assert(r.methods.head == 'S')
  }

  test("archive serialization roundtrip") {
    val frames = TestFrames.helium(600, 5)
    val r = Lcp.compress(frames, LcpConfig(0.01, batchSize = 2))
    val restored = LcpArchive.fromBytes(r.archive.toBytes)
    assert(restored.eb == r.archive.eb)
    assert(restored.batchSize == r.archive.batchSize)
    assert(restored.entries == r.archive.entries)
    val a = Lcp.decompressAll(r.archive)
    val b = Lcp.decompressAll(restored)
    a.zip(b).foreach { case (fa, fb) =>
      assert(fa.x.sameElements(fb.x) && fa.y.sameElements(fb.y) && fa.z.sameElements(fb.z))
    }
  }

  test("decompressBatch returns exactly the batch frames") {
    val frames = TestFrames.lj(400, 10)
    val r = Lcp.compress(frames, LcpConfig(0.02, batchSize = 4))
    val all = Lcp.decompressAll(r.archive)
    val b1 = Lcp.decompressBatch(r.archive, 1) // frames 4..7
    assertSameFrames(b1, all.slice(4, 8))
    assertSameFrames(Lcp.decompressBatch(r.archive, 2), all.slice(8, 10)) // short last batch
  }

  test("decompressFrame matches decompressAll for every frame") {
    val frames = TestFrames.copper(300, 9)
    val r = Lcp.compress(frames, LcpConfig(0.03, batchSize = 4))
    val all = Lcp.decompressAll(r.archive)
    assertSameFrames(frames.indices.map(Lcp.decompressFrame(r.archive, _)), all)
  }

  test("batch independence: a batch decodes using only its own payloads plus anchors") {
    val frames = TestFrames.helium(500, 8)
    val r = Lcp.compress(frames, LcpConfig(0.02, batchSize = 4))
    val a = r.archive
    // Wipe the other batch's payloads; target batch must still decode.
    val crippled = a.copy(batches = a.batches.updated(0, a.batches(0).map(_ => Array.emptyByteArray)))
    assertSameFrames(Lcp.decompressBatch(crippled, 1), Lcp.decompressBatch(a, 1))
  }

  test("frame retrieval decodes only the target's chain (§7.3 worst case)") {
    // The Copper setup of "anchor frames enable temporal batch heads", with a
    // scene cut at frame 6: the new sequence forces a spatial frame inside
    // batch 1, so some chains start after their batch head.
    val frames = TestFrames.copper(1500, 12).take(6) ++ repro.data.Particles.copper(1500, 6, 99)
    val a = Lcp.compress(frames, LcpConfig(0.05, batchSize = 4, ebScaleMode = Off)).archive
    val all = Lcp.decompressAll(a)
    var laterStarts, anchoredHeads = 0
    frames.indices.foreach { t =>
      val b     = t / a.batchSize
      val start = b * a.batchSize
      var chainStart = t
      while (chainStart > start && a.entries(chainStart).temporal) chainStart -= 1
      val head = a.entries(chainStart)
      val anchor =
        if (head.inAnchor) head.slot else if (chainStart == start && head.temporal) head.anchorRef else -1
      val slots = (chainStart to t).map(a.entries).filterNot(_.inAnchor).map(_.slot).toSet
      if (chainStart > start) laterStarts += 1
      if (head.temporal) anchoredHeads += 1
      val minimal = a.copy(
        anchors = a.anchors.indices.map(k => if (k == anchor) a.anchors(k) else Array.emptyByteArray),
        batches = a.batches.indices.map { k =>
          a.batches(k).indices.map(s => if (k == b && slots(s)) a.batches(k)(s) else Array.emptyByteArray)
        })
      assertSameFrames(Seq(Lcp.decompressFrame(minimal, t)), Seq(all(t)))
    }
    assert(laterStarts > 0 && anchoredHeads > 0, s"methods ${frames.indices.map(a.entries(_).temporal)}")
  }

  test("retrieval rejects out-of-range batch and frame indices") {
    val frames = TestFrames.lj(200, 6)
    val a = Lcp.compress(frames, LcpConfig(0.02, batchSize = 4)).archive // batches 0..3, 4..5
    val range = s"frames 0 until ${a.numFrames} in batches 0 until ${a.batches.size}"
    for (b <- Seq(-1, a.batches.size, Int.MaxValue)) {
      val e = intercept[IllegalArgumentException](Lcp.decompressBatch(a, b))
      assert(e.getMessage.contains(s"(batch $b)") && e.getMessage.contains(range), e.getMessage)
    }
    for (f <- Seq(-1, a.numFrames)) {
      val e = intercept[IllegalArgumentException](Lcp.decompressFrame(a, f))
      assert(e.getMessage.contains(s"frame $f ") && e.getMessage.contains(range), e.getMessage)
    }
  }

  test("anchor frames enable temporal batch heads") {
    val frames = TestFrames.copper(1500, 12)
    val r = Lcp.compress(frames, LcpConfig(0.05, batchSize = 4, ebScaleMode = Off))
    // With high coherence, some batch head beyond the first should go temporal.
    val headMethods = frames.indices.filter(_ % 4 == 0).map(r.methods)
    assert(headMethods.head == 'S')
    assert(headMethods.drop(1).contains('T'),
      s"expected an anchored temporal batch head, got $headMethods")
    checkBound(frames, r, 0.05)
  }

  test("eb scaling (Auto) tracks the micro-trial: never clearly worse than either fixed mode") {
    val frames = TestFrames.helium(1200, 12)
    val eb = 0.05
    val auto   = Lcp.compress(frames, LcpConfig(eb, batchSize = 4, ebScaleMode = Auto))
    val off    = Lcp.compress(frames, LcpConfig(eb, batchSize = 4, ebScaleMode = Off))
    val forced = Lcp.compress(frames, LcpConfig(eb, batchSize = 4, ebScaleMode = Forced(EbScale.Factor)))
    val bestFixed = math.min(off.archive.compressedSizeBytes, forced.archive.compressedSizeBytes)
    assert(auto.archive.compressedSizeBytes <= bestFixed * 1.10,
      s"Auto ${auto.archive.compressedSizeBytes} vs best fixed $bestFixed")
    checkBound(frames, auto, eb)
  }

  test("eb scaling (Auto) stays off when a single batch leaves no dependent heads") {
    val frames = TestFrames.copper(800, 8)
    val r = Lcp.compress(frames, LcpConfig(0.05, batchSize = 8, ebScaleMode = Auto))
    assert(r.archive.anchorEbScale == 1.0)
  }

  test("eb scaling stays off for incoherent data") {
    val frames = IndexedSeq(TestFrames.bunny(400), TestFrames.hacc(400), TestFrames.warpx(400))
    val r = Lcp.compress(frames, LcpConfig(0.05, batchSize = 4, ebScaleMode = Auto))
    assert(r.archive.anchorEbScale == 1.0)
  }

  test("forced eb scale factor is respected and bound still holds") {
    val frames = TestFrames.copper(600, 6)
    val r = Lcp.compress(frames, LcpConfig(0.05, batchSize = 3, ebScaleMode = Forced(10.0)))
    assert(r.archive.anchorEbScale == 10.0)
    checkBound(frames, r, 0.05)
  }

  test("disableTemporal yields all-spatial methods") {
    val frames = TestFrames.copper(500, 6)
    val r = Lcp.compress(frames, LcpConfig(0.05, batchSize = 3, disableTemporal = true))
    assert(r.methods.forall(_ == 'S'))
    checkBound(frames, r, 0.05)
  }

  test("varying particle counts across frames fall back to spatial") {
    val frames = IndexedSeq(TestFrames.bunny(300), TestFrames.bunny(301), TestFrames.bunny(302))
    val r = Lcp.compress(frames, LcpConfig(0.01, batchSize = 8))
    assert(r.methods.forall(_ == 'S'))
    checkBound(frames, r, 0.01)
  }

  test("empty frames are tolerated") {
    val frames = IndexedSeq(Frame.empty, Frame.empty)
    val r = Lcp.compress(frames, LcpConfig(0.1, batchSize = 2))
    assert(Lcp.decompressAll(r.archive).forall(_.n == 0))
  }

  test("FSM trial overhead stays low when spatial always wins") {
    // Independent surface scans: each frame is spatially compressible but
    // frame-to-frame diffs are noise, so LCP-S wins every comparison and
    // the FSM must back its LCP-T trials off exponentially.
    val frames = IndexedSeq.tabulate(40)(k => repro.data.Particles.bunZipper(500, seed = 100 + k))
    val r = Lcp.compress(frames, LcpConfig(0.01, batchSize = 40))
    assert(r.methods.count(_ == 'T') <= 2, s"methods were ${r.methods}")
    assert(r.tTrials < 15, s"too many LCP-T trials: ${r.tTrials}")
  }

  test("compression is deterministic") {
    val frames = TestFrames.yiip(400, 4)
    val a = Lcp.compress(frames, LcpConfig(0.02, batchSize = 2)).archive.toBytes
    val b = Lcp.compress(frames, LcpConfig(0.02, batchSize = 2)).archive.toBytes
    assert(a.sameElements(b))
  }

  test("batch sizes 8 and 16 both roundtrip") {
    for (bs <- Seq(8, 16)) {
      val frames = TestFrames.helium(300, 20)
      val r = Lcp.compress(frames, LcpConfig(0.02, batchSize = bs))
      checkBound(frames, r, 0.02)
    }
  }

  test("temporal batch head depends on nearest anchor, not previous batch tail") {
    val frames = TestFrames.copper(800, 12)
    val r = Lcp.compress(frames, LcpConfig(0.05, batchSize = 4))
    // Find a temporal batch head; its anchorRef must point at an anchor
    // that decodes standalone.
    val heads = frames.indices.filter(i => i % 4 == 0 && r.archive.entries(i).temporal)
    heads.foreach { i =>
      val ref = r.archive.entries(i).anchorRef
      assert(ref >= 0 && ref < r.archive.anchors.size)
      val anchor = LcpS.decompress(r.archive.anchors(ref))
      assert(anchor.n == frames(i).n)
    }
  }
}
