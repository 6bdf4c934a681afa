package repro.perfbench

import scala.util.control.NonFatal
import repro.core.Frame

/** Correctness gate: every benchmarked operation is attempted through it,
  * and one that throws or returns a wrong result is counted as failed —
  * never dropped. Timings of failed operations are discarded. */
final class Gate {
  private var attemptedN = 0L
  private var failedN    = 0L
  private val notes      = collection.mutable.ArrayBuffer.empty[String]

  def attempted: Long = attemptedN
  def failed: Long    = failedN
  def failures: Seq[String] = notes.toSeq

  private def fail(what: String, why: String): Unit = {
    failedN += 1
    if (notes.size < 20) notes += s"$what: $why"
  }

  /** Run `body`, timing it; `ok` then verifies the result outside the
    * timed region. Returns the result and its duration in seconds. */
  def timed[T](what: String)(body: => T)(ok: T => Boolean): Option[(T, Double)] = {
    attemptedN += 1
    try {
      val t0 = System.nanoTime()
      val r  = body
      val dt = (System.nanoTime() - t0) / 1e9
      if (ok(r)) Some((r, dt)) else { fail(what, "wrong output"); None }
    } catch { case NonFatal(e) => fail(what, e.toString); None }
  }

  /** An error outside any single operation, counted as one failed one. */
  def error(what: String, e: Throwable): Unit = { attemptedN += 1; fail(what, e.toString) }

  /** An untimed verification counted as one operation. */
  def check(what: String)(ok: => Boolean): Boolean =
    timed(what)(())(_ => ok).isDefined
}

object Gate {
  /** Bit-for-bit equality of two frames (NaN payloads included). */
  def sameFrame(a: Frame, b: Frame): Boolean =
    a.n == b.n && sameBits(a.x, b.x) && sameBits(a.y, b.y) && sameBits(a.z, b.z)

  def sameFrames(a: Seq[Frame], b: Seq[Frame]): Boolean =
    a.size == b.size && a.lazyZip(b).forall(sameFrame)

  private def sameBits(a: Array[Double], b: Array[Double]): Boolean = {
    if (a.length != b.length) return false
    var i = 0
    while (i < a.length) {
      if (java.lang.Double.doubleToRawLongBits(a(i)) != java.lang.Double.doubleToRawLongBits(b(i))) return false
      i += 1
    }
    true
  }

  def sha256(bytes: Array[Byte]): String =
    java.security.MessageDigest.getInstance("SHA-256").digest(bytes).map(b => f"${b & 0xff}%02x").mkString
}
