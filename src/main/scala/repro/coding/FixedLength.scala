package repro.coding

/** Fixed-length bit packing: every value stored with the same bit width
  * (the width of the largest value). One of the two §6.2.2 coding choices.
  * Input values must be non-negative (zigzag first for signed data).
  */
object FixedLength {

  /** Bit width needed to store every value of `a` (0 for an all-zero array). */
  def widthFor(a: Array[Long]): Int = {
    var max = 0L
    var i   = 0
    while (i < a.length) { require(a(i) >= 0, "FixedLength requires non-negative input"); if (a(i) > max) max = a(i); i += 1 }
    Zigzag.bitWidth(max)
  }

  /** Pack `a` at width `width` bits per value. */
  def encode(a: Array[Long], width: Int): Array[Byte] = {
    val w = new BitWriter(((a.length.toLong * width + 7) / 8).toInt + 8)
    var i = 0
    while (i < a.length) { w.writeBits(a(i), width); i += 1 }
    w.toBytes
  }

  /** Unpack `n` values of `width` bits each. */
  def decode(bytes: Array[Byte], n: Int, width: Int): Array[Long] = {
    val r   = new BitReader(bytes)
    val out = new Array[Long](n)
    var i   = 0
    while (i < n) { out(i) = r.readBits(width); i += 1 }
    out
  }
}
