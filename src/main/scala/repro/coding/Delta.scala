package repro.coding

/** Delta coding: replace each value by its difference from the previous one
  * (the first value is kept as-is). §6.2.2 of the paper applies this to all
  * three per-block arrays before entropy coding.
  */
object Delta {

  /** Forward delta transform; returns a new array. */
  def encode(a: Array[Long]): Array[Long] = {
    if (a.isEmpty) return Array.emptyLongArray
    val out  = new Array[Long](a.length)
    out(0) = a(0)
    var i = 1
    while (i < a.length) { out(i) = a(i) - a(i - 1); i += 1 }
    out
  }
}
