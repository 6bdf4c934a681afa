package repro.perfbench

import scala.collection.mutable

/** One timed call: `parent` is the span whose work it is part of (-1 at the
  * top), `item` names the archive frame or Spark action it belongs to. */
final case class Span(id: Int, name: String, parent: Int, item: String, startNs: Long, endNs: Long) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** In-memory spans and counters of one traced pass, written out when the
  * benchmark ends. Spans are recorded around calls into the program from
  * the benchmark's own code; nothing inside the program is instrumented. */
final class Tracer(val pass: Int) {
  val spans    = mutable.ArrayBuffer.empty[Span]
  val counters = mutable.LinkedHashMap.empty[String, Double]
  private var nextId = 0

  /** Time `body` as a span; returns its result and the span id. */
  def span[T](name: String, parent: Int = -1, item: String = "")(body: => T): (T, Int) = {
    val id = nextId
    nextId += 1
    val t0 = System.nanoTime()
    val r  = body
    spans += Span(id, name, parent, item, t0, System.nanoTime())
    (r, id)
  }

  private var duplicateNs = 0L

  /** Run `body`, work the traced program does not do itself (a stage
    * decomposition re-running a call's stages, or a replay check), and
    * keep its time apart so it can be left out of the tracing overhead. */
  def duplicate[T](body: => T): T = {
    val t0 = System.nanoTime()
    try body finally duplicateNs += System.nanoTime() - t0
  }

  /** Seconds spent in [[duplicate]] so far. */
  def duplicateSeconds: Double = duplicateNs / 1e9

  def add(counter: String, v: Double): Unit = counters(counter) = counters.getOrElse(counter, 0.0) + v

  def seconds(id: Int): Double = spans.find(_.id == id).get.seconds

  /** Total seconds of every span named `name`. */
  def total(name: String): Double = spans.iterator.filter(_.name == name).map(_.seconds).sum

  /** Total self time of spans named `name`: each span's duration minus the
    * durations of its child spans. */
  def self(name: String): Double = {
    val children = spans.groupMapReduce(_.parent)(_.seconds)(_ + _)
    spans.iterator.filter(_.name == name).map(s => s.seconds - children.getOrElse(s.id, 0.0)).sum
  }

  def toJsonLines: Iterator[String] = spans.iterator.map { s =>
    Json(collection.immutable.ListMap("pass" -> pass, "id" -> s.id, "name" -> s.name,
      "parent" -> s.parent, "item" -> s.item, "start_ns" -> s.startNs, "end_ns" -> s.endNs))
  }
}
