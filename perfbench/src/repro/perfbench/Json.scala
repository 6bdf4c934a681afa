package repro.perfbench

/** Minimal JSON writer for the result line and the trace file. */
object Json {
  def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    (b += '"').toString
  }

  def apply(v: Any): String = v match {
    case null                => "null"
    case s: String           => str(s)
    case b: Boolean          => b.toString
    case d: Double           =>
      require(!d.isNaN && !d.isInfinite, s"non-finite number $d")
      d.toString
    case n: Int              => n.toString
    case n: Long             => n.toString
    case m: collection.Map[_, _] =>
      m.map { case (k, x) => str(k.toString) + ":" + apply(x) }.mkString("{", ",", "}")
    case s: Iterable[_]      => s.map(apply).mkString("[", ",", "]")
    case other               => sys.error(s"cannot write ${other.getClass} as JSON")
  }
}
