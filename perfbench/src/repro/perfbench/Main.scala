package repro.perfbench

import java.io.{File, PrintWriter}
import java.nio.file.{Files, Paths}
import scala.collection.immutable.ListMap
import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal

/** Benchmark JVM entry point, started by `perfbench/run.py`:
  *
  *   Main --work DIR --cpus N --workload temporal|spatial --seed S --seconds T --trace 0|1
  *   Main --work DIR --cpus N --self-test
  *
  * Prints report lines starting with '#' (sample counts, archive SHA-256
  * digests, failures, metrics), `@round` lines for run.py, and, last, the
  * result JSON object. */
object Main {
  private def report(line: String): Unit = println(s"# $line")

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val code =
      try {
        if (args.contains("--self-test")) SelfTest.run()
        else run(opts("workload"), opts("seed").toLong, opts("seconds").toDouble, opts("trace") == "1",
          opts("cpus").toInt, new File(opts("work")))
      } catch { case e: Throwable => e.printStackTrace(); 1 }
    System.out.flush()
    sys.exit(code)
  }

  def run(workload: String, seed: Long, seconds: Double, traced: Boolean, cpus: Int, work: File): Int = {
    val gate     = new Gate
    val problems = ArrayBuffer.empty[String]
    val inputs = workload match {
      case "temporal" => Inputs.temporal _
      case "spatial"  => Inputs.spatial _
      case other      => sys.error(s"unknown workload $other")
    }
    var built = IndexedSeq.empty[Built]
    // An error that ends the run early (a build that throws, or a sample set
    // left empty by an operation failing every time) is counted as a failure,
    // so the result line still reports it, without metrics.
    val metrics: Seq[CodecWorkload.Metric] =
      try {
        val (b, setupS) = CodecWorkload.setup(inputs(seed), gate)
        built = b
        if (!traced) CodecWorkload.measure(built, seed, seconds, gate, report, announceRound) :+ (("setup_s", setupS, "s"))
        else {
          // Half the budget on replay passes; the sparkio layer is traced
          // once, on the temporal workload only.
          val passes = CodecWorkload.trace(built, seed, seconds / 2, gate, problems)
          val spark  = if (workload == "temporal") Some(new SparkTrace(cpus, work, seed, gate, problems).run()) else None
          problems.foreach(p => report(s"trace invalid: $p"))
          writeTrace(new File(work, s"trace/$workload-seed$seed.jsonl"), passes ++ spark)
          Layers.summarize(passes, spark, valid = problems.isEmpty)
        }
      } catch { case NonFatal(e) => gate.error(s"$workload run", e); Seq.empty }

    built.foreach(b => report(s"digest $workload/${b.series.name} ${b.digest}"))
    gate.failures.foreach(f => report(s"FAILED $f"))
    metrics.foreach { case (name, v, unit) => report(f"$name%-40s $v%.6g $unit") }
    println(Json(ListMap(
      "correct"   -> (gate.failed == 0),
      "attempted" -> gate.attempted,
      "failed"    -> gate.failed,
      "metrics"   -> ListMap(metrics.map { case (name, v, unit) => name -> ListMap("value" -> v, "unit" -> unit) }: _*),
    )))
    0
  }

  /** Linux id of the calling thread, when /proc gives it. */
  private def threadId: Option[String] =
    scala.util.Try(Files.readSymbolicLink(Paths.get("/proc/thread-self")).getFileName.toString).toOption

  /** Tells run.py that measuring round `k` starts on this thread, as
    * `@round <k> <thread id>`; run.py then moves the thread to its next
    * vCPU (see run.py). */
  private def announceRound(k: Int): Unit =
    threadId.foreach { tid => println(s"@round $k $tid"); System.out.flush() }

  private def writeTrace(file: File, passes: Seq[Tracer]): Unit = {
    file.getParentFile.mkdirs()
    val w = new PrintWriter(file)
    try passes.foreach(_.toJsonLines.foreach(w.println)) finally w.close()
    report(s"spans written to ${file.getName}")
  }
}
