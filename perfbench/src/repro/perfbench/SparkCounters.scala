package repro.perfbench

import scala.collection.mutable
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** Task, shuffle-write and input-byte counters per Spark job group, from a
  * listener the benchmark registers.
  *
  * The listener bus delivers events asynchronously, so the counters of a
  * group are read only after a sentinel job, started once the measured
  * action has returned, has been seen to end: the scheduler posts events in
  * order, so by then every event of the measured jobs has been delivered.
  * The group's counters are complete when each of its submitted stages has
  * reported as many task ends as it had tasks. */
final class SparkCounters extends SparkListener {
  final class Group {
    var tasks = 0L
    var shuffleWriteBytes = 0L
    var inputBytes = 0L
    var jobsStarted = 0
    var jobsEnded = 0
    val stageTasks = mutable.Map.empty[Int, Int]
    val stageEnds  = mutable.Map.empty[Int, Int]
    def complete: Boolean =
      jobsStarted > 0 && jobsEnded == jobsStarted &&
        stageTasks.forall { case (st, n) => stageEnds.getOrElse(st, 0) >= n }
  }

  private val groups     = mutable.Map.empty[String, Group]
  private val jobGroup   = mutable.Map.empty[Int, String]
  private val stageGroup = mutable.Map.empty[Int, String]

  private def groupOf(props: java.util.Properties): Option[String] =
    Option(props).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    groupOf(e.properties).foreach { g =>
      jobGroup(e.jobId) = g
      groups.getOrElseUpdate(g, new Group).jobsStarted += 1
    }
    notifyAll()
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobGroup.get(e.jobId).foreach(groups(_).jobsEnded += 1)
    notifyAll()
  }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = synchronized {
    groupOf(e.properties).foreach { g =>
      stageGroup(e.stageInfo.stageId) = g
      groups.getOrElseUpdate(g, new Group).stageTasks(e.stageInfo.stageId) = e.stageInfo.numTasks
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    stageGroup.get(e.stageId).foreach { g =>
      val c = groups(g)
      c.tasks += 1
      c.stageEnds(e.stageId) = c.stageEnds.getOrElse(e.stageId, 0) + 1
      Option(e.taskMetrics).foreach { m =>
        c.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
        c.inputBytes += m.inputMetrics.bytesRead
      }
    }
  }

  private var sentinels = 0

  /** Run `body` with its jobs in group `name`; returns its result and the
    * group's counters once they are complete (None on timeout). */
  def measure[T](sc: SparkContext, name: String)(body: => T): (T, Option[Group]) = {
    sc.setJobGroup(name, name)
    val r = try body finally sc.clearJobGroup()
    sentinels += 1
    val sentinel = s"$name.sentinel$sentinels"
    sc.setJobGroup(sentinel, sentinel)
    try sc.parallelize(Seq(1), 1).count() finally sc.clearJobGroup()
    val deadline = System.nanoTime() + 30L * 1000000000L
    synchronized {
      while (!groups.get(sentinel).exists(_.jobsEnded > 0) && System.nanoTime() < deadline) wait(100)
      (r, groups.get(name).filter(g => groups.get(sentinel).exists(_.jobsEnded > 0) && g.complete))
    }
  }
}
