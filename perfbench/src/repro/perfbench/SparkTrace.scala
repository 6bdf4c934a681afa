package repro.perfbench

import java.io.File
import scala.collection.mutable.ArrayBuffer
import org.apache.spark.sql.{Encoders, SparkSession}
import org.apache.spark.storage.StorageLevel
import repro.core.Lcp
import repro.sparkio.LcpSpark
import repro.sparkio.LcpSpark.{CompressedGroup, ParticleRow}

/** The `sparkio` layer, traced in the `temporal` workload's traced run:
  * Helium frames ingested through `LcpSpark` into Parquet and retrieved
  * batch by batch on a `local[cpus]` SparkSession, one caller in a closed
  * loop, with task, shuffle-write and input counters from a listener.
  * Every stored group must equal the same frames compressed locally, and
  * every batch retrieved through Spark must equal the local
  * `decompressBatch`. */
final class SparkTrace(cpus: Int, work: File, seed: Long, gate: Gate, problems: ArrayBuffer[String]) {
  /** Traced batch retrievals, at seeded frames. */
  val Retrievals = 8

  private val series = Inputs.spark(seed)
  private val cfg    = series.cfg
  private val groupFrames = cfg.batchSize * Inputs.SparkBatchesPerGroup
  private val path   = new File(work, "spark/groups.parquet").getPath
  private val local  = series.frames.grouped(groupFrames).zipWithIndex.map { case (fs, g) =>
    Codec.build(Series(s"${series.name}.group$g", fs.toIndexedSeq, cfg), gate)
  }.toIndexedSeq

  private def session(): SparkSession = {
    val s = SparkSession.builder()
      .master(s"local[$cpus]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.sql.shuffle.partitions", cpus.toString)
      .config("spark.default.parallelism", cpus.toString)
      .config("spark.local.dir", new File(work, "spark-local").getPath)
      .config("spark.sql.warehouse.dir", new File(work, "spark-warehouse").getPath)
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  def run(): Tracer = {
    val spark = session()
    try trace(spark) finally spark.stop()
  }

  private def trace(spark: SparkSession): Tracer = {
    // `LcpSpark.compress` only plans the grouping and the per-group
    // compression, so a job that keeps its groups in memory runs them first:
    // `sparkio.compress` is then the shuffle plus compression, and
    // `sparkio.write_parquet` the Parquet write of the groups alone.
    def ingest(tr: Tracer): Unit = {
      val (df, _) = tr.span("sparkio.frames_to_df", item = "ingest")(LcpSpark.framesToDf(spark, series.frames))
      val ds = LcpSpark.compress(df, cfg, Inputs.SparkBatchesPerGroup).persist(StorageLevel.MEMORY_ONLY)
      try {
        tr.span("sparkio.compress", item = "ingest")(ds.count())
        tr.span("sparkio.write_parquet", item = "ingest")(LcpSpark.writeParquet(ds, path))
      } finally ds.unpersist(blocking = true)
    }
    def retrieve(frame: Int) = LcpSpark.readFrameBatch(spark, path, cfg, Inputs.SparkBatchesPerGroup, frame)
    def blobsMatch(): Boolean = {
      val groups = spark.read.parquet(path).as(Encoders.product[CompressedGroup]).collect().sortBy(_.group)
      groups.length == local.size && groups.lazyZip(local).forall { (g, b) =>
        g.firstFrame == g.group * groupFrames && g.numFrames == b.numFrames && java.util.Arrays.equals(g.blob, b.bytes)
      }
    }
    def batchRowsMatch(frame: Int): Boolean = {
      val rows  = retrieve(frame).as(Encoders.product[ParticleRow]).collect()
      val group = frame / groupFrames
      val batch = frame % groupFrames / cfg.batchSize
      val want  = Lcp.decompressBatch(local(group).archive, batch)
      val first = group * groupFrames + batch * cfg.batchSize
      rows.length == want.map(_.n).sum && rows.map(r => (r.frame, r.id)).distinct.length == rows.length &&
        rows.forall { r =>
          val k = r.frame - first
          k >= 0 && k < want.size && r.id >= 0 && r.id < want(k).n &&
            r.x == want(k).x(r.id) && r.y == want(k).y(r.id) && r.z == want(k).z(r.id)
        }
    }

    // One untraced ingest and retrieval first, so the traced ones run warm.
    gate.timed("spark: ingest")(ingest(new Tracer(-1)))(_ => blobsMatch())
    gate.check("spark: batch rows")(batchRowsMatch(0))

    val counters = new SparkCounters
    val sc = spark.sparkContext
    sc.addSparkListener(counters)
    val tr = new Tracer(0)
    val (_, ingested) = counters.measure(sc, "ingest")(ingest(tr))
    gate.check("spark: stored blobs")(blobsMatch())
    ingested match {
      case Some(c) =>
        tr.add("sparkio.tasks", c.tasks.toDouble)
        tr.add("sparkio.shuffle_write_bytes", c.shuffleWriteBytes.toDouble)
      case None => problems += "spark ingest: the listener did not see every task end"
    }
    val n = series.frames.head.n
    for ((f, j) <- new scala.util.Random(seed).shuffle(series.frames.indices.toVector).take(Retrievals).zipWithIndex) {
      val (rows, read) = counters.measure(sc, s"retrieval$j") {
        tr.span("sparkio.read_batch", item = s"frame $f")(retrieve(f).count())._1
      }
      gate.check(s"spark: rows of the batch of frame $f")(rows == cfg.batchSize.toLong * n)
      read match {
        case Some(c) => tr.add("sparkio.input_bytes", c.inputBytes.toDouble); tr.add("sparkio.retrievals", 1)
        case None    => problems += s"spark retrieval $j: the listener did not see every task end"
      }
    }
    for (start <- series.frames.indices by cfg.batchSize)
      gate.check(s"spark: rows of batch at frame $start")(batchRowsMatch(start))
    tr
  }
}
