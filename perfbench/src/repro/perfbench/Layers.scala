package repro.perfbench

/** Per-layer metrics of a traced run, named `<module>.<stage>.<what>`
  * after the modules on the user's path (core, coding, sparkio). A stage a
  * workload never reaches reads 0. */
object Layers {
  private def total(span: String): Tracer => Double = _.total(span)
  private def self(span: String): Tracer => Double  = _.self(span)
  private def count(c: String): Tracer => Double    = _.counters.getOrElse(c, 0.0)
  private def ratio(num: String, den: String): Tracer => Double = { tr =>
    val d = count(den)(tr)
    if (d == 0) 0.0 else count(num)(tr) / d
  }

  private def perRetrieval(f: Tracer => Double): Tracer => Double = { tr =>
    val n = count("sparkio.retrievals")(tr)
    if (n == 0) 0.0 else f(tr) / n
  }

  /** (name, unit, value of one pass). */
  val metrics: Seq[(String, String, Tracer => Double)] = Seq(
    ("core.quantize.s", "s", total("core.quantize")),
    ("core.block_group.s", "s", total("core.block_group")),
    ("core.block_group.blocks", "count", count("core.block_group.blocks")),
    ("core.lcps.compress.s", "s", total("core.lcps.compress")),
    ("core.lcps.compress.self_s", "s", self("core.lcps.compress")),
    ("core.lcps.compress.alloc_B", "B", count("core.lcps.compress.alloc_B")),
    ("core.blocksize_sweep.s", "s", total("core.blocksize_sweep")),
    ("core.blocksize_sweep.candidates", "count", count("core.blocksize_sweep.candidates")),
    ("core.lcpt.compress.s", "s", total("core.lcpt.compress")),
    ("core.lcpt.compress.self_s", "s", self("core.lcpt.compress")),
    ("core.lcpt.compress.alloc_B", "B", count("core.lcpt.compress.alloc_B")),
    ("core.fsm.t_trials", "count", count("core.fsm.t_trials")),
    ("core.fsm.t_wins", "count", count("core.fsm.t_wins")),
    ("core.fsm.trial_win_ratio", "ratio", ratio("core.fsm.t_wins", "core.fsm.t_trials")),
    ("core.fsm.wasted_trial_s", "s", count("core.fsm.wasted_trial_s")),
    ("core.ebscale.probe_s", "s", total("core.ebscale.probe")),
    ("core.ebscale.trial_s", "s", total("core.ebscale.trial")),
    ("core.ebscale.applied", "count", count("core.ebscale.applied")),
    ("core.lcps.decompress.s", "s", total("core.lcps.decompress")),
    ("core.block_ungroup.s", "s", total("core.block_ungroup")),
    ("core.lcpt.decompress.s", "s", total("core.lcpt.decompress")),
    ("core.lcpt.decompress.self_s", "s", self("core.lcpt.decompress")),
    ("core.archive.to_bytes.s", "s", total("core.archive.to_bytes")),
    ("core.archive.from_bytes.s", "s", total("core.archive.from_bytes")),
    ("core.retrieval.chain_frames", "frames", ratio("core.retrieval.chain_frames", "core.retrieval.targets")),
    ("coding.intcoder.encode.s", "s", total("coding.intcoder.encode")),
    ("coding.intcoder.encode.symbols", "count", count("coding.intcoder.encode.symbols")),
    ("coding.intcoder.encode.huffman_arrays", "count", count("coding.intcoder.encode.huffman_arrays")),
    ("coding.intcoder.encode.fixed_arrays", "count", count("coding.intcoder.encode.fixed_arrays")),
    ("coding.intcoder.decode.s", "s", total("coding.intcoder.decode")),
    ("coding.zstd.compress.s", "s", total("coding.zstd.compress")),
    ("coding.zstd.decompress.s", "s", total("coding.zstd.decompress")),
    ("coding.zstd.bytes_in", "B", count("coding.zstd.bytes_in")),
    ("coding.zstd.bytes_out", "B", count("coding.zstd.bytes_out")),
    ("sparkio.frames_to_df.s", "s", total("sparkio.frames_to_df")),
    ("sparkio.compress.s", "s", total("sparkio.compress")),
    ("sparkio.write_parquet.s", "s", total("sparkio.write_parquet")),
    ("sparkio.read_batch.s", "s", perRetrieval(total("sparkio.read_batch"))),
    ("sparkio.shuffle_write_bytes", "B", count("sparkio.shuffle_write_bytes")),
    ("sparkio.tasks", "count", count("sparkio.tasks")),
    ("sparkio.input_bytes_per_retrieval", "B", perRetrieval(count("sparkio.input_bytes"))),
    ("trace.overhead_ratio", "ratio", count("trace.overhead_ratio")),
  )

  /** Validity flag: 1 when the replay reproduced the program's output. */
  val Valid = "trace.valid"

  /** Codec metrics are medians over the replay passes, `sparkio` ones come
    * from the single Spark pass (0 without one). Every metric reads 0,
    * except the flag, when the replay was not faithful, so no number
    * describes a different program. */
  def summarize(passes: Seq[Tracer], spark: Option[Tracer], valid: Boolean): Seq[(String, Double, String)] =
    metrics.map { case (name, unit, f) =>
      val v =
        if (!valid) 0.0
        else if (name.startsWith("sparkio.")) spark.map(f).getOrElse(0.0)
        else Stats.median(passes.map(f))
      (name, v, unit)
    } :+ ((Valid, if (valid) 1.0 else 0.0, "bool"))
}
