package partbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Paths}
import repro.core.{DistGD, GDConfig, Weights}

object Stats {
  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** Linear interpolation between closest ranks. */
  def quantile(xs: Seq[Double], q: Double): Double = {
    val s = xs.sorted
    val pos = q * (s.length - 1)
    val lo = math.floor(pos).toInt
    val hi = math.min(lo + 1, s.length - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }
}

/** Benchmark of the GD partitioner. One run:
  *  1. self-tests the output checks on assignments known to be wrong;
  *  2. sets the workload up several times (set-up time is their median);
  *  3. warms up, then runs whole rounds of checked partition calls until
  *     `--seconds` have passed;
  *  4. untraced, prints the end-to-end metrics; traced (`--trace 1`), also
  *     probes every layer on the workload's graph and prints the per-layer
  *     metrics, writing its spans and Spark counts to a JSON file.
  * The last line of standard output is one JSON object.
  *
  * Usage: Main --workload NAME --seed N --seconds S --trace 0|1 --dir BUILD_DIR
  */
object Main {

    def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) => k.stripPrefix("--") -> v }.toMap
    val name = opts("workload")
    val seed = opts("seed").toLong
    val seconds = opts("seconds").toDouble
    Trace.enabled = opts.getOrElse("trace", "0") == "1"
    val dir = opts.getOrElse("dir", ".bench_build")

    val selfTest = Checks.selfTest()
    if (selfTest.isEmpty) println("self-test: the output checks reject all 4 faulty assignments")
    else selfTest.foreach(p => println(s"self-test FAILED: $p"))

    val w = Workloads(name, seed, dir)
    try run(w, name, seed, seconds, dir, selfTest.isEmpty)
    finally w.close()
    System.exit(0)
  }

  private def run(w: Workload, name: String, seed: Long, seconds: Double, dir: String,
                  checksOk: Boolean): Unit = {
    log("set-up")
    val setups = (0 until w.setupReps).map { _ =>
      val ((genS, wS), total) = Trace.span("setup")(w.setup())
      (total, genS, wS)
    }
    w match {
      case d: DistK4 if Trace.enabled => attach(d.spark)
      case _ =>
    }
    log("warm-up")
    Trace.span("warmup")(w.warmup())
    log("timed rounds")

    val calls = Seq.newBuilder[Call]
    val probes = Seq.newBuilder[Seq[Probe]]
    val start = System.nanoTime()
    var r = 0
    while (r == 0 || (System.nanoTime() - start) / 1e9 < seconds) {
      Trace.span("round") {
        calls ++= w.round(r)
        if (Trace.enabled) probes += w.probeSeeds.map(w.localProbe)
      }
      r += 1
    }
    val done = calls.result()
    log(s"$r rounds; call seconds in order: ${done.map(c => f"${c.seconds}%.3f").mkString(" ")}")
    log("retained heap")
    w.dropReference()
    val heapMb = retainedHeapMb()
    log("report")

    val failed = done.filter(_.failure.isDefined)
    failed.foreach(c => println(s"FAILED gd-seed ${c.gdSeed}: ${c.failure.get}"))
    val unexpected = failed.filterNot(w.knownFault)
    unexpected.foreach(c => println(s"UNEXPECTED failure on gd-seed ${c.gdSeed}"))
    println(s"$name: attempted ${done.length} partition calls in $r rounds, failed ${failed.length}" +
      (if (failed.isEmpty) "" else s" (gd-seeds ${failed.map(_.gdSeed).distinct.sorted.mkString(", ")})"))

    // Locality is recounted for every call that returns a partition, whether
    // or not it meets ε; a call that returns none fails unexpectedly.
    val counted = done.map(_.locality).filterNot(_.isNaN)
    val times = done.map(_.seconds)
    val metrics: Seq[(String, Double, String)] =
      if (!Trace.enabled) Seq(
        ("partition_s", Stats.median(times), "s"),
        ("partition_s_p90", Stats.quantile(times, 0.9), "s"),
        ("partition_cpu_s", done.map(_.cpuSeconds).sum / done.length, "s"),
        ("locality", counted.sum / math.max(counted.length, 1), "fraction"),
        ("setup_s", Stats.median(setups.map(_._1)), "s"),
        ("retained_heap_mb", heapMb, "MB"),
      )
      else layerMetrics(w, setups, probes.result(), times)

    metrics.foreach { case (k, v, u) => println(f"  $k%-32s $v%.6f $u") }
    if (Trace.enabled) writeTrace(name, seed, dir)

    val correct = checksOk && unexpected.isEmpty
    val body = metrics.map { case (k, v, u) => s""""$k": {"value": $v, "unit": "$u"}""" }
    println(s"""{"correct": $correct, "attempted": ${done.length}, "failed": ${failed.length}, """ +
      s""""metrics": {${body.mkString(", ")}}}""")
  }

  private val t0 = System.nanoTime()
  private def log(phase: String): Unit =
    Console.err.println(f"[partbench ${(System.nanoTime() - t0) / 1e9}%6.1f s] $phase")

  private def attach(spark: org.apache.spark.sql.SparkSession): Unit = {
    val c = new SparkCounters
    spark.sparkContext.addSparkListener(c)
    Trace.spark = Some((spark.sparkContext, c))
  }

  private def layerMetrics(w: Workload, setups: Seq[(Double, Double, Double)],
                           rounds: Seq[Seq[Probe]], times: Seq[Double]): Seq[(String, Double, String)] = {
    val all = rounds.flatten
    def med(f: Probe => Double): Double = Stats.median(all.map(f))
    def perRound(f: Probe => Double): Double = Stats.median(rounds.map(_.map(f).sum))

    // DistGD on the workload's graph: one 3-iteration call at ε = 0.03, whose
    // Spark work the distgd metrics report. Short budgets keep the traced run
    // of the in-core workloads, where DistGD is off the path, within the
    // run-time budget.
    val (spark, edges) = Trace.span("spark.edges")(w.sparkEdges())._1
    if (Trace.spark.forall(_._1 ne spark.sparkContext)) attach(spark)
    val specs = Seq(Weights.Unit, Weights.Degree)
    val cfg = GDConfig(eps = 0.03, seed = 1L, iterations = 3)
    val ((res, c), distS) = Trace.sparkSpan("distgd.bipartition")(
      DistGD.bipartition(spark, edges, specs, cfg))
    // Jobs per iteration: ε enters only the final projection and the repair.
    // At ε = 1 every x in [-1, 1]^n is feasible, so each of the two runs one
    // check and no pass, whatever the budget; a 3- and a 1-iteration call
    // then differ by the jobs of iterations 2 and 3 alone.
    val loose = cfg.copy(eps = 1.0)
    val ((one, cOne), _) = Trace.sparkSpan("distgd.bipartition_loose_1it")(
      DistGD.bipartition(spark, edges, specs, loose.copy(iterations = 1)))
    val ((three, cThree), _) = Trace.sparkSpan("distgd.bipartition_loose_3it")(
      DistGD.bipartition(spark, edges, specs, loose))
    val jobsPerIter = (cThree.jobs - cOne.jobs).toDouble / math.max(three.iterations - one.iterations, 1)
    Seq(res, one, three).foreach(_.assign.unpersist())

    Seq(
      ("graphs.generate_s", Stats.median(setups.map(_._2)), "s"),
      ("weights.build_s", Stats.median(setups.map(_._3)), "s"),
      ("graphs.induced_subgraph_s", med(_.inducedS), "s"),
      ("localgd.bipartition_s", med(_.bipartitionS), "s"),
      ("localgd.matvec_s", med(_.matvecS), "s"),
      ("localgd.iterations", med(_.iterations.toDouble), "count"),
      ("localgd.non_matvec_ratio", med(p => p.bipartitionS / (p.iterations * p.matvecS)), "ratio"),
      ("projections.one_shot_s", med(_.oneShotS), "s"),
      ("projections.final_alternating_s", med(_.finalAltS), "s"),
      ("rounding.repair_s", med(_.repairS), "s"),
      ("rounding.flips", perRound(_.flips.toDouble), "count"),
      ("rounding.unrepaired", perRound(_.unrepaired.toDouble), "count"),
      ("distgd.bipartition_s", distS, "s"),
      ("distgd.jobs", c.jobs.toDouble, "count"),
      ("distgd.stages", c.stages.toDouble, "count"),
      ("distgd.tasks", c.tasks.toDouble, "count"),
      ("distgd.jobs_per_iter", jobsPerIter, "count"),
      ("distgd.shuffle_read_mb", c.shuffleReadBytes / 1e6, "MB"),
      ("distgd.shuffle_write_mb", c.shuffleWriteBytes / 1e6, "MB"),
      ("distgd.task_busy_s", c.taskRunMs / 1e3, "s"),
      ("distgd.idle_gap_s", distS - c.busyMs / 1e3, "s"),
      ("trace.partition_s", Stats.median(times), "s"),
    )
  }

  /** Heap in use after full collections, with the graph and the last result
    * still referenced by the workload; the median of three readings.
    */
  private def retainedHeapMb(): Double = {
    val mem = ManagementFactory.getMemoryMXBean
    Stats.median((0 until 3).map { _ =>
      System.gc()
      mem.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
    })
  }

  private def writeTrace(name: String, seed: Long, dir: String): Unit = {
    val totals = Trace.spark.map { case (sc, c) => c.drain(sc) }
    val path = Paths.get(dir, "traces", s"$name-seed$seed.json")
    Files.createDirectories(path.getParent)
    Files.write(path, Trace.json(name, seed, totals).getBytes("UTF-8"))
    println(s"trace: ${Trace.recorded.length} spans written to $path")
  }
}
