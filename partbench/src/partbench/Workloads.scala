package partbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.graphs.{GraphGen, LocalGraph}
import scala.util.Random

/** One checked partition call with GD seed `gdSeed`. */
final case class Call(gdSeed: Long, seconds: Double, cpuSeconds: Double,
                      locality: Double, failure: Option[String])

/** A workload: inputs made in `setup`, a warm-up, and rounds of identical
  * partition calls. The timed loop always runs whole rounds, so the share of
  * failed calls is the same in every run.
  */
trait Workload {
  def eps: Double
  def specs: Seq[String]
  /** Set-up repetitions per run; set-up time is their median. The first
    * runs cold, so the median is over the warm ones.
    */
  def setupReps: Int = 9

  /** Builds the inputs once; returns (graph generation s, weight vectors s). */
  def setup(): (Double, Double)
  def warmup(): Unit
  def round(r: Int): Seq[Call]

  /** Whether `c` failed with the one fault the benchmark expects. */
  def knownFault(c: Call): Boolean = false

  protected def makeReference(): Reference
  private var reference: Reference = _

  /** The edge list the checks recount from, built on first use. */
  def ref: Reference = {
    if (reference == null) reference = makeReference()
    reference
  }

  /** Lets the checks' edge list be collected, so that the heap holds only
    * the graph, the weights the calls use and the last result.
    */
  def dropReference(): Unit = reference = null

  /** GD seeds of the layer probes that follow each round of a traced run;
    * fixed, so that the probes' counts repeat exactly across runs.
    */
  def probeSeeds: Seq[Long] = Seq(1L)

  /** The in-core layers on this workload's graph, with GD seed `seed`. */
  def localProbe(seed: Long): Probe

  /** The graph as a Spark edge list and the session it lives in. */
  def sparkEdges(): (SparkSession, DataFrame)
  def close(): Unit
}

/** Layer timings and counts of one in-core probe. */
final case class Probe(bipartitionS: Double, iterations: Int, matvecS: Double,
                       inducedS: Double, oneShotS: Double, finalAltS: Double,
                       repairS: Double, flips: Int, unrepaired: Int)

object Workloads {

  val names: Seq[String] = Seq("local-k16-fb15", "local-4d-orkut", "dist-k4-fb13")

  def apply(name: String, seed: Long, dir: String): Workload = name match {
    case "local-k16-fb15" => new LocalK16(seed, dir)
    case "local-4d-orkut" => new Local4D(seed, dir)
    case "dist-k4-fb13"   => new DistK4(seed, dir)
    case other => throw new IllegalArgumentException(
      s"unknown workload $other (one of ${names.mkString(", ")})")
  }

  /** SplitMix64: GD seeds derived from the workload seed. */
  def mix(seed: Long, i: Long): Long = {
    var z = seed + (i + 1) * 0x9E3779B97F4A7C15L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }

  /** Fewer task threads than cores, and few shuffle partitions: on a small
    * machine this keeps a `DistGD` call's wall time steady across runs.
    */
  def startSpark(dir: String): SparkSession = {
    SparkSession.builder
      .master("local[2]")
      .appName("partbench")
      .config("spark.sql.shuffle.partitions", "2")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", s"$dir/spark-local")
      .getOrCreate()
  }

  /** Layer calls of in-core GD on `g`: a level-0 bipartition, its iteration
    * count (from a second, traced call), the two induced subgraphs of its
    * sides, mat-vecs, both projections and the rounding repair on its
    * fractional solution. The repair starts from the probe's own rounding of
    * that solution, drawn from `seed`.
    */
  def inCoreProbe(g: LocalGraph, ws: Array[Array[Double]], cfg: GDConfig): Probe = {
    val (res, bipS) = Trace.span("localgd.bipartition")(LocalGD.bipartition(g, ws, cfg))
    val (traced, _) = Trace.span("localgd.bipartition_counted")(
      LocalGD.bipartition(g, ws, cfg.copy(trace = true)))
    val (_, inducedS) = Trace.span("graphs.induced_subgraph") {
      g.inducedSubgraph(res.side.map(_ == 0))
      g.inducedSubgraph(res.side.map(_ == 1))
    }
    val matvecs = (0 until 5).map(_ => Trace.span("localgd.matvec")(LocalGD.matvec(g, res.x))._2)
    val grad = LocalGD.matvec(g, res.x)
    val gmax = math.max(grad.map(math.abs).max, 1e-12)
    val y = Array.tabulate(g.n)(i => res.x(i) + grad(i) / gmax)
    val d = ws.length
    val (_, oneShotS) = Trace.span("projections.one_shot")(
      Projections.oneShotAlternating(y, ws, new Array[Double](d)))
    val W = ws.map(_.sum)
    val (_, finalS) = Trace.span("projections.final_alternating")(
      Projections.alternating(y, ws, W.map(-cfg.eps * _), W.map(cfg.eps * _), cfg.finalProjIters))

    val rng = new Random(cfg.seed)
    val side = res.x.map(xi => if (rng.nextDouble() < (xi + 1) / 2) 1 else 0)
    val before = side.clone()
    val (_, repairS) = Trace.span("rounding.repair")(Rounding.repair(side, res.x, ws, cfg.eps))
    val flips = side.indices.count(i => side(i) != before(i))
    val outside = ws.indices.exists { j =>
      val s = ws(j).indices.map(i => ws(j)(i) * (2 * side(i) - 1)).sum
      math.abs(s) > cfg.eps * W(j) * (1 + 1e-12)
    }
    Probe(bipS, traced.trace.length, Stats.median(matvecs), inducedS, oneShotS, finalS,
      repairS, flips, if (outside) 1 else 0)
  }

  def timedCall[A](gdSeed: Long, name: String, sparkWork: Boolean = false)(f: => A)
                  (check: A => Verdict): Call = {
    val c0 = Trace.cpuSeconds()
    val (out, secs) = Trace.span(name, sparkWork)(f)
    val cpu = Trace.cpuSeconds() - c0
    val v = check(out)
    Call(gdSeed, secs, cpu, v.locality, v.failure)
  }
}

/** In-core inputs shared by the two local workloads. */
abstract class LocalWorkload(dir: String) extends Workload {
  protected def generate(): LocalGraph
  var g: LocalGraph = _
  var ws: Array[Array[Double]] = _
  protected def makeReference(): Reference = Reference.fromLocal(g)
  private var spark: SparkSession = _

  def setup(): (Double, Double) = {
    val (graph, genS) = Trace.span("graphs.generate")(generate())
    val (weights, wS) = Trace.span("weights.build")(Weights.localAll(graph, specs))
    g = graph
    ws = weights
    (genS, wS)
  }

  def localProbe(seed: Long): Probe = Workloads.inCoreProbe(g, ws, GDConfig(eps = eps, seed = seed))

  def sparkEdges(): (SparkSession, DataFrame) = {
    spark = Workloads.startSpark(dir)
    val edges = GraphGen.toDF(spark, g).persist()
    edges.count()
    (spark, edges)
  }

  def close(): Unit = if (spark != null) spark.stop()
}

/** Table 1 / Fig 7: recursive k = 16 on FB-lite-15, d = 2, ε = 0.03. */
final class LocalK16(seed: Long, dir: String) extends LocalWorkload(dir) {
  val k = 16
  val eps = 0.03
  val specs = Seq(Weights.Unit, Weights.Degree)
  var last: Array[Int] = _

  protected def generate(): LocalGraph = GraphGen.fbLiteLocal(15)

  private def call(gdSeed: Long): Call =
    Workloads.timedCall(gdSeed, "recursive.partition") {
      RecursivePartitioner.partition(g, ws, k, GDConfig(eps = eps, seed = gdSeed))
    } { assign => last = assign; Checks.check(ref, ref.ids, assign, k, eps, specs, None) }

  /** Calls after a single warm-up call still run up to a third slower. */
  def warmup(): Unit =
    for (_ <- 0 until 3) RecursivePartitioner.partition(g, ws, k, GDConfig(eps = eps, seed = seed))

  def round(r: Int): Seq[Call] = Seq(call(Workloads.mix(seed, r)))
}

/** §4.1: one bipartition each over a fixed list of GD seeds on Orkut-lite,
  * d = 4 (1, deg, √deg, deg²), ε = 0.01. The list does not depend on the
  * workload seed, which only shuffles its order, so the seeds on which the
  * repair leaves ε broken are the same in every run: `faultSeeds`. A
  * dimension failure on any other seed is a regression.
  */
final class Local4D(seed: Long, dir: String) extends LocalWorkload(dir) {
  val k = 2
  val eps = 0.01
  val specs = Weights.All
  val gdSeeds: Seq[Long] = 1L to 100L
  val faultSeeds: Set[Long] = Set(5, 7, 8, 10, 20, 22, 25, 26, 27, 30, 31, 33, 34, 35, 38, 41, 44,
    45, 48, 50, 51, 52, 54, 56, 58, 64, 66, 67, 69, 74, 75, 83, 86, 87, 89, 93, 94, 100)
  var last: GDResult = _

  protected def generate(): LocalGraph = GraphGen.orkutLiteLocal()

  override def probeSeeds: Seq[Long] = gdSeeds.take(16)

  override def knownFault(c: Call): Boolean =
    faultSeeds(c.gdSeed) && c.failure.exists(_.startsWith("dimension"))

  def warmup(): Unit = gdSeeds.take(10).foreach(s => LocalGD.bipartition(g, ws, GDConfig(eps = eps, seed = s)))

  def round(r: Int): Seq[Call] =
    new Random(Workloads.mix(seed, r)).shuffle(gdSeeds).map { s =>
      Workloads.timedCall(s, "localgd.bipartition") {
        LocalGD.bipartition(g, ws, GDConfig(eps = eps, seed = s))
      } { res => last = res; Checks.check(ref, ref.ids, res.side, k, eps, specs, Some(res.locality)) }
    }
}

/** Fig 11 budget: `DistGD.partitionK`, k = 4, d = 2, ε = 0.03, 20
  * iterations, on the Spark edge list of FB-lite-13.
  */
final class DistK4(seed: Long, dir: String) extends Workload {
  val k = 4
  val eps = 0.03
  val specs = Seq(Weights.Unit, Weights.Degree)
  val cfg = GDConfig(eps = eps, iterations = 20)
  /** Each repetition starts a Spark session, which is costly. */
  override def setupReps: Int = 3
  var spark: SparkSession = _
  var edges: DataFrame = _
  var last: DataFrame = _
  protected def makeReference(): Reference = {
    val rows = edges.select("src", "dst").collect()
    Reference.fromPairs(rows.map(r => (r.getLong(0), r.getLong(1))))
  }
  lazy val local: (LocalGraph, Array[Array[Double]]) = {
    val ((lg, _), _) = Trace.span("graphs.collect_local")(LocalGraph.fromDataFrame(edges))
    (lg, Weights.localAll(lg, specs))
  }

  /** A fresh session each time, so that session start is part of set-up. */
  def setup(): (Double, Double) = {
    if (spark != null) spark.stop()
    spark = Trace.span("spark.session")(Workloads.startSpark(dir))._1
    val (e, genS) = Trace.span("graphs.generate") {
      val e = GraphGen.fbLite(spark, 13).persist()
      e.count()
      e
    }
    // `partitionK` derives its own weights, so the set-up's are not kept.
    val (_, wS) = Trace.span("weights.build") {
      val w = Weights.weightsDF(spark, e, specs).persist()
      w.count()
      w.unpersist()
    }
    edges = e
    (genS, wS)
  }

  def warmup(): Unit = DistGD.bipartition(spark, edges, specs, cfg.copy(iterations = 2, seed = seed))

  def round(r: Int): Seq[Call] = {
    val gdSeed = Workloads.mix(seed, r)
    Seq(Workloads.timedCall(gdSeed, "distgd.partition_k", sparkWork = true) {
      DistGD.partitionK(spark, edges, specs, k, cfg.copy(seed = gdSeed))
    } { assign =>
      val rows = assign.collect()
      if (last != null) last.unpersist()
      last = assign
      Checks.check(ref, rows.map(_.getLong(0)), rows.map(_.getInt(1)), k, eps, specs, None)
    })
  }

  def localProbe(seed: Long): Probe =
    Workloads.inCoreProbe(local._1, local._2, cfg.copy(seed = seed))

  def sparkEdges(): (SparkSession, DataFrame) = (spark, edges)

  def close(): Unit = if (spark != null) spark.stop()
}
