package partbench

import java.lang.management.ManagementFactory
import java.util.concurrent.{CountDownLatch, TimeUnit}
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import scala.collection.mutable.ArrayBuffer

/** Spark work done between two drained points of the listener bus. */
final case class SparkCounts(jobs: Long, stages: Long, tasks: Long, shuffleReadBytes: Long,
                             shuffleWriteBytes: Long, taskRunMs: Long, busyMs: Long) {
  def -(o: SparkCounts): SparkCounts = SparkCounts(jobs - o.jobs, stages - o.stages, tasks - o.tasks,
    shuffleReadBytes - o.shuffleReadBytes, shuffleWriteBytes - o.shuffleWriteBytes,
    taskRunMs - o.taskRunMs, busyMs - o.busyMs)
}

/** Counts jobs, stages, tasks, shuffle bytes and executor run time, and the
  * wall time during which at least one job runs. Registered only by the
  * traced run. Jobs submitted under the marker property (see [[drain]]) are
  * not counted.
  */
final class SparkCounters extends SparkListener {
  private val Marker = "partbench.marker"
  private var jobs, stages, tasks, readB, writeB, runMs, busyMs = 0L
  private var running = 0
  private var busySince = 0L
  private val markerStages = scala.collection.mutable.Set.empty[Int]
  private val markerJobs = scala.collection.mutable.Set.empty[Int]
  @volatile private var pending: CountDownLatch = new CountDownLatch(0)

  private def isMarker(props: java.util.Properties): Boolean =
    props != null && props.getProperty(Marker) != null

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    if (isMarker(e.properties)) { markerJobs += e.jobId; markerStages ++= e.stageIds }
    else {
      jobs += 1
      if (running == 0) busySince = e.time
      running += 1
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = {
    val marker = synchronized {
      if (markerJobs.remove(e.jobId)) true
      else {
        running -= 1
        if (running == 0) busyMs += e.time - busySince
        false
      }
    }
    if (marker) pending.countDown()
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    if (!markerStages.contains(e.stageInfo.stageId)) stages += 1
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    if (!markerStages.contains(e.stageId) && e.taskMetrics != null) {
      tasks += 1
      val m = e.taskMetrics
      readB += m.shuffleReadMetrics.totalBytesRead
      writeB += m.shuffleWriteMetrics.bytesWritten
      runMs += m.executorRunTime
    }
  }

  /** Waits until every event posted so far has reached this listener: the
    * bus delivers in order, so once a marker job's end arrives, so has
    * everything before it. Then returns the totals.
    */
  def drain(sc: SparkContext): SparkCounts = {
    val latch = new CountDownLatch(1)
    pending = latch
    sc.setLocalProperty(Marker, "1")
    try sc.parallelize(Seq(1), 1).count()
    finally sc.setLocalProperty(Marker, null)
    require(latch.await(120, TimeUnit.SECONDS), "Spark listener bus did not drain")
    synchronized(SparkCounts(jobs, stages, tasks, readB, writeB, runMs, busyMs))
  }
}

/** One timed call into a layer: `parent` is the id of the enclosing span
  * (-1 at the top), times are seconds since the run started.
  */
final case class Span(id: Int, name: String, parent: Int, start: Double, end: Double,
                      spark: Option[SparkCounts])

/** Times calls into the program's layers from outside. Every call is timed;
  * with tracing on, each also leaves a span in memory, written out as JSON
  * when the run ends.
  */
object Trace {
  var enabled = false
  private val origin = System.nanoTime()
  private val spans = ArrayBuffer.empty[Span]
  private var stack: List[Int] = Nil
  private val cpu = ManagementFactory.getOperatingSystemMXBean
    .asInstanceOf[com.sun.management.OperatingSystemMXBean]

  /** Spark counters of the traced run, with the context they listen to. */
  var spark: Option[(SparkContext, SparkCounters)] = None

  /** CPU time of the whole process (every thread, Spark's and the GC's too). */
  def cpuSeconds(): Double = cpu.getProcessCpuTime / 1e9

  private def now(): Double = (System.nanoTime() - origin) / 1e9

  /** Runs `f` and returns its result with its wall-clock seconds. With
    * tracing on, records a span; `sparkWork` adds the Spark counts of the
    * call (draining the listener bus on both sides, outside the timing).
    */
  def span[A](name: String, sparkWork: Boolean = false)(f: => A): (A, Double) = {
    val ((out, _), secs) = countedSpan(name, sparkWork)(f)
    (out, secs)
  }

  /** A span around Spark work; also returns its Spark counts (traced runs). */
  def sparkSpan[A](name: String)(f: => A): ((A, SparkCounts), Double) = {
    val ((out, counts), secs) = countedSpan(name, sparkWork = true)(f)
    ((out, counts.get), secs)
  }

  private def countedSpan[A](name: String, sparkWork: Boolean)(f: => A): ((A, Option[SparkCounts]), Double) = {
    val counted = if (enabled && sparkWork) spark else None
    val before = counted.map { case (sc, c) => c.drain(sc) }
    val id = spans.length
    val parent = stack.headOption.getOrElse(-1)
    if (enabled) { spans += null; stack = id :: stack }
    val t0 = now()
    val out = try f finally if (enabled) stack = stack.tail
    val t1 = now()
    val delta = for ((sc, c) <- counted; b <- before) yield c.drain(sc) - b
    if (enabled) spans(id) = Span(id, name, parent, t0, t1, delta)
    ((out, delta), t1 - t0)
  }

  def recorded: Seq[Span] = spans.toSeq

  def json(workload: String, seed: Long, totals: Option[SparkCounts]): String = {
    def counts(c: SparkCounts): String =
      s"""{"jobs": ${c.jobs}, "stages": ${c.stages}, "tasks": ${c.tasks}, """ +
      s""""shuffle_read_bytes": ${c.shuffleReadBytes}, "shuffle_write_bytes": ${c.shuffleWriteBytes}, """ +
      s""""task_run_ms": ${c.taskRunMs}, "job_busy_ms": ${c.busyMs}}"""
    val rows = spans.map { s =>
      s"""    {"id": ${s.id}, "name": "${s.name}", "parent": ${s.parent}, """ +
      s""""start_s": ${s.start}, "end_s": ${s.end}""" +
      s.spark.map(c => s""", "spark": ${counts(c)}""").getOrElse("") + "}"
    }
    s"""{"workload": "$workload", "seed": $seed,\n""" +
    s""" "spark_totals": ${totals.map(counts).getOrElse("null")},\n""" +
    s""" "spans": [\n${rows.mkString(",\n")}\n ]}\n"""
  }
}
