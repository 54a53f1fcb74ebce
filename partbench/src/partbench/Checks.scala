package partbench

import repro.graphs.LocalGraph

/** Vertex set and edge list that every output check recomputes from. It is
  * built from the generator's output and holds each undirected edge once;
  * weights, part sizes and locality are recounted here rather than read from
  * the partitioner, so a fault in the program cannot hide behind its own
  * bookkeeping.
  */
final class Reference(val ids: Array[Long], val src: Array[Int], val dst: Array[Int]) {
  val n: Int = ids.length
  def m: Int = src.length

  val degree: Array[Int] = {
    val d = new Array[Int](n)
    var e = 0
    while (e < m) { d(src(e)) += 1; d(dst(e)) += 1; e += 1 }
    d
  }

  /** The paper's vertex weight functions, by the spec names of
    * `repro.core.Weights`: 1, deg, √deg and deg².
    */
  def weight(spec: String): Array[Double] = spec match {
    case "unit" => Array.fill(n)(1.0)
    case "deg"  => degree.map(_.toDouble)
    case "sqrt" => degree.map(d => math.sqrt(d.toDouble))
    case "deg2" => degree.map(d => d.toDouble * d)
    case other  => throw new IllegalArgumentException(s"unknown weight spec: $other")
  }

  /** Fraction of edges whose endpoints share a part (`part` by vertex index). */
  def locality(part: Array[Int]): Double = {
    var uncut = 0L
    var e = 0
    while (e < m) { if (part(src(e)) == part(dst(e))) uncut += 1; e += 1 }
    if (m == 0) 1.0 else uncut.toDouble / m
  }
}

object Reference {

  /** Vertices `0 until g.n` (isolated ones included: they carry unit weight)
    * and the edges of the generated CSR graph.
    */
  def fromLocal(g: LocalGraph): Reference = {
    val src = Array.newBuilder[Int]
    val dst = Array.newBuilder[Int]
    var u = 0
    while (u < g.n) {
      var i = g.offsets(u)
      while (i < g.offsets(u + 1)) {
        val v = g.adj(i)
        if (u < v) { src += u; dst += v }
        i += 1
      }
      u += 1
    }
    new Reference(Array.tabulate(g.n)(_.toLong), src.result(), dst.result())
  }

  /** Vertices are the endpoints of the edge list (the distributed path's
    * vertex set); `pairs` holds each undirected edge once.
    */
  def fromPairs(pairs: Array[(Long, Long)]): Reference = {
    val ids = pairs.iterator.flatMap(p => Iterator(p._1, p._2)).toArray.distinct.sorted
    def idx(id: Long): Int = java.util.Arrays.binarySearch(ids, id)
    new Reference(ids, pairs.map(p => idx(p._1)), pairs.map(p => idx(p._2)))
  }
}

/** Outcome of [[Checks.check]]: the recounted locality (NaN when the
  * assignment is not a partition of the graph) and the first property that
  * fails, if any.
  */
final case class Verdict(locality: Double, failure: Option[String])

/** Properties every partition the method returns must have. */
object Checks {

  /** Checks an assignment `(ids(i), parts(i))` against `ref`:
    *  - every vertex of the graph gets exactly one part, and no other id
    *    appears;
    *  - every part id lies in [0, k) and all k parts are used;
    *  - the recounted locality equals `reported`, when the program reports
    *    one, and exceeds 1/k, a uniformly random assignment's expectation;
    *  - for each weight dimension, every part weighs at most
    *    (1+ε)^log₂k · W/k (the recursion compounds ε once per level).
    *
    * Locality is recounted for every assignment that is a partition, so
    * that it is known also for calls that fail the ε bound.
    */
  def check(ref: Reference, ids: Array[Long], parts: Array[Int], k: Int, eps: Double,
            specs: Seq[String], reported: Option[Double]): Verdict = {
    def broken(why: String) = Verdict(Double.NaN, Some(why))
    val part = Array.fill(ref.n)(-1)
    var i = 0
    while (i < ids.length) {
      val v = java.util.Arrays.binarySearch(ref.ids, ids(i))
      if (v < 0) return broken(s"vertex ${ids(i)} is not in the graph")
      if (part(v) != -1) return broken(s"vertex ${ids(i)} is assigned twice")
      if (parts(i) < 0 || parts(i) >= k) return broken(s"vertex ${ids(i)} has part ${parts(i)} outside [0, $k)")
      part(v) = parts(i)
      i += 1
    }
    val missing = part.indexWhere(_ == -1)
    if (missing >= 0) return broken(s"vertex ${ref.ids(missing)} has no part")
    val used = part.distinct.length
    if (used != k) return broken(s"$used of $k parts used")

    val loc = ref.locality(part)
    def failed(why: String) = Verdict(loc, Some(why))
    reported.foreach { r =>
      if (math.abs(r - loc) > 1e-9) return failed(f"reported locality $r%.6f, recounted $loc%.6f")
    }
    if (loc <= 1.0 / k) return failed(f"locality $loc%.4f is not above 1/k")

    val levels = Integer.numberOfTrailingZeros(k)
    for (spec <- specs) {
      val w = ref.weight(spec)
      val perPart = new Array[Double](k)
      var v = 0
      while (v < ref.n) { perPart(part(v)) += w(v); v += 1 }
      val bound = math.pow(1 + eps, levels) * w.sum / k
      val heaviest = perPart.max
      if (heaviest > bound * (1 + 1e-12))
        return failed(f"dimension $spec: part weight $heaviest%.1f exceeds bound $bound%.1f " +
          f"(imbalance ${heaviest * k / w.sum - 1}%.4f)")
    }
    Verdict(loc, None)
  }

  /** Feeds [[check]] one valid assignment and four that are known to be
    * wrong, on a 64-vertex graph of four 16-cliques joined in a ring.
    * Returns a description of every case the checks got wrong.
    */
  def selfTest(): Seq[String] = {
    val group = 16
    val k = 4
    val es = Array.newBuilder[(Long, Long)]
    for (c <- 0 until k; u <- 0 until group; v <- u + 1 until group)
      es += ((c * group + u).toLong -> (c * group + v).toLong)
    for (c <- 0 until k) es += ((c * group).toLong -> (((c + 1) % k) * group + 1).toLong)
    val ref = Reference.fromPairs(es.result())
    val ids = ref.ids
    val parts = ids.map(id => (id / group).toInt)
    val specs = Seq("unit", "deg")
    val eps = 0.03
    val truth = ref.locality(parts)

    val cases = Seq(
      ("a valid assignment", ids, parts, Some(truth), true),
      ("a vertex dropped", ids.tail, parts.tail, None, false),
      ("a part id outside [0, k)", ids, parts.updated(0, k), None, false),
      ("a split outside the eps bound", ids,
        parts.zipWithIndex.map { case (p, v) => if (v >= 3 * group && v < 3 * group + 3) 0 else p },
        None, false),
      ("a misreported locality", ids, parts, Some(truth + 0.01), false),
    )
    cases.flatMap { case (what, is, ps, rep, valid) =>
      val accepted = check(ref, is, ps, k, eps, specs, rep).failure.isEmpty
      if (accepted == valid) None
      else Some(s"$what was ${if (accepted) "accepted" else "rejected"}")
    }
  }
}
