#!/usr/bin/env python3
"""Runs one workload of the GD partitioner benchmark.

    python3 partbench/run.py --workload local-k16-fb15 --seed 1 --seconds 10 --trace 0

Run from the root of the repository. The first run builds the partitioner and
the benchmark (see partbench/Makefile) into .bench_build/; later runs rebuild
only when a source changed. The JVM's output is passed through; its last line
is the JSON result. See partbench/README.md for the workloads and metrics.
"""
import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("local-k16-fb15", "local-4d-orkut", "dist-k4-fb13")
# One run must end within 180 s; the build of a fresh checkout is not counted.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"partbench: {msg}", file=sys.stderr)
    sys.exit(2)


def spark_jars():
    """The jars of the Spark distribution: $SPARK_HOME/jars, else the one
    whose spark-submit is on the PATH."""
    home = os.environ.get("SPARK_HOME")
    if not home and shutil.which("spark-submit"):
        home = os.path.dirname(os.path.dirname(os.path.realpath(shutil.which("spark-submit"))))
    if not home or not os.path.isdir(os.path.join(home, "jars")):
        fail("no Spark distribution found; set SPARK_HOME")
    return os.path.join(home, "jars")


def build(jars):
    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala")):
        fail(f"no partitioner sources under {ROOT}/src/main/scala; run from the repository root")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        done = subprocess.run(["make", "-s", "-C", HERE, f"OUT={BUILD}", f"SPARK_JARS={jars}"],
                              stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    jars = spark_jars()
    build(jars)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = ["java", "-Xms2g", "-Xmx2g", "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}",
           f"-Dlog4j2.configurationFile={os.path.join(HERE, 'log4j2.properties')}",
           "-cp", os.pathsep.join([os.path.join(BUILD, "classes"), os.path.join(jars, "*")]),
           "partbench.Main", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--dir", BUILD]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    watchdog = threading.Timer(RUN_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
    watchdog.start()
    lines = []
    try:
        for line in proc.stdout:
            lines.append(line.rstrip("\n"))
            print(lines[-1], flush=True)
        proc.wait()
    finally:
        watchdog.cancel()
    if proc.returncode == -signal.SIGKILL:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"benchmark JVM exited with {proc.returncode}")
    # The JVM's last line is the result; refuse to end on anything else.
    try:
        json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("no JSON result from the benchmark JVM")


if __name__ == "__main__":
    main()
