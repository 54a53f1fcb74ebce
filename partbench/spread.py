#!/usr/bin/env python3
"""Runs one workload n times, each with another seed, and prints for every
metric its median, quartiles and spread (interquartile range over median).

    python3 partbench/spread.py --workload dist-k4-fb13 --runs 10 --seconds 20 [--trace 0]

Run n uses seed n (1..n).

Run from the root of the repository. For end-to-end metrics the spread is set
against the bound in BENCHMARK.json; the bounds there were set from this
command's output (see partbench/README.md).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bounds = {}
    spec = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(spec):
        with open(spec) as f:
            bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}

    results = []
    for seed in range(1, args.runs + 1):
        out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
                              "--seed", str(seed), "--seconds", str(args.seconds),
                              "--trace", str(args.trace)],
                             cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if out.returncode != 0:
            sys.exit(f"run with seed {seed} failed (exit {out.returncode})")
        res = json.loads(out.stdout.strip().splitlines()[-1])
        results.append(res)
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}",
              file=sys.stderr, flush=True)

    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"{args.workload}: {args.runs} runs, --seconds {args.seconds}, --trace {args.trace}, "
          f"correct in {sum(r['correct'] for r in results)}, failed share {shares}")
    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        note = "" if bound is None else f"{bound:6.3f}" + ("  over a third" if spread > bound / 3 else "")
        unit = results[0]["metrics"][name]["unit"]
        print(f"{name + ' (' + unit + ')':34} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {note}")
        print(f"{'':34} runs: {' '.join(f'{v:.6g}' for v in values)}")


if __name__ == "__main__":
    main()
