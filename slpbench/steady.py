#!/usr/bin/env python3
"""Steadiness check: run each workload N times, each with another seed,
and print for every end-to-end metric the median, the quartiles and the
spread (quartile distance over the median), next to its bound in
BENCHMARK.json.

    python3 slpbench/steady.py --runs 10 [--workloads kernels,verify]
                               [--first-seed 1] [--seconds S]

Run k uses seed first-seed + k.  The quartiles are Python's
statistics.quantiles(values, n=4).  Exits 1 when a spread exceeds its
bound, when the share of failed operations differs between runs, or
when code_size or a sim_cycles.* metric does not repeat exactly: those
depend on no seed.  Every result line is also appended to
.slpbench-out/steady.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def load_benchmark():
    with open("BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace=0):
    cmd = [sys.executable, os.path.join("slpbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, check=False)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit code {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser()
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = p.parse_args()
    os.makedirs(".slpbench-out", exist_ok=True)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        results = []
        for k in range(args.runs):
            seed = args.first_seed + k
            r = run_once(workload, seed, args.seconds)
            results.append(r)
            with open(os.path.join(".slpbench-out", "steady.jsonl"), "a", encoding="utf-8") as f:
                f.write(json.dumps({"workload": workload, "seed": seed, "result": r}) + "\n")
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print(f"== {workload}: {args.runs} runs, correct={correct}, failed shares={sorted(shares)}")
        ok &= len(shares) == 1 and correct
        print(f"{'metric':26} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name, m in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread > m["bound"]:
                flag, ok = "  OVER BOUND", False
            elif spread > m["bound"] / 3:
                flag = "  above bound/3"
            if (name == "code_size" or name.startswith("sim_cycles.")) and len(set(values)) != 1:
                flag, ok = "  NOT EXACT", False
            print(f"{name:26} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} {m['bound']:6.3f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
