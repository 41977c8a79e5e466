#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

For every workload and end-to-end metric this prints the median of the
runs' values, their quartiles, and the distance between the quartiles as a
share of the median (`statistics.quantiles(values, n=4)`), next to the
metric's bound from BENCHMARK.json.

Usage, from the repository root:

    python3 perfbench/spread.py --workloads design_acc,serve_mix --seeds 1-10
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds_arg(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", help="also write every run's result object here")
    args = ap.parse_args()

    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    all_runs = {}
    ok = True
    for wl in args.workloads.split(","):
        values = {m["name"]: [] for m in metrics}
        runs = []
        for seed in args.seeds:
            cmd = bench["command"] + [
                "--workload", wl, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]
            t = time.time()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            took = time.time() - t
            if proc.returncode != 0:
                print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            if not result["correct"] or result["failed"]:
                ok = False
            for name, v in result["metrics"].items():
                values.setdefault(name, []).append(v["value"])
            print(f"{wl} seed {seed}: {took:.1f} s, correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        all_runs[wl] = runs
        print(f"\n{wl}: {len(runs)} runs")
        print(f"  {'metric':52} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            if not vals:
                print(f"  {name:52} missing")
                ok = False
                continue
            if len(vals) == 1:
                print(f"  {name:52} {vals[0]:12.6g}")
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  > bound/3"
            print(f"  {name:52} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
                  f"{bound if bound is not None else '':>6}{flag}")
        print()
    if args.json:
        with open(args.json, "w") as f:
            json.dump(all_runs, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
