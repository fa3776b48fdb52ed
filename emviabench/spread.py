#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 emviabench/spread.py --workload grid_ir_mc [--runs 10] [--first-seed 101]

Run from the root of the checkout. It makes untraced runs of run_seconds
(BENCHMARK.json) on seeds first-seed, first-seed+1, ... For every
end-to-end metric it prints the median of the runs and the spread, the
distance between the first and the third quartile
(statistics.quantiles(values, n=4)) as a share of the median, with the
metric's bound and whether the spread stays below a third of it. Exits
non-zero if any run fails or reports an incorrect result.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=101)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))

    values = {}
    units = {}
    ok = True
    for seed in seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-3000:]}", file=sys.stderr)
            ok = False
            continue
        res = json.loads(lines[-1])
        if not res["correct"]:
            ok = False
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}",
              file=sys.stderr)

    print(f"{args.workload} runs={len(seeds)} seconds={seconds}")
    for name in sorted(values):
        vs = values[name]
        med = statistics.median(vs)
        if len(vs) >= 2:
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / med if med else 0.0
        else:
            spread = 0.0
        b = bounds[name]
        print(f"  {name:14s} median {med:12.6g} {units[name]:6s} spread {spread:7.4f}"
              f"  bound {b:5.3f}  {'ok' if spread < b / 3 else 'WIDE'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
