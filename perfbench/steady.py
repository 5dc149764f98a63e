#!/usr/bin/env python3
"""Steadiness check: run one workload N times and print for every
end-to-end metric its median, quartiles, quartile spread (as a share of
the median) and max/min ratio, beside the bound BENCHMARK.json gives
it. Run from the checkout root:

    python3 perfbench/steady.py --workload lib-implicit --runs 10
    python3 perfbench/steady.py --workload lib-implicit --runs 10 --seed 3

Without --seed, run k uses seed k (1..N), so the spread holds input
variation as well as run-to-run noise; a regression check compares sets
made that way. With --seed every run uses that one seed, which leaves
run-to-run noise alone.
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
    ap.add_argument("--seed", type=int, default=None)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values, shares = {}, set()
    for k in range(1, args.runs + 1):
        seed = args.seed if args.seed is not None else k
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stdout}{out.stderr}")
        res = json.loads(lines[-1])
        shares.add(res["failed"] / res["attempted"])
        env = next((l for l in lines if l.startswith("env:")), "")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        got = " ".join(f"{name}={m['value']:.5g}" for name, m in sorted(res["metrics"].items()))
        print(f"run {k} seed {seed}: attempted {res['attempted']} failed {res['failed']} {got}\n  {env}", flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {seconds} s, failed shares {sorted(shares)}")
    print(f"{'metric':16} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'max/min':>8} {'bound':>6}")
    for name in sorted(values):
        v = values[name]
        q1, med, q3 = statistics.quantiles(v, n=4)
        print(f"{name:16} {med:12.5g} {q1:12.5g} {q3:12.5g} {(q3 - q1) / med:8.3f} "
              f"{max(v) / min(v):8.3f} {bounds[name]:>6}")


if __name__ == "__main__":
    main()
