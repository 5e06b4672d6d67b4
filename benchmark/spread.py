#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, as the pipeline takes it.

Runs the command of BENCHMARK.json ten times per workload, each time with
another seed, and prints for every workload x end-to-end metric the
median and the distance between the first and third quartile as a share
of the median, beside the metric's bound. Exits 1 if a spread (other
than setup_s, which is only compared median to median) exceeds its bound.

    python3 benchmark/spread.py [first_seed] [workload ...]   # from the repo root
"""
import json
import statistics
import subprocess
import sys
import time

RUNS = 10


def main():
    bench = json.load(open("BENCHMARK.json"))
    first_seed = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    workloads = sys.argv[2:] or [w["name"] for w in bench["workloads"]]
    failed = False
    print(f"{'workload':<22} {'metric':<26} {'median':>16} {'iqr/median':>11} {'bound':>7}  wall_s")
    for workload in workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        walls = []
        for seed in range(first_seed, first_seed + RUNS):
            args = ["--workload", workload, "--seed", str(seed),
                    "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            start = time.monotonic()
            done = subprocess.run(bench["command"] + args, stdout=subprocess.PIPE, text=True, check=True)
            walls.append(time.monotonic() - start)
            result = json.loads(done.stdout.splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: {result}")
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        for metric in bench["end_to_end"]:
            xs = values[metric["name"]]
            q1, _, q3 = statistics.quantiles(xs, n=4)
            median = statistics.median(xs)
            spread = (q3 - q1) / median
            over = spread > metric["bound"] and metric["name"] != "setup_s"
            failed |= over
            print(f"{workload:<22} {metric['name']:<26} {median:>16.6f} {spread:>10.2%} {metric['bound']:>7.0%}"
                  f"  {max(walls):.1f}{'  OVER' if over else ''}", flush=True)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
