#!/usr/bin/env python3
"""Run the benchmark as BENCHMARK.json defines it and report how steady it is.

    python3 e2ebench/calibrate.py [--runs 10] [--first-seed 1] [--trace 0|1]
                                  [--workload NAME ...] [--out SET.json]
                                  [--against EARLIER.json]

Run from the repository root. Each run is
`<command> --workload W --seed S --seconds <run_seconds> --trace T`, with
seeds first-seed, first-seed + 1, ... For every metric the script prints
the median of the runs and the spread: the distance between the first and
third quartile (statistics.quantiles, n=4) as a share of the median. An
end-to-end metric passes when its spread is within its bound. setup_s is
the exception: BENCHMARK.json defines it as the benchmark's set-up time,
held only to the comparison of medians, so its spread is printed but not
checked. With --against, the script compares each median with the same
metric's median in an earlier --out file: the later median may be worse by
at most the bound. Exits 1 if a run fails or a check does not pass.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    elapsed = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(argv)}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"{' '.join(argv)}: {result['failed']} failed operations")
    return result["metrics"], elapsed


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def worse_by(metric, earlier, later):
    change = (later - earlier) / earlier
    return change if metric["better"] == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out")
    parser.add_argument("--against")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    earlier = None
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)

    ok = True
    summary = {}
    for workload in workloads:
        values = {m["name"]: [] for m in metrics}
        seconds = []
        for i in range(args.runs):
            got, elapsed = run_once(bench["command"], workload, args.first_seed + i,
                                    bench["run_seconds"], args.trace)
            seconds.append(elapsed)
            for name in values:
                values[name].append(got[name]["value"])
        summary[workload] = {}
        print(f"{workload}: {args.runs} runs, {statistics.median(seconds):.1f} s median per run")
        for m in metrics:
            name, vals = m["name"], values[m["name"]]
            med, sp = statistics.median(vals), spread(vals)
            summary[workload][name] = {"median": med, "spread": sp, "values": vals}
            line = f"  {name:<34} median {med:<14.6g} spread {sp:7.2%}"
            if "bound" in m:
                bound = m["bound"]
                line += f" bound {bound:.0%}"
                if name == "setup_s":
                    line += "  (spread not checked)"
                elif sp > bound:
                    ok = False
                    line += "  SPREAD OVER BOUND"
                elif sp > bound / 3:
                    line += "  (over a third of the bound)"
                if earlier is not None:
                    drift = worse_by(m, earlier[workload][name]["median"], med)
                    line += f" | vs earlier {drift:+.2%}"
                    if drift > bound:
                        ok = False
                        line += "  MEDIAN WORSE THAN BOUND"
            print(line)
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
