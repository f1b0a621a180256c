#!/usr/bin/env python3
"""Steadiness check for the host benchmark.

Runs one workload N times and prints every metric's median, quartiles
and spreads:

    python3 hostbench/steady.py --workload detailed [--runs 10]
                                [--seed N | --first-seed N]
                                [--seconds S] [--trace 0|1]
                                [--save FILE] [--against FILE]

Run it from the repository root. The command and the run length come
from BENCHMARK.json. By default every run uses the default workload
seed 12648430, so each run repeats the same work and is checked against
its reference digests. --seed N repeats seed N instead; --first-seed N
gives run i the seed N + i, so the runs also vary the inputs.

The quartile spread is (q3 - q1) / median with the quartiles of
statistics.quantiles(values, n=4). An end-to-end metric is steady when
that spread stays below a third of its bound. --save writes the runs'
values as JSON; --against compares this set's medians with a saved set
and flags every end-to-end metric that got worse by more than its
bound. Exits 1 if a run fails, a metric is not steady, or a median got
worse than the bound allows.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

DEFAULT_SEED = 12648430


def run_once(cmd, workload, seed, seconds, trace):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"steady: run with seed {seed} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"steady: run with seed {seed} failed: {lines[-1]}")
    checked = len(lines) > 1 and "reference check passed" in lines[-2]
    return result, checked


def worse_by(name, new, old, better):
    """How much worse `new` is than `old`, as a share of `old`."""
    if not old:
        return 0.0
    return (old - new) / old if better[name] == "higher" else (new - old) / old


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    seeds = ap.add_mutually_exclusive_group()
    seeds.add_argument("--seed", type=int, default=DEFAULT_SEED)
    seeds.add_argument("--first-seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}

    values = {}
    units = {}
    run_seeds = []
    unchecked = 0
    for i in range(args.runs):
        seed = args.seed if args.first_seed is None else args.first_seed + i
        run_seeds.append(seed)
        start = time.monotonic()
        result, checked = run_once(bench["command"], args.workload, seed, seconds, args.trace)
        unchecked += not checked
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        shown = ", ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()
                          if k in bounds)
        print(f"run {i + 1}/{args.runs} seed {seed} ({time.monotonic() - start:.1f} s, "
              f"reference {'passed' if checked else 'skipped'}): {shown}", flush=True)

    steady = True
    print(f"\n{args.workload}: {args.runs} runs of {seconds} s, seeds "
          f"{sorted(set(run_seeds))}; reference check skipped on {unchecked} runs")
    print(f"{'metric':<24} {'unit':<8} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'range/med':>9}  verdict")
    medians = {}
    for name, vs in values.items():
        med = medians[name] = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
        iqr = (q3 - q1) / med if med else 0.0
        rng = (max(vs) - min(vs)) / med if med else 0.0
        verdict = ""
        if name in bounds:
            ok = iqr < bounds[name] / 3
            steady &= ok
            verdict = f"{'ok' if ok else 'NOT STEADY'} (bound {bounds[name]})"
        print(f"{name:<24} {units[name]:<8} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{iqr:>8.2%} {rng:>9.2%}  {verdict}")

    if args.save:
        with open(args.save, "w") as f:
            json.dump({"workload": args.workload, "seeds": run_seeds, "values": values}, f)
    if args.against:
        with open(args.against) as f:
            old = json.load(f)
        print(f"\nmedians against {args.against} (worse by, as a share of the old median)")
        for name in bounds:
            if name not in values or name not in old["values"]:
                continue
            before = statistics.median(old["values"][name])
            shift = worse_by(name, medians[name], before, better)
            ok = shift <= bounds[name]
            steady &= ok
            print(f"{name:<24} {before:>12.6g} -> {medians[name]:<12.6g} worse by "
                  f"{shift:>+8.2%}  {'ok' if ok else 'WORSE THAN BOUND'} "
                  f"(bound {bounds[name]})")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
