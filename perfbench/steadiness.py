#!/usr/bin/env python3
"""Runs the benchmark N times per workload and reports how steady it is.

    python3 perfbench/steadiness.py --runs 10 --seed-base 101

Run from the repository root. Every workload of BENCHMARK.json runs N times
for its run_seconds, each run with its own seed (seed-base, +1, ...).
For every workload and end-to-end metric of BENCHMARK.json it prints the
median, the quartiles (statistics.quantiles(values, n=4)), the spread
(Q3 - Q1) / median and the metric's bound; a spread above the bound is
marked FAIL, one above a third of the bound "wide". It also prints the share
of failed operations per workload, and per run the share of the host's CPU
time the hypervisor stole, which moves every timing on a shared host. Exits 1 when a run fails, a reply is
wrong or any spread exceeds its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    steal = next((l.rsplit(":", 1)[1].strip() for l in lines if "stolen" in l), "?")
    return json.loads(lines[-1]), steal


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    args = parser.parse_args()

    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for i in range(args.runs):
            r, steal = run_once(spec, workload, args.seed_base + i)
            results.append(r)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items())
            print(f"  {workload} seed {args.seed_base + i}: attempted {r['attempted']} "
                  f"failed {r['failed']} correct {r['correct']} steal {steal} {values}",
                  file=sys.stderr)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        ok &= all(r["correct"] for r in results)
        print(f"{workload}: {args.runs} runs, attempted {attempted}, failed {failed}, "
              f"failed share per run {shares}")
        print(f"  {'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = metric["bound"]
            verdict = "ok" if spread <= bound / 3 else ("wide" if spread <= bound else "FAIL")
            ok &= verdict != "FAIL"
            print(f"  {metric['name']:<20} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.3f} {bound:>6.2f} {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
