"""Run one workload N times, one seed each, and summarise every metric.

    python3 perfbench/repeat.py --workload NAME --runs 10 [--first-seed 1]
                                [--seconds 20] [--trace 0|1]

For each metric it prints the median, the quartiles (statistics.quantiles,
n=4) and their distance as a share of the median, which is the spread the
metric's bound in BENCHMARK.json is compared with. All run results, with
their environment records, are written to
perfbench/out/repeat-<workload>-trace<T>.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def summarise(results):
    rows = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        rows[name] = {"unit": results[0]["metrics"][name]["unit"], "median": median,
                      "q1": q1, "q3": q3,
                      "spread": (q3 - q1) / abs(median) if median else 0.0}
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cp = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                             args.workload, "--seed", str(seed), "--seconds",
                             str(seconds), "--trace", str(args.trace)],
                            capture_output=True, text=True, check=False)
        lines = cp.stdout.splitlines()
        if cp.returncode != 0 or len(lines) < 2:
            print(cp.stderr, file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        result.update(seed=seed, **json.loads(lines[-2]))
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)

    summary = summarise(runs)
    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    print(f"{args.workload}: {len(runs)} runs, failed share {shares}, env {runs[0]['env']}")
    print(f"{'metric':44} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, row in summary.items():
        print(f"{name:44} {row['unit']:6} {row['median']:12.5g} {row['q1']:12.5g} "
              f"{row['q3']:12.5g} {row['spread']:8.2%}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"repeat-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"summary": summary, "runs": runs}, indent=1))
    return 0 if all(r["correct"] for r in runs) and len(shares) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
