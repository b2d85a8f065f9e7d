"""One benchmark process: set up a workload, then measure it.

Started by run.py in a fresh interpreter. It prints `ready` once set-up is
done (run.py times set-up from the process start to that line), then, unless
--setup-only, runs whole rounds of operations and prints one JSON line.
With --probes K it also prints `probe` K times between rounds and waits for
a line on standard input each time, while run.py times another set-up.

With --trace 1 every round runs twice, untraced and with the tracer
installed. The per-layer metrics come from the traced rounds; the median
difference between the two runs of each operation is the tracing overhead.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_OPS = 100               # a run measures at least this many operations
IMPORT_PROBES = 3


def run_op(op, tracer=None):
    """Time one operation, traced if a tracer is given: (seconds, out, error)."""
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        out, error = op.run(), None
    except Exception as exc:        # a program failure is a failed operation
        out, error = None, exc
    finally:
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    return seconds, out, error


def judge(op, out, error):
    """The operation's error, or the first check its output fails, or None.

    Checks run after the timed operations, untraced: they call the program
    too."""
    if error is None:
        try:
            op.check(out)
        except checks.CheckError as exc:
            return exc
    return error


def run_round(ops):
    """Run a round's operations with the reference loop timed before, between
    and after them, then judge them. Returns (op, wall seconds, mean time in
    ms of the two loop passes around it, error) for each operation."""
    timed, before = [], speed.loop_ms()
    for op in ops:
        seconds, out, error = run_op(op)
        after = speed.loop_ms()
        timed.append((op, seconds, (before + after) / 2, out, error))
        before = after
    return [(op, seconds, loop, judge(op, out, error))
            for op, seconds, loop, out, error in timed]


class Tally:
    """Latencies and outcomes of the operations of one run."""

    def __init__(self):
        self.latencies, self.unexpected = [], []
        self.passed = self.failed = 0

    def add(self, judged):
        for op, seconds, error in judged:
            self.latencies.append(seconds)
            if error is None:
                self.passed += 1
                continue
            self.failed += 1
            if op.fault is None:
                self.unexpected.append(f"{op.label}: {type(error).__name__}: {error}")


def measure(workload, seconds, min_ops, probes=0):
    """Whole rounds until both `seconds` and `min_ops` are reached.

    Between rounds the worker pauses `probes` times, evenly over `seconds`
    of measuring, while run.py times one more set-up in a fresh interpreter;
    the pauses are not part of the timed phase. Returns the tally (operation
    times at the reference speed), and the wall seconds and loop time of
    every operation.
    """
    tally, wall, loops, r, active, paused = Tally(), [], [], 0, 0.0, 0
    speed.loop_ms()
    while True:
        start = time.perf_counter()
        judged = run_round(workload.round(r))
        active += time.perf_counter() - start
        tally.add([(op, speed.at_reference(w, loop), error) for op, w, loop, error in judged])
        wall += [w for _, w, _, _ in judged]
        loops += [loop for _, _, loop, _ in judged]
        r += 1
        while paused < probes and active >= (paused + 1) * seconds / (probes + 1):
            print("probe", flush=True)
            sys.stdin.readline()
            paused += 1
        if active >= seconds and len(tally.latencies) >= min_ops:
            return tally, wall, loops


def quantile(values, q):
    """Linear-interpolated quantile, q in (0, 1)."""
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload.name == "cli_session" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0     # KiB on Linux


def import_times(env):
    """Median cumulative import time (ms) of sparkfinger.cli and of numpy,
    each in a fresh interpreter under -X importtime."""
    cli_ms, numpy_ms = [], []
    for _ in range(IMPORT_PROBES):
        cp = subprocess.run([sys.executable, "-X", "importtime", "-c",
                             "import sparkfinger.cli"],
                            capture_output=True, text=True, env=env, timeout=60,
                            check=True)
        cumulative = {}
        for line in cp.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)", line)
            if m:
                cumulative[m.group(2)] = int(m.group(1)) / 1000.0
        cli_ms.append(cumulative["sparkfinger.cli"])
        numpy_ms.append(cumulative["numpy"])
    return statistics.median(cli_ms), statistics.median(numpy_ms)


def environment():
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown"
    if (ROOT / ".git").exists():
        cp = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                            capture_output=True, text=True, check=False)
        commit = cp.stdout.strip() or commit
    return {
        "commit": commit,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
    }


def traced_run(workload, seconds):
    """Every operation twice, untraced and traced, until `seconds` have passed.

    Per-layer metrics are per operation of the traced rounds; the tracing
    overhead is the median, over operations, of the traced time minus the
    untraced time of the same operation run moments apart.
    """
    tracer = tracing.Tracer()
    plain, traced = Tally(), Tally()
    extra = {}
    csv_bytes = 0
    if workload.name == "cli_session":
        commands = (workload.command, [sys.executable, str(HERE / "tracedcli.py")])

        def collect(outdir):
            nonlocal csv_bytes
            csv_bytes += sum(p.stat().st_size for p in outdir.glob("*.csv"))
            tracer.merge(json.loads((outdir / "trace.json").read_text()))

    def run_variant(op, with_tracer):
        if workload.name == "cli_session":
            workload.command = commands[with_tracer]
            workload.on_output = collect if with_tracer else None
            return run_op(op)
        return run_op(op, tracer if with_tracer else None)

    r = 0
    start = time.perf_counter()
    while r == 0 or time.perf_counter() - start < seconds:
        runs = {False: [], True: []}
        for i, op in enumerate(workload.round(r)):
            # alternate which goes first, so a drift in machine speed cancels
            for with_tracer in (False, True) if (r + i) % 2 == 0 else (True, False):
                runs[with_tracer].append((op, *run_variant(op, with_tracer)))
        for tally, with_tracer in ((plain, False), (traced, True)):
            tally.add([(op, seconds, judge(op, out, error))
                       for op, seconds, out, error in runs[with_tracer]])
        r += 1
    ops = len(traced.latencies)
    if workload.name == "cli_session":
        extra["cli.csv_bytes"] = csv_bytes / ops
        extra["cli.import_ms"], extra["cli.import_numpy_ms"] = import_times(os.environ)
    extra["tracing.op_ms_p50_untraced"] = statistics.median(plain.latencies) * 1e3
    extra["tracing.op_ms_p50_traced"] = statistics.median(traced.latencies) * 1e3
    # both tallies hold the same operations in the same order
    extra["tracing.overhead_ms"] = statistics.median(
        t - p for t, p in zip(traced.latencies, plain.latencies)) * 1e3
    return {"attempted": len(plain.latencies) + ops,
            "failed": plain.failed + traced.failed,
            "unexpected": plain.unexpected + traced.unexpected,
            "metrics": tracing.layer_values(tracer.stats, ops, extra)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--probes", type=int, default=0,
                        help="set-up probes to pause for while measuring")
    args = parser.parse_args(argv)

    (HERE / "out").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / "out"))
    try:
        workload = WORKLOADS[args.workload](workdir, args.seed, args.smoke)
        workload.warm_up()
        print("ready", flush=True)
        if args.setup_only:
            return 0
        min_ops = 1 if args.smoke else MIN_OPS
        if args.trace:
            result = traced_run(workload, args.seconds)
        else:
            tally, wall, loops = measure(workload, args.seconds, min_ops, args.probes)
            lat = tally.latencies
            result = {
                "attempted": len(lat), "failed": tally.failed,
                "unexpected": tally.unexpected,
                "metrics": {
                    "ops_per_s": {"value": tally.passed / sum(lat), "unit": "1/s"},
                    "op_ms_p50": {"value": quantile(lat, 0.5) * 1e3, "unit": "ms"},
                    "op_ms_p90": {"value": quantile(lat, 0.9) * 1e3, "unit": "ms"},
                    "peak_rss_mb": {"value": peak_rss_mb(workload), "unit": "MB"},
                },
                # the same operations in wall time, as measured
                "wall": {"op_ms_p50": quantile(wall, 0.5) * 1e3,
                         "op_ms_p90": quantile(wall, 0.9) * 1e3,
                         "ops_per_s": tally.passed / sum(wall),
                         "loop_ms": statistics.median(loops)},
            }
        result["env"] = environment()
        print(json.dumps(result), flush=True)
        return 0
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
