"""Run one benchmark workload and print its metrics as the last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src. The measured run is one worker process; set-up is timed in it and
in sixteen more fresh interpreters started in pauses spread over the
measured run, and reported as the median. Every time is reported at the
reference speed of speed.py. The last line of standard output is
{"correct", "attempted", "failed", "metrics"}; the line before it records
the commit, Python, numpy, BLAS and thread setting, and the same times in
plain wall time.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import speed
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 16           # set-ups timed during the run, besides the measured one
DEADLINE = 170.0            # s; every worker is killed past this
BLAS_THREADS = "1"


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("SPARKFINGER_OUT", None)
    # the same thread setting for the workers and every CLI child they start
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_worker(args, env, deadline, probes=None):
    """Start a worker; return its set-up times and its last line of output.

    probes=None starts a set-up-only worker. Otherwise the worker measures
    and pauses `probes` times, and each pause times the set-up of one more
    set-up-only worker; the times come back in the order they were taken.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    cmd += ["--setup-only"] if probes is None else ["--probes", str(probes)]
    start = time.perf_counter()
    # its own process group, so that a hung CLI child goes down with it
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True, env=env, cwd=ROOT, start_new_session=True)

    def kill_group():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), kill_group)
    watchdog.start()
    last = None
    try:
        ready = proc.stdout.readline()
        setups = [time.perf_counter() - start]
        for line in iter(proc.stdout.readline, ""):
            if line.strip() == "probe":
                setups += run_worker(args, env, deadline)[0]
                proc.stdin.write("go\n")
                proc.stdin.flush()
            else:
                last = line
        code = proc.wait()
    finally:
        watchdog.cancel()
        kill_group()
        proc.wait()
    if ready.strip() != "ready" or code != 0:
        raise RuntimeError(f"worker failed (exit {code}) on {args.workload}")
    return setups, last


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one round, for the benchmark's tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sparkfinger" / "__init__.py").is_file():
        print(f"run.py: no sparkfinger sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE
    # a user's installed package has its bytecode compiled
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    env = worker_env()
    try:
        setups, line = run_worker(args, env, deadline,
                                  0 if args.smoke or args.trace else SETUP_PROBES)
    except RuntimeError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    result = json.loads(line)
    metrics = result["metrics"]
    wall = result.get("wall", {})
    if not args.trace:
        # the set-ups are spread over the measured run, so the run's own
        # median loop time gives the speed they ran at
        wall["setup_s"] = statistics.median(setups)
        metrics["setup_s"] = {"value": speed.at_reference(wall["setup_s"], wall["loop_ms"]),
                              "unit": "s"}
    for problem in result["unexpected"]:
        print(f"unexpected failure: {problem}", file=sys.stderr)
    print(json.dumps({"env": result["env"], "wall": wall, "setup_samples_s": setups}))
    print(json.dumps({"correct": not result["unexpected"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
