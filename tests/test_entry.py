"""The process entry and the lazy package.

`sparkfinger.__main__.run` is the one place that sets the cyclic collector:
off while the command runs, every object frozen before the process exits.
These tests pin that scope, the property that makes it safe (a run makes no
cyclic garbage per row), standard output that refuses a write, and
`import sparkfinger` loading no numpy.
"""
import contextlib
import gc
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sparkfinger
from sparkfinger import cli, mechanism

CHILD_TIMEOUT_S = 60


def run_python(code: str, *argv: str, env_extra=None) -> subprocess.CompletedProcess:
    env = os.environ.copy()
    env.pop("SPARKFINGER_OUT", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, env=env,
                          timeout=CHILD_TIMEOUT_S)


# ---------------------------------------------------------------------------
# the collector: only run() sets it
# ---------------------------------------------------------------------------

def test_cli_main_leaves_the_collector_alone(tmp_path):
    enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    assert cli.main(["--out", str(tmp_path), "traj", "--samples", "10"]) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)


RUN_AND_REPORT = (
    "import gc, sys\n"
    "from sparkfinger.__main__ import run\n"
    "status = run()\n"
    "print(status, gc.isenabled(), gc.get_freeze_count() > 0)\n")


@pytest.mark.parametrize("finger, status", [("", 0), ("L3 = 21\n", 1)],
                         ids=["valid", "rejected"])
def test_run_returns_main_status_with_the_collector_off_and_frozen(
        tmp_path, finger, status):
    ini = tmp_path / "run.ini"
    ini.write_text(f"[finger]\n{finger}")
    cp = run_python(RUN_AND_REPORT, "--config", str(ini), "validate")
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.splitlines()[-1] == f"{status} False True"


def test_importing_the_entry_module_runs_nothing():
    cp = run_python("import gc, sys\n"
                    "import sparkfinger.__main__\n"
                    "print(gc.isenabled(), 'numpy' in sys.modules)\n")
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout == "True False\n"


def _cyclic_garbage(argv) -> int:
    """Objects in reference cycles left by one in-process run of argv."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("argv, small, large", [
    (["traj"], ["--samples", "10"], ["--samples", "2000"]),
    (["forces", "pinch"], ["--samples", "10"], ["--samples", "2000"]),
    (["forces", "scoop"], ["--samples", "10"], ["--samples", "2000"]),
    (["descend"], ["--samples", "10"], ["--samples", "2000"]),
    (["descend", "--tilt", "20"], ["--samples", "10"], ["--samples", "2000"]),
    (["dynamics"], ["--duration", "0.001"], ["--duration", "0.05"]),
], ids=["traj", "forces pinch", "forces scoop", "descend", "descend tilted",
        "dynamics"])
def test_a_run_makes_no_cyclic_garbage_per_row(tmp_path, argv, small, large):
    # what run() leaves to the exit is the same whatever the size of the job
    argv = ["--out", str(tmp_path), *argv]
    _cyclic_garbage(argv + small)      # first-call imports and caches
    assert _cyclic_garbage(argv + small) == _cyclic_garbage(argv + large)


# ---------------------------------------------------------------------------
# standard output that refuses a write
# ---------------------------------------------------------------------------

def _closed_pipe():
    read_end, write_end = os.pipe()
    os.close(read_end)
    return write_end


def _full_device():
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    return os.open("/dev/full", os.O_WRONLY)


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("sink, reason", [
    (_closed_pipe, "Broken pipe"),
    (_full_device, "No space left on device"),
], ids=["closed pipe", "full device"])
@pytest.mark.parametrize("argv", [["validate"], ["traj"], ["jac", "10", "20", "30"]],
                         ids=" ".join)
def test_unwritable_standard_output_is_one_error_line(tmp_path, argv, sink, reason,
                                                      buffered):
    env = os.environ.copy()
    env.pop("SPARKFINGER_OUT", None)
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    stdout = sink()
    try:
        cp = subprocess.run([sys.executable, "-m", "sparkfinger",
                             "--out", str(tmp_path), *argv],
                            stdout=stdout, stderr=subprocess.PIPE, text=True,
                            env=env, timeout=CHILD_TIMEOUT_S)
    finally:
        os.close(stdout)
    assert cp.returncode == 2
    assert cp.stderr == f"error: cannot write standard output: {reason}\n"


def _run_module(*argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE):
    """`python -m sparkfinger argv` with buffered standard streams."""
    env = os.environ.copy()
    env.pop("SPARKFINGER_OUT", None)
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, "-m", "sparkfinger", *argv],
                          stdout=stdout, stderr=stderr, text=True, env=env,
                          timeout=CHILD_TIMEOUT_S)


def test_unwritable_standard_error_stops_the_writing(tmp_path):
    stderr = _full_device()
    try:
        # main's own `error:` line is the first write that fails
        failed = _run_module("--out", str(tmp_path), "fk", "1e308", "1e308",
                             "1e308", stderr=stderr)
        ok = _run_module("--out", str(tmp_path), "validate", stderr=stderr)
    finally:
        os.close(stderr)
    assert (failed.returncode, failed.stdout) == (2, "")
    assert (ok.returncode, ok.stdout) == (0, "validate: ok\n")


def test_help_into_a_closed_pipe_is_one_error_line():
    # argparse leaves main through SystemExit; run() still flushes stdout
    stdout = _closed_pipe()
    try:
        cp = _run_module("--help", stdout=stdout)
    finally:
        os.close(stdout)
    assert cp.returncode == 2
    assert cp.stderr == "error: cannot write standard output: Broken pipe\n"


def test_help_and_usage_errors_keep_their_status():
    helped = _run_module("--help")
    assert (helped.returncode, helped.stderr) == (0, "")
    assert helped.stdout.startswith("usage: sparkfinger ")
    refused = _run_module("fk", "1", "2")
    assert (refused.returncode, refused.stdout) == (2, "")
    assert refused.stderr.startswith("usage: sparkfinger fk ")
    assert refused.stderr.endswith(
        "error: the following arguments are required: theta3\n")


# ---------------------------------------------------------------------------
# the lazy package and the console script
# ---------------------------------------------------------------------------

def test_import_sparkfinger_loads_no_numpy():
    cp = run_python("import sys\n"
                    "import sparkfinger\n"
                    "print('numpy' in sys.modules,"
                    " *sorted(m for m in sys.modules if m.startswith('sparkfinger')))\n")
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout == "False sparkfinger\n"


@pytest.mark.parametrize("name", sparkfinger.__all__)
def test_every_public_name_resolves(name):
    namespace = {}
    exec(f"from sparkfinger import {name}", namespace)
    expected = "0.1.0" if name == "__version__" else getattr(mechanism, name)
    assert namespace[name] == expected


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        sparkfinger.no_such_name


def test_the_console_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts["sparkfinger"] == "sparkfinger.__main__:run"
