"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q

The smoke tests run every workload through run.py at a tiny size, traced
and untraced. The check tests feed each output check a genuine program
output, which it must accept, and the same output with one value corrupted,
which it must reject.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from sparkfinger import dynamics, kinematics, mechanism  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
FAILED_PER_SMOKE_ROUND = {"design_sweep": (2, 4), "dense_path": (0, 2),
                          "free_motion": (0, 2), "cli_session": (1, 5)}


def run_bench(root, *args):
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=root, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_run(workload, trace):
    cp = run_bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.05",
                   "--trace", str(trace), "--smoke")
    assert cp.returncode == 0, cp.stderr
    result = json.loads(cp.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], cp.stderr
    failed, per_round = FAILED_PER_SMOKE_ROUND[workload]
    assert result["attempted"] % per_round == 0
    assert result["failed"] * per_round == result["attempted"] * failed
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCH[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    cp = run_bench(tmp_path, "--workload", "free_motion", "--seed", "1",
                   "--seconds", "1")
    assert cp.returncode != 0
    assert '"metrics"' not in cp.stdout


def test_reference_speed_scales_by_the_loop():
    # at the reference speed a time stays as measured; on a machine running
    # at half that speed (the loop takes twice as long) it reads half
    assert speed.at_reference(0.2, speed.REFERENCE_MS) == pytest.approx(0.2)
    assert speed.at_reference(0.2, 2 * speed.REFERENCE_MS) == pytest.approx(0.1)
    assert speed.loop_ms() > 0


# ---------------------------------------------------------------------------
# Linkage checks
# ---------------------------------------------------------------------------

STOCK = mechanism.FingerParams()


@pytest.fixture(scope="module")
def stock_path():
    topology = mechanism.spark_preset(STOCK)
    stroke = mechanism.discover_stroke(topology)
    path = mechanism.fingertip_trajectory(topology, stroke, n_samples=20)
    return stroke, [(s.driver, s.tip[0], s.tip[1], s.orientation) for s in path]


def _check_path(stroke, rows):
    checks.check_tip_path(STOCK.L1, STOCK.L2, STOCK.L3, STOCK.CJ, rows, stroke)


def _replace(rows, k, field, delta):
    row = list(rows[k])
    row[field] += delta
    return rows[:k] + [tuple(row)] + rows[k + 1:]


def test_tip_path_accepts_program_output(stock_path):
    _check_path(*stock_path)


@pytest.mark.parametrize("field, delta", [(1, 1e-3 * STOCK.L1), (3, 1e-8), (2, 1e-6)])
def test_tip_path_rejects_one_corrupted_sample(stock_path, field, delta):
    stroke, rows = stock_path
    with pytest.raises(checks.CheckError):
        _check_path(stroke, _replace(rows, 7, field, delta))


def test_tip_path_rejects_stroke_past_the_fold(stock_path):
    stroke, rows = stock_path
    _, hi_fold = checks.fold_bounds(STOCK.L1, STOCK.L2, STOCK.L3, STOCK.CJ)
    with pytest.raises(checks.CheckError):
        _check_path((stroke[0], hi_fold + 0.3), rows)


def test_half_scale_design_fails_its_check():
    op = workloads.DesignSweep(HERE, seed=0, smoke=False)._op(40.0, 14.4)
    with pytest.raises((checks.CheckError, mechanism.NonConvergenceError)):
        op.check(op.run())


def test_chain_check_against_constrained_motion(stock_path):
    _, rows = stock_path
    _, x, y, _ = rows[5]
    q = kinematics.constrained_motion(STOCK, y).as_array()
    checks.check_chain_reaches(STOCK.lengths, q, (x, y))
    with pytest.raises(checks.CheckError):
        checks.check_chain_reaches(STOCK.lengths, q + [1e-4, 0.0, -1e-4], (x, y))


# ---------------------------------------------------------------------------
# Dynamics checks
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def free_trace():
    params = dynamics.DynamicsParams.from_finger(STOCK)
    q0 = kinematics.reference_angles().as_array()
    trace = dynamics.simulate_free(params, q0, np.radians([40.0, -30.0, 20.0]), 0.01, 1e-4)
    return params, trace


def test_energy_drift_check(free_trace):
    _, trace = free_trace
    K, P, E = trace.kinetic.tolist(), trace.potential.tolist(), trace.energy.tolist()
    checks.check_energy_drift(K, P, E)
    scale = max(abs(E[0]), max(K))
    drift = [1e-5 * scale * i / len(E) for i in range(len(E))]
    with pytest.raises(checks.CheckError):
        checks.check_energy_drift(K, [p + d for p, d in zip(P, drift)],
                                  [e + d for e, d in zip(E, drift)])


def test_kinetic_check(free_trace):
    params, trace = free_trace
    i = 40
    M, _, _ = dynamics.dynamics_terms(params, trace.q[i], trace.qdot[i])
    K = trace.kinetic
    checks.check_kinetic(K[i], trace.qdot[i].tolist(), M.tolist(), K.max())
    with pytest.raises(checks.CheckError):
        checks.check_kinetic(K[i] * (1 + 1e-6), trace.qdot[i].tolist(), M.tolist(), K.max())


def _torque(params, trace, qdot_next):
    i = 50
    q, qd = trace.q[i], trace.qdot[i]
    qdd = np.array(checks.central_acceleration(trace.qdot[i - 1], qdot_next, 1e-4))
    M, C, G = dynamics.dynamics_terms(params, q, qd)
    scale = float(np.max(np.abs(M @ qdd) + np.abs(C @ qd) + np.abs(G)))
    return dynamics.inverse_dynamics(params, q, qd, qdd).tolist(), scale


def test_free_torque_check(free_trace):
    params, trace = free_trace
    checks.check_free_torque(*_torque(params, trace, trace.qdot[51]))
    # a trace whose next rate is off by 1e-3 rad/s no longer obeys Lagrange
    with pytest.raises(checks.CheckError):
        checks.check_free_torque(*_torque(params, trace, trace.qdot[51] + 1e-3))


def test_free_motion_op_rejects_a_model_without_coriolis(monkeypatch):
    sweep = workloads.FreeMotion(HERE, seed=0, smoke=True)
    op = sweep._op(sweep.params[0], sweep.q_ref, np.radians([60.0, -40.0, 30.0]))
    op.check(op.run())
    original = dynamics.dynamics_terms

    def no_coriolis(params, q, qdot):
        M, C, G = original(params, q, qdot)
        return M, 0.0 * C, G

    monkeypatch.setattr(dynamics, "dynamics_terms", no_coriolis)
    with pytest.raises(checks.CheckError):
        op.check(op.run())


# ---------------------------------------------------------------------------
# CLI output checks (real subprocesses, one corrupted cell)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def session(tmp_path_factory):
    return workloads.CliSession(tmp_path_factory.mktemp("cli"), seed=3, smoke=False)


def _corrupt_csv(out, name, row, col):
    stdout, files = out
    files = {k: [list(r) for r in v] for k, v in files.items()}
    files[name][row][col] = repr(float(files[name][row][col]) * 1.001 + 1e-3)
    return stdout, files


@pytest.mark.parametrize("make, name, col", [
    (lambda s: s._forces("pinch", 10.0, 70.0), "forces_pinch.csv", 3),
    (lambda s: s._forces("scoop", 2.0, 20.0), "forces_scoop.csv", 2),
    (lambda s: s._forces("scoop", 2.0, 20.0), "forces_scoop.csv", 3),
    (lambda s: s._descend_flat(8.0), "descend.csv", 2),
    (lambda s: s._descend_tilted(25.0), "descend.csv", 6),
    (lambda s: s._traj(), "trajectory.csv", 1),
    (lambda s: s._dynamics([1.0, 2.0, 3.0], [10.0, -20.0, 30.0]), "dynamics.csv", 9),
])
def test_cli_check_rejects_one_wrong_row(session, make, name, col):
    op = make(session)
    out = op.run()
    op.check(out)
    with pytest.raises(checks.CheckError):
        op.check(_corrupt_csv(out, name, 30, col))


def _bump_line(stdout, prefix, sep):
    lines = stdout.splitlines()
    for i, line in enumerate(lines):
        if line.startswith(prefix):
            head, _, value = line.partition(sep)
            lines[i] = f"{head}{sep}{float(value.split(',')[0]) + 1e-3!r}" + (
                "," + value.split(",", 1)[1] if "," in value else "")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("make, prefix, sep", [
    (lambda s: s._fk([30.0, -45.5, 12.25]), "tip_y_mm", "="),
    (lambda s: s._fk([30.0, -45.5, 12.25]), "orientation_rad", "="),
    (lambda s: s._jac([-120.0, 60.0, 5.0]), "vy_mm_s", ","),
    (lambda s: s._jac([-120.0, 60.0, 5.0]), "wz_rad_s", ","),
])
def test_cli_kinematics_check_rejects_one_wrong_value(session, make, prefix, sep):
    op = make(session)
    stdout, files = op.run()
    op.check((stdout, files))
    with pytest.raises(checks.CheckError):
        op.check((_bump_line(stdout, prefix, sep), files))


def test_tilted_descend_fault_is_caught(session):
    op = session._descend_faulty()
    assert op.fault == workloads.TILT_FAULT
    with pytest.raises(checks.CheckError):
        op.check(op.run())


def test_descent_law_is_piecewise_linear():
    law = [checks.descent_law(p, 15.8, 14.6, 22.8) for p in (0.0, 10.0, 23.1, 40.0)]
    assert law[0] == law[1] == ("PinchContact", 0.0)
    assert law[2][0] == "Scooping" and math.isclose(law[2][1], 7.3 / 14.6 * 22.8)
    assert law[3] == ("ScoopComplete", 22.8)


def test_scaled_params_keep_the_exact_ratio():
    for _, L1, CJ in workloads.design_pool():
        params = mechanism.FingerParams(L1=L1, L2=L1 / 2, L3=L1 / 4, CJ=CJ)
        assert mechanism.validate_kempe_constraints(params).ok
