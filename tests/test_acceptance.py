"""Acceptance suite: the ten headline guarantees of this package.

Each test prints one PASS line on success (run with -v and the test names
double as the report). The tests intentionally avoid re-deriving any library
formula: every expectation is either a stated constant, an independent
numeric route (finite differences, energy conservation, linear solve), or a
structural property.
"""
import dataclasses
import functools
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from sparkfinger import kinematics, mechanism, statics
from sparkfinger.dynamics import (
    DynamicsParams,
    dynamics_terms,
    potential_energy,
    simulate_free,
)
from sparkfinger.mechanism import FingerParams
from sparkfinger.modeswitch import Mode, SurfaceScenario, descend, mode_trace

PARAMS = FingerParams()


def report(line: str):
    print(f"ACCEPTANCE {line}: PASS")


@functools.lru_cache(maxsize=1)
def thousand_sample_trajectory():
    """Shared full-stroke sweep (1000 samples) with its wall-clock cost."""
    topology = mechanism.spark_preset()
    t0 = time.perf_counter()
    mechanism.discover_stroke(topology)
    trajectory = mechanism.fingertip_trajectory(topology, n_samples=1000)
    return trajectory, time.perf_counter() - t0


@functools.lru_cache(maxsize=1)
def bars_only_tip_path():
    """The same 1000 drivers, each solved by solve_position from its
    neighbour's closed-form pose (sample 0 from sample 1's), so the bars
    alone place the tip: (tip J, C→J angle) per sample."""
    topology = mechanism.spark_preset()
    drivers = thousand_sample_trajectory()[0].driver
    closed = mechanism._assemble(PARAMS, np.array(drivers) + PARAMS.CJ).transpose(2, 0, 1)
    seeds = closed[[1, *range(len(drivers) - 1)]]
    j, c = topology.joints.index("J"), topology.joints.index("C")
    tips, angles = [], []
    for v, seed in zip(drivers, seeds):
        X = mechanism.solve_position(topology, v,
                                     mechanism.LinkageState(seed, math.nan)).coordinates
        tips.append(X[j])
        angles.append(math.atan2(X[j, 1] - X[c, 1], X[j, 0] - X[c, 0]))
    return np.array(tips), angles


# ---------------------------------------------------------------------------

def test_c01_geometry_validation_and_speed():
    """Stock proportions validate; any 1% length error is caught; < 1 ms."""
    assert mechanism.validate_kempe_constraints(PARAMS).ok
    for field in ("L1", "L2", "L3"):
        bad = dataclasses.replace(PARAMS,
                                  **{field: getattr(PARAMS, field) * 1.01})
        assert not mechanism.validate_kempe_constraints(bad).ok, field

    mechanism.validate_kempe_constraints(PARAMS)  # warm
    best = min(
        (lambda t0: (mechanism.validate_kempe_constraints(PARAMS),
                     time.perf_counter() - t0)[1])(time.perf_counter())
        for _ in range(5))
    assert best < 1e-3, f"validation took {best * 1e3:.3f} ms"
    report("c01 geometry validation (1% perturbations caught, < 1 ms)")


def test_c02_straight_line_reproduction():
    """Fingertip deviates < 8e-5 mm from vertical over the full stroke."""
    trajectory, elapsed = thousand_sample_trajectory()
    assert len(trajectory) == 1000
    max_dev, _ = mechanism.straightness_metric(trajectory)
    assert max_dev <= 1e-6 * PARAMS.L1, f"max deviation {max_dev:.3e} mm"
    assert elapsed < 1.0, f"sweep took {elapsed:.2f} s"
    # the sweep places J on the line by construction; the bars alone must too
    tips, _ = bars_only_tip_path()
    bars_dev = float(np.abs(tips[:, 0] - mechanism.tip_line_x(PARAMS)).max())
    assert bars_dev <= 1e-6 * PARAMS.L1, f"bars-only deviation {bars_dev:.3e} mm"
    report(f"c02 straight line (max deviation {bars_dev:.2e} mm from the bars, "
           f"sweep {elapsed:.2f} s)")


def test_c03_fingertip_orientation_constancy():
    """Distal-segment orientation varies by < 1e-9 rad along the stroke."""
    trajectory, _ = thousand_sample_trajectory()
    angles = [s.orientation for s in trajectory]
    spread = max(angles) - min(angles)
    assert spread <= 1e-9, f"orientation spread {spread:.3e} rad"
    _, angles = bars_only_tip_path()
    bars_spread = max(angles) - min(angles)
    assert bars_spread <= 1e-9, f"bars-only orientation spread {bars_spread:.3e} rad"
    report(f"c03 fixed fingertip orientation (spread {bars_spread:.2e} rad "
           f"from the bars)")


def test_c04_jacobian_against_finite_differences():
    """Analytic Jacobian matches central differences at 100 random poses."""
    lengths = PARAMS.lengths
    rng = np.random.default_rng(11)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        q = rng.uniform(-math.pi, math.pi, 3)
        J = kinematics.jacobian(lengths, q)
        J_fd = np.zeros_like(J)
        for i in range(3):
            dq = np.zeros(3)
            dq[i] = h
            plus = kinematics.forward_kinematics(lengths, q + dq)
            minus = kinematics.forward_kinematics(lengths, q - dq)
            J_fd[:2, i] = np.subtract(plus.tip_position,
                                      minus.tip_position) / (2 * h)
            J_fd[2, i] = (plus.tip_orientation
                          - minus.tip_orientation) / (2 * h)
        rel = np.max(np.abs(J - J_fd)) / np.max(np.abs(J))
        worst = max(worst, rel)
    assert worst <= 1e-6, f"worst relative error {worst:.3e}"
    report(f"c04 jacobian vs finite differences (worst rel err {worst:.2e})")


def test_c05_dynamics_structure_and_energy():
    """M symmetric/PD, skew identity, gravity gradient, energy drift."""
    p = DynamicsParams.from_finger(PARAMS)
    rng = np.random.default_rng(5)

    worst_skew = 0.0
    for _ in range(100):
        q = rng.uniform(-math.pi, math.pi, 3)
        qd = rng.uniform(-3.0, 3.0, 3)
        M, C, G = dynamics_terms(p, q, qd)
        assert np.max(np.abs(M - M.T)) <= 1e-12 * np.max(np.abs(M))
        assert np.linalg.eigvalsh(M).min() > 0.0

        # dM/dt along qd by a fourth-order central stencil
        h = 1e-4
        m = lambda s: dynamics_terms(p, q + s * qd, qd)[0]
        Mdot = (-m(2 * h) + 8 * m(h) - 8 * m(-h) + m(-2 * h)) / (12 * h)
        S = Mdot - 2.0 * C
        worst_skew = max(worst_skew, np.max(np.abs(S + S.T)))

        for i in range(3):
            dq = np.zeros(3)
            dq[i] = 1e-6
            fd = (potential_energy(p, q + dq)
                  - potential_energy(p, q - dq)) / 2e-6
            assert G[i] == pytest.approx(fd, rel=1e-6, abs=1e-6)
    assert worst_skew <= 1e-8, f"skew residual {worst_skew:.3e}"

    q0 = kinematics.reference_angles(PARAMS).as_array()
    qdot0 = np.array([1.0, -2.0, 0.5])
    drifts = {}
    for label, params in (("with gravity", p),
                          ("without gravity",
                           dataclasses.replace(p, g=0.0))):
        trace = simulate_free(params, q0, qdot0, 1.0, 1e-4)
        drifts[label] = trace.max_relative_energy_drift()
        assert drifts[label] <= 1e-6, f"{label}: drift {drifts[label]:.3e}"
    report("c05 dynamics structure (skew %.1e; drift %.1e / %.1e)"
           % (worst_skew, drifts["with gravity"], drifts["without gravity"]))


def test_c06_scoop_statics_equivalence():
    """Closed form == linear system (1e-10 rel) and virtual-work clean."""
    rng = np.random.default_rng(6)
    worst_rel, worst_vw = 0.0, 0.0
    for _ in range(1000):
        act = statics.ActuationInput(T=rng.uniform(0.1, 100.0),
                                     k=rng.uniform(0.0, 200.0))
        geom = statics.ContactGeometry(
            d2=rng.uniform(1.0, 60.0), d3=rng.uniform(1.0, 60.0),
            theta2=rng.uniform(0.0, math.pi / 2 - 0.05),
            theta3=rng.uniform(0.0, math.pi / 2 - 0.05))
        a = statics.scoop_forces(act, geom, PARAMS.L2)
        b = statics.scoop_forces_via_system(act, geom, PARAMS.L2)
        for x, y in ((a.F2, b.F2), (a.F3, b.F3)):
            scale = max(abs(x), abs(y), 1e-12)
            worst_rel = max(worst_rel, abs(x - y) / scale)
        for fr in (a, b):
            worst_vw = max(worst_vw,
                           statics.virtual_work_check(act, geom, PARAMS.L2,
                                                      fr))
    assert worst_rel <= 1e-10, f"route disagreement {worst_rel:.3e}"
    assert worst_vw <= 1e-8, f"virtual-work residual {worst_vw:.3e}"
    report(f"c06 scoop statics equivalence (rel {worst_rel:.1e}, "
           f"vw {worst_vw:.1e})")


def test_c07_pinch_force_curve():
    """F3 strictly increases on [0, 90) deg and starts at T/(d3+L2)."""
    T, d3 = 20.0, 14.4
    geom0 = statics.ContactGeometry(d2=20.0, d3=d3, theta2=0.0, theta3=0.0)
    assert statics.pinch_force(T, geom0, PARAMS.L2) == T / (d3 + PARAMS.L2)

    previous = -math.inf
    for theta2 in np.linspace(0.0, math.radians(90.0), 1000,
                              endpoint=False):
        geom = dataclasses.replace(geom0, theta2=float(theta2))
        force = statics.pinch_force(T, geom, PARAMS.L2)
        assert force > previous
        previous = force
    report("c07 pinch force curve (strictly increasing, exact at 0 deg)")


def test_c08_mode_switch_endpoints():
    """Rotation 0 through 15.8 mm, exactly 22.8 deg at 30.4 mm, monotone."""
    flat = SurfaceScenario()
    for depth in np.linspace(0.0, PARAMS.dh1, 200):
        assert descend(PARAMS, flat, float(depth)).distal_rotation == 0.0
    state = descend(PARAMS, flat, 30.4)
    assert state.mode is Mode.SCOOP_COMPLETE
    assert abs(state.distal_rotation - 22.8) <= 1e-9

    trace = mode_trace(PARAMS, flat, max_depth=45.0, n_samples=500)
    rotations = [s.distal_rotation for s in trace]
    assert rotations == sorted(rotations)
    report("c08 mode-switch endpoints (0 @ 15.8 mm, 22.8 deg @ 30.4 mm)")


def test_c09_cross_model_tip_path_agreement():
    """Constraint solver and phalanx chain trace the same tip path and hold
    the same tip orientation, on the stock finger and at half/double scale."""
    cases = [(PARAMS, thousand_sample_trajectory()[0][::5])]
    for scale in (0.5, 2.0):
        params = FingerParams(L1=80.0 * scale, L2=40.0 * scale,
                              L3=20.0 * scale, CJ=28.8 * scale)
        cases.append((params, mechanism.fingertip_trajectory(
            mechanism.spark_preset(params), n_samples=50)))
    worst_tip, worst_angle = 0.0, 0.0
    for params, trajectory in cases:
        tip_bound = 1e-6 * params.L1 / 80.0
        for sample in trajectory:
            q = kinematics.constrained_motion(params, sample.driver)
            fk = kinematics.forward_kinematics(params.lengths, q)
            tip = max(abs(fk.tip_position[0] - sample.tip[0]),
                      abs(fk.tip_position[1] - sample.tip[1]))
            angle = abs(fk.tip_orientation - sample.orientation)
            assert tip <= tip_bound, (
                f"L1={params.L1}: tip paths disagree by {tip:.3e} mm")
            assert angle <= 1e-9, (
                f"L1={params.L1}: orientations disagree by {angle:.3e} rad")
            worst_tip = max(worst_tip, tip * 80.0 / params.L1)
            worst_angle = max(worst_angle, angle)
    report(f"c09 cross-model tip agreement (worst {worst_tip:.2e} mm per "
           f"80 mm of L1, orientation {worst_angle:.2e} rad)")


def test_c10_cli_determinism(tmp_path):
    """Identical CLI invocations produce byte-identical CSV files."""
    jobs = [
        (["traj", "--samples", "25"], ["trajectory.csv", "displacement.csv"]),
        (["forces", "pinch", "--samples", "15"], ["forces_pinch.csv"]),
        (["forces", "scoop", "--samples", "15"], ["forces_scoop.csv"]),
        (["descend", "--samples", "30"], ["descend.csv"]),
        (["dynamics", "--duration", "0.002"], ["dynamics.csv"]),
    ]
    for arguments, files in jobs:
        outputs = []
        for run in ("a", "b"):
            outdir = tmp_path / f"{arguments[0]}_{run}"
            cp = subprocess.run(
                [sys.executable, "-m", "sparkfinger", *arguments,
                 "--out", str(outdir), "--quiet"],
                capture_output=True, text=True, timeout=60)
            assert cp.returncode == 0, cp.stderr
            outputs.append(outdir)
        for name in files:
            first = (outputs[0] / name).read_bytes()
            second = (outputs[1] / name).read_bytes()
            assert first == second, f"{name} differs between reruns"
    report("c10 CLI determinism (byte-identical reruns)")
