"""Tests for the bar-joint solver and the stock straight-line linkage."""
import collections.abc
import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from sparkfinger import mechanism
from sparkfinger.kinematics import constrained_motion
from sparkfinger.mechanism import (
    FingerParams,
    LinkageTopology,
    NonConvergenceError,
    discover_stroke,
    fingertip_trajectory,
    mobility,
    reference_state,
    reference_tip_height,
    solve_position,
    spark_preset,
    straightness_metric,
    tip_line_x,
    validate_kempe_constraints,
)


# ---------------------------------------------------------------------------
# Parameter validation
# ---------------------------------------------------------------------------

def test_stock_parameters_validate():
    report = validate_kempe_constraints(FingerParams())
    assert report.ok
    assert report.violations == ()


@pytest.mark.parametrize("field", ["L1", "L2", "L3"])
def test_one_percent_length_perturbation_fails(field):
    p = FingerParams()
    bad = dataclasses.replace(p, **{field: getattr(p, field) * 1.01})
    report = validate_kempe_constraints(bad)
    assert not report.ok
    assert report.violations


def test_violation_message_names_the_broken_ratio():
    bad = dataclasses.replace(FingerParams(), L3=21.0)
    report = validate_kempe_constraints(bad)
    text = " ".join(report.violations)
    assert "4:1" in text


def test_nonpositive_length_rejected():
    report = validate_kempe_constraints(
        dataclasses.replace(FingerParams(), CJ=0.0))
    assert not report.ok


@pytest.mark.parametrize("field, value, named", [
    ("m1", 0.0, "m1 must be > 0"),
    ("m2", -0.02, "m2 must be > 0"),
    ("m3", math.nan, "m3 is not finite"),
    ("dh2", 1e-10, "dh2 must be > 2*BOUNDARY_GRACE = 2e-09 mm"),
    ("dtheta_c1", 0.0, "dtheta_c1 must be in (0, 90)"),
    ("dtheta_c1", -30.0, "dtheta_c1 must be in (0, 90)"),
    ("dtheta_c1", 90.0, "dtheta_c1 must be in (0, 90)"),
    ("lc1", 80.5, "lc1 must be in [0, L1]"),
    ("lc2", -1.0, "lc2 must be in [0, L2]"),
    ("lc3", math.inf, "lc3 must be in [0, L3]"),
])
def test_masses_and_distal_rotation_are_validated(field, value, named):
    report = validate_kempe_constraints(
        dataclasses.replace(FingerParams(), **{field: value}))
    assert not report.ok
    assert any(v.startswith(named) for v in report.violations), report.violations


@pytest.mark.parametrize("CJ, ok", [(81.8, True), (81.95, False), (120.0, False)])
def test_tip_arm_is_bounded_by_the_chains_reach(CJ, ok):
    # at the stock lengths the wrist leaves the chain's reach L1 + L2 at the
    # stroke's lower end once CJ passes about 81.88 mm
    params = FingerParams(CJ=CJ)
    report = validate_kempe_constraints(params)
    assert report.ok is ok
    far, _ = mechanism._cell_folds(params)
    lo = far - CJ + mechanism.STROKE_MARGIN * params.L1
    if ok:
        constrained_motion(params, lo)
    else:
        assert report.violations[0].startswith("CJ must be <= 81.88358")
        with pytest.raises(ValueError, match="unreachable for the chain"):
            constrained_motion(params, lo)


@given(scale=st.floats(min_value=0.1, max_value=10.0,
                       allow_nan=False, allow_infinity=False),
       cj_share=st.floats(min_value=0.2, max_value=0.6))
@settings(max_examples=30, deadline=None)
def test_uniform_scaling_preserves_validity(scale, cj_share):
    # The ratio requirements are scale-free, so any uniform resize of the
    # stock geometry must still validate, and its tip must still ride the
    # straight line at a fixed orientation over the whole stroke.
    L1, L2, L3 = 80.0 * scale, 40.0 * scale, 20.0 * scale
    scaled = FingerParams(L1=L1, L2=L2, L3=L3, CJ=cj_share * L1)
    assert validate_kempe_constraints(scaled).ok

    # the tip heights where the cascade stops reaching C (|AC| = 2·L2) and
    # where the rhombus stops closing (|AI| = L2 − L3), I riding x_i
    x_i = (L2 ** 2 - L3 ** 2) / (2.0 * L1)
    far = -math.sqrt(4.0 * L2 ** 2 - (x_i - L1) ** 2) - scaled.CJ
    near = -math.sqrt((L2 - L3) ** 2 - x_i ** 2) - scaled.CJ
    topo = spark_preset(scaled)
    lo, hi = discover_stroke(topo)
    assert far < lo < hi < near
    for s in fingertip_trajectory(topo, n_samples=50):
        assert abs(s.tip[0] - tip_line_x(scaled)) <= 1e-6 * L1
        assert abs(s.orientation + math.pi / 2) <= 1e-9


# ---------------------------------------------------------------------------
# Preset topology
# ---------------------------------------------------------------------------

def test_preset_shape():
    topo = spark_preset()
    assert len(topo.joints) == 10
    assert len(topo.bars) == 16
    lengths = {(a, b): L for a, b, L in topo.bars}
    assert lengths["A", "D"] == 80.0
    assert lengths["H", "I"] == 20.0


def test_preset_mobility_is_one():
    assert mobility(spark_preset()) == 1


def test_preset_rejects_invalid_ratios():
    with pytest.raises(ValueError):
        spark_preset(dataclasses.replace(FingerParams(), L2=41.0))


def test_a_topology_is_its_finger():
    # the finger is checked where the topology is made, and every bar is
    # derived from it: swapping the finger swaps the bars
    with pytest.raises(ValueError, match=r"^invalid linkage parameters: .*L1:L2 != 2:1"):
        LinkageTopology(FingerParams(L2=41.0))
    f = FingerParams(L1=32.0, L2=16.0, L3=8.0, CJ=11.52)
    swapped = dataclasses.replace(spark_preset(), finger=f)
    assert swapped == spark_preset(f)
    assert swapped.bars == spark_preset(f).bars
    assert swapped.bars != spark_preset().bars
    assert [field.name for field in dataclasses.fields(LinkageTopology)] == ["finger"]


def test_preset_carries_its_finger_and_assembles_no_pose(monkeypatch):
    # the preset keeps the FingerParams it was built from; the reference
    # pose is assembled only when reference_state asks for it
    def no_assembly(*args):
        raise AssertionError("assembled a pose")
    monkeypatch.setattr(mechanism, "_assemble", no_assembly)
    params = FingerParams(L1=32.0, L2=16.0, L3=8.0, CJ=11.52)
    topo = spark_preset(params)
    assert topo.finger is params
    assert discover_stroke(topo) == discover_stroke(spark_preset(params))
    with pytest.raises(AssertionError, match="assembled a pose"):
        reference_state(topo)


@given(L1=st.floats(min_value=-2.0, max_value=7.0).map(lambda e: 10.0 ** e),
       cj_share=st.floats(min_value=1e-3, max_value=1.0236))
@settings(max_examples=50, deadline=None)
def test_driver_is_the_reference_tip_height_on_every_accepted_scale(L1, cj_share):
    # a stock-shaped finger from 0.01 mm to 10 km: the driver's neutral value
    # is the closed-form tip height, and the reference pose puts J there
    p = FingerParams(L1=L1, L2=L1 / 2, L3=L1 / 4, CJ=cj_share * L1)
    assume(validate_kempe_constraints(p).ok)
    topo = spark_preset(p)
    assert topo.driver == ("J", "y", reference_tip_height(p))
    assert reference_state(topo).coordinates[topo.joints.index("J"), 1] == topo.driver[2]


def test_reference_assembly_is_consistent():
    topo = spark_preset()
    state = reference_state(topo)
    assert state.residual_norm < 1e-12
    X, col = state.coordinates, topo.joints.index
    for a, b, length in topo.bars:
        d = np.linalg.norm(X[col(a)] - X[col(b)])
        assert d == pytest.approx(length, abs=1e-9)


# ---------------------------------------------------------------------------
# Position solving
# ---------------------------------------------------------------------------

def test_solve_position_converges_from_reference():
    topo = spark_preset()
    start = reference_state(topo)
    target = topo.driver[2] + 1.0
    state = solve_position(topo, target, start)
    assert state.residual_norm <= topo.tol
    assert state.coordinates[topo.joints.index("J"), 1] == pytest.approx(target, abs=1e-9)


def test_solve_reports_failure_for_unreachable_driver():
    topo = spark_preset()
    start = reference_state(topo)
    with pytest.raises(NonConvergenceError):
        solve_position(topo, topo.driver[2] - 500.0, start)


@pytest.mark.parametrize("driver", [math.nan, math.inf, -math.inf, -1e308])
def test_a_driver_that_no_pose_can_meet_is_refused_where_it_enters(monkeypatch, driver):
    # no residual is formed, so no numpy warning can stand in for the error
    topo = spark_preset()
    start = reference_state(topo)

    def no_residual(*args):
        raise AssertionError("formed a residual")
    monkeypatch.setattr(mechanism, "_residual", no_residual)
    reach = sum(L for a, b, L in topo.bars if {a, b} != {"A", "D"})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if math.isfinite(driver):
            with pytest.raises(NonConvergenceError,
                               match=rf"^driver={re.escape(str(driver))} is beyond the bars' reach: ") as info:
                solve_position(topo, driver, start)
            bound = re.search(r"\|driver\| > (\S+) mm", str(info.value))
            assert float(bound[1]) == pytest.approx(reach, rel=1e-12)
        else:
            with pytest.raises(ValueError,
                               match=rf"^driver_value must be finite \(got {driver!r}\)$"):
                solve_position(topo, driver, start)


def test_solved_state_satisfies_every_bar():
    topo = spark_preset()
    state = solve_position(topo, topo.driver[2] + 3.0, reference_state(topo))
    X, col = state.coordinates, topo.joints.index
    worst = max(abs(np.linalg.norm(X[col(a)] - X[col(b)]) - L) for a, b, L in topo.bars)
    assert worst < 1e-9


@pytest.mark.parametrize("finger", [
    FingerParams(),
    FingerParams(L1=0.01, L2=0.005, L3=0.0025, CJ=0.0036),
    FingerParams(L1=1e4, L2=5e3, L3=2.5e3, CJ=1.0235e4),    # CJ near its bound
], ids=["stock", "L1=0.01mm", "L1=1e4mm"])
def test_solver_residual_and_jacobian_match_a_per_bar_reference(finger):
    # The vectorised residual against one bar at a time, and its Jacobian
    # against central differences, at a pose off the assembly: the solver's
    # constant index tables against this finger's bar names.
    topo = spark_preset(finger)
    size = finger.L1 / 80.0
    rng = np.random.default_rng(3)
    X = reference_state(topo).coordinates + rng.normal(0.0, 0.5 * size, (10, 2))
    X[[0, 3]] = [(0.0, 0.0), (finger.L1, 0.0)]                # A, D at their pins
    drive = topo.driver[2] + 0.7 * size
    col = {j: k for k, j in enumerate(topo.joints)}
    want = [(np.sum((X[col[a]] - X[col[b]]) ** 2) - L * L) / (2.0 * L)
            for a, b, L in topo.bars if {a, b} != {"A", "D"}]
    want.append(X[col["J"], 1] - drive)
    r = mechanism._residual(topo, X, drive)
    assert np.max(np.abs(r - want)) <= 1e-12 * size
    J = mechanism._jacobian(topo, X)
    assert J.shape == (16, 16)
    h = 1e-6 * size
    for k, (joint, axis) in enumerate((j, i) for j in topo.joints
                                      if j not in ("A", "D") for i in (0, 1)):
        Xp, Xm = X.copy(), X.copy()
        Xp[col[joint], axis] += h
        Xm[col[joint], axis] -= h
        fd = (mechanism._residual(topo, Xp, drive)
              - mechanism._residual(topo, Xm, drive)) / (2 * h)
        assert np.max(np.abs(J[:, k] - fd)) <= 1e-7
    # over a stack of poses with one driver each, every row is the
    # single-pose residual bit for bit
    stack = X + rng.normal(0.0, 0.5 * size, (7, 10, 2))
    stack[:, [0, 3]] = X[[0, 3]]
    drives = drive + rng.normal(0.0, size, 7)
    rows = mechanism._residual(topo, np.ascontiguousarray(stack.transpose(1, 2, 0)), drives)
    assert rows.shape == (7, 16)
    for k in range(7):
        assert np.array_equal(rows[k], mechanism._residual(topo, stack[k], drives[k]))


def _einsum_residual(topo, X, drivers):
    """The residual with each squared bar length an einsum over the x/y axis,
    its rows read off topo.bars."""
    col = {j: k for k, j in enumerate(topo.joints)}
    row_a, row_b, length = (np.array(v) for v in zip(
        *[(col[a], col[b], L) for a, b, L in topo.bars if {a, b} != {"A", "D"}]))
    d = X.take(row_a, axis=-2) - X.take(row_b, axis=-2)
    bars = (np.einsum("...ki,...ki->...k", d, d) - length ** 2) / (2.0 * length)
    driver_row = X[..., col["J"], 1] - drivers
    return np.concatenate([bars, np.expand_dims(driver_row, -1)], axis=-1)


@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       n=st.integers(min_value=1, max_value=300),
       size=st.floats(min_value=-3.0, max_value=7.0).map(lambda e: 10.0 ** e))
@settings(max_examples=40, deadline=None)
def test_residual_sums_squares_bit_for_bit_as_the_einsum_form(seed, n, size):
    # the joint-major (10, 2, N) poses a sweep checks and the one (10, 2)
    # pose a Newton step takes, at every scale the validator accepts; like
    # every pose the residual is given, they hold A and D at their pins
    topo = spark_preset()
    rng = np.random.default_rng(seed)
    X = rng.normal(0.0, size, (n, 10, 2))
    X[:, [0, 3]] = [(0.0, 0.0), (topo.finger.L1, 0.0)]     # A, D at their pins
    drivers = rng.normal(0.0, size, n)
    residual = mechanism._residual(topo, np.ascontiguousarray(X.transpose(1, 2, 0)), drivers)
    assert residual.tobytes() == _einsum_residual(topo, X, drivers).tobytes()
    one = mechanism._residual(topo, X[0], float(drivers[0]))
    assert one.shape == (16,)
    assert one.tobytes() == _einsum_residual(topo, X[0], float(drivers[0])).tobytes()


# ---------------------------------------------------------------------------
# Stroke and trajectory
# ---------------------------------------------------------------------------

def test_discovered_stroke_brackets_the_reference():
    topo = spark_preset()
    lo, hi = discover_stroke(topo)
    assert lo < topo.driver[2] < hi
    assert hi - lo > 10.0  # usable travel, mm


def test_trajectory_sample_count_and_driver_ordering():
    topo = spark_preset()
    traj = fingertip_trajectory(topo, n_samples=17)
    assert len(traj) == 17
    drivers = [s.driver for s in traj]
    assert drivers == sorted(drivers)


endpoint = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300),
    st.floats(min_value=-1e-300, max_value=1e-300),        # subnormals among them
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 80.0, -52.5]))


@given(lo=endpoint, hi=endpoint,
       n=st.integers(min_value=2, max_value=mechanism.MAX_SAMPLES), equal=st.booleans())
@example(lo=-110.0, hi=-54.5, n=240, equal=False)
@example(lo=-54.5, hi=-110.0, n=240, equal=False)               # reversed
@example(lo=-54.5, hi=-54.5, n=3, equal=False)                   # equal endpoints
@example(lo=0.0, hi=1e-323, n=5, equal=False)                    # the step underflows
@example(lo=-1e300, hi=1e300, n=mechanism.MAX_SAMPLES, equal=False)
@settings(max_examples=200, deadline=None)
def test_sweep_drivers_are_linspace_bit_for_bit(lo, hi, n, equal):
    # the sweep computes np.linspace's arithmetic inline; on every numpy the
    # suite runs with, the drivers are its values, signed zeros included
    if equal:
        hi = lo
    drivers = mechanism._drivers(lo, hi, n)
    assert drivers.dtype == float and drivers.shape == (n,)
    assert drivers.tobytes() == np.linspace(lo, hi, n).tobytes()


def test_sweep_driver_column_is_linspace_of_its_stroke():
    topo = spark_preset()
    lo, hi = discover_stroke(topo)
    for stroke in ((lo, hi), (hi, lo), (lo, lo)):
        traj = fingertip_trajectory(topo, stroke, n_samples=50)
        assert traj.driver == np.linspace(*stroke, 50).tolist()


def test_trajectory_requires_two_samples():
    with pytest.raises(ValueError):
        fingertip_trajectory(spark_preset(), n_samples=1)


def test_trajectory_sample_ceiling(monkeypatch):
    # refused before any pose is assembled
    def no_assembly(*args):
        raise AssertionError("assembled past the ceiling")
    topo = spark_preset()
    monkeypatch.setattr(mechanism, "_assemble", no_assembly)
    with pytest.raises(ValueError, match="100000"):
        fingertip_trajectory(topo, n_samples=mechanism.MAX_SAMPLES + 1)


def test_fingertip_rides_the_vertical_guide_line():
    topo = spark_preset()
    traj = fingertip_trajectory(topo, n_samples=200)
    x_ref = tip_line_x(FingerParams())
    worst = max(abs(s.tip[0] - x_ref) for s in traj)
    assert worst < 1e-7


def test_straightness_metric_on_ideal_geometry():
    traj = fingertip_trajectory(spark_preset(), n_samples=200)
    max_dev, rms_dev = straightness_metric(traj)
    assert 0.0 <= rms_dev <= max_dev < 1e-9


def test_orientation_is_constant_along_the_stroke():
    traj = fingertip_trajectory(spark_preset(), n_samples=200)
    angles = [s.orientation for s in traj]
    assert max(angles) - min(angles) < 1e-10
    assert angles[0] == pytest.approx(-math.pi / 2, abs=1e-9)


def test_straightness_metric_rejects_empty_input():
    with pytest.raises(ValueError):
        straightness_metric(mechanism.Trajectory([], [], [], [], max_residual_mm=0.0))


def test_driver_outside_the_folds_names_the_sample():
    topo = spark_preset()
    lo, hi = discover_stroke(topo)
    with pytest.raises(NonConvergenceError, match="sample 2"):
        fingertip_trajectory(topo, stroke=(lo, hi + 0.5 * (hi - lo)),
                             n_samples=3)
    with pytest.raises(NonConvergenceError, match=r"sample 0 \(driver=nan\)"):
        fingertip_trajectory(topo, stroke=(math.nan, hi), n_samples=3)


@pytest.mark.parametrize("heights, first, what", [
    (("mid", "far-1", "far-2"), 1, "cascade cannot reach"),
    (("mid", "nan"), 1, "cascade cannot reach"),
    (("mid", "mid", "near+1", "near+2"), 2, "rhombus cannot close at"),
], ids=["below-far", "nan", "above-near"])
def test_assemble_names_the_first_sample_it_cannot_build(heights, first, what):
    p = FingerParams()
    far, near = mechanism._cell_folds(p)
    at = {"mid": 0.5 * (far + near), "far-1": far - 1.0, "far-2": far - 2.0,
          "near+1": near + 1.0, "near+2": near + 2.0, "nan": math.nan}
    y = np.array([at[h] for h in heights])
    with pytest.raises(ValueError, match=rf"^sample {first}: {what} height "
                                         rf"{re.escape(repr(float(y[first])))}$"):
        mechanism._assemble(p, y)


@pytest.mark.parametrize("scale", [0.5, 1.0, 1.1, 2.0])
def test_newton_continuation_reaches_the_closed_form_path(scale):
    # Newton alone, walked from the reference pose without any closed-form
    # seed, must land on the same tip as the seeded trajectory at both
    # stroke ends and mid-stroke.
    p = FingerParams(L1=80.0 * scale, L2=40.0 * scale, L3=20.0 * scale,
                     CJ=28.8 * scale)
    topo = spark_preset(p)
    for sample in fingertip_trajectory(topo, n_samples=3):
        state = reference_state(topo)
        for v in np.linspace(topo.driver[2], sample.driver, 40)[1:]:
            state = solve_position(topo, float(v), state)
        J, C = state.coordinates[[topo.joints.index("J"), topo.joints.index("C")]]
        gap = np.linalg.norm(J - np.array(sample.tip))
        assert gap <= 1e-9 * p.L1
        # and the tip marker keeps pointing straight down (c03's bound)
        seg = J - C
        assert abs(math.atan2(seg[1], seg[0]) + math.pi / 2) <= 1e-9


def _bars_only_poses(topo, n_samples):
    """The (n_samples, 10, 2) poses of the stroke's drivers, each solved by
    solve_position from its neighbour's closed-form pose (sample 0 from
    sample 1's), so the bars alone place every joint."""
    p = topo.finger
    drivers = fingertip_trajectory(topo, n_samples=n_samples).driver
    closed = mechanism._assemble(p, np.array(drivers) + p.CJ).transpose(2, 0, 1)
    seeds = closed[[1, *range(n_samples - 1)]]
    return np.array([
        solve_position(topo, v, mechanism.LinkageState(seed, math.nan)).coordinates
        for v, seed in zip(drivers, seeds)])


@pytest.mark.parametrize("cj_share", [0.36, 1.0])
@pytest.mark.parametrize("L1", [0.8, 80.0, 8e3, 8e6])
def test_the_bars_alone_hold_the_line_and_the_orientation(L1, cj_share):
    # c02's and c03's bounds on the bars-only route, from 0.8 mm to 8 km
    p = FingerParams(L1=L1, L2=L1 / 2, L3=L1 / 4, CJ=cj_share * L1)
    topo = spark_preset(p)
    X = _bars_only_poses(topo, 200)
    col = topo.joints.index
    J, C = X[:, col("J")], X[:, col("C")]
    assert np.abs(J[:, 0] - tip_line_x(p)).max() <= 1e-6 * L1
    seg = J - C
    angles = np.arctan2(seg[:, 1], seg[:, 0])
    assert angles.max() - angles.min() <= 1e-9
    gap = (X[:, col("C")] - X[:, col("B")]) - (X[:, col("I")] - X[:, col("E")])
    assert np.abs(gap).max() <= 1e-10 * L1         # on the parallelogram branch


def _change_point_driver(p):
    # B, C, I and E are collinear where BC is horizontal, B = C + (L2, 0):
    # |AB| = L2 puts C at -sqrt(L2^2 - (x_c + L2)^2), and with x_c =
    # -29*L1/32 on the 4:2:1 shape that is -L1*sqrt(87)/32; J is CJ below C
    return -p.L1 * math.sqrt(87.0) / 32.0 - p.CJ


def test_a_pose_on_the_anti_parallelogram_branch_is_refused():
    # seeded 1e-3*L1 off its closed-form pose, Newton lands 14 of the 1000
    # stock samples on the anti-parallelogram branch, all near the change
    # point; every bar fits there, but the tip is up to 0.11 mm off its line
    topo = spark_preset()
    p = topo.finger
    traj = fingertip_trajectory(topo, n_samples=1000)
    lo, hi = traj.driver[0], traj.driver[-1]
    rng = np.random.default_rng(0)
    refused = []
    for k, v in enumerate(traj.driver):
        pose = mechanism._assemble(p, np.array([v + p.CJ]))[..., 0]
        seed = mechanism.LinkageState(pose + rng.normal(0.0, 1e-3 * p.L1, pose.shape),
                                      residual_norm=math.nan)
        try:
            state = solve_position(topo, v, seed)
        except NonConvergenceError as exc:
            assert str(exc).startswith(f"anti-parallelogram branch at driver={v}: ")
            refused.append(k)
        else:
            J = state.coordinates[topo.joints.index("J")]
            assert abs(J[0] - tip_line_x(p)) <= 1e-6 * p.L1
    assert len(refused) == 14
    shares = [(traj.driver[k] - lo) / (hi - lo) for k in refused]
    assert 0.67 < min(shares) and max(shares) < 0.71
    assert min(shares) < (_change_point_driver(p) - lo) / (hi - lo) < max(shares)


@pytest.mark.parametrize("scale", [1e-2, 1.0, 1e5])
def test_a_driver_at_the_change_point_solves_from_its_closed_form(scale):
    p = FingerParams(L1=80.0 * scale, L2=40.0 * scale, L3=20.0 * scale,
                     CJ=28.8 * scale)
    topo = spark_preset(p)
    v = _change_point_driver(p)
    lo, hi = discover_stroke(topo)
    assert (v - lo) / (hi - lo) == pytest.approx(0.6893, abs=1e-4)
    pose = mechanism._assemble(p, np.array([v + p.CJ]))[..., 0]
    B, C = pose[[topo.joints.index("B"), topo.joints.index("C")]]
    assert np.abs(B - C - (p.L2, 0.0)).max() <= 1e-12 * p.L1      # BC horizontal
    state = solve_position(topo, v, mechanism.LinkageState(pose, math.nan))
    assert state.coordinates.tobytes() == pose.tobytes()


def test_a_guess_that_is_not_a_finite_pose_is_refused():
    topo = spark_preset()
    pose = reference_state(topo).coordinates

    def refusal(guess):
        with pytest.raises(ValueError) as info:
            solve_position(topo, topo.driver[2], mechanism.LinkageState(guess, math.nan))
        return str(info.value)

    assert refusal(pose[:9]) == "initial guess must be a (10, 2) array (got shape (9, 2))"
    assert refusal(pose.ravel()) == "initial guess must be a (10, 2) array (got shape (20,))"
    at_h = pose.copy()
    at_h[topo.joints.index("H"), 1] = math.nan
    x_h = float(at_h[topo.joints.index("H"), 0])
    assert refusal(at_h) == f"initial guess joint H is not finite: [{x_h!r}, nan]"
    # A is re-pinned, but the guess is checked as it enters
    at_a = pose.copy()
    at_a[0, 0] = math.inf
    assert refusal(at_a) == "initial guess joint A is not finite: [inf, 0.0]"


def test_solve_position_iterates_on_a_copy_of_its_guess():
    topo = spark_preset()
    start = reference_state(topo)
    before = start.coordinates.copy()
    state = solve_position(topo, topo.driver[2] + 1.0, start)
    assert start.coordinates.tobytes() == before.tobytes()
    assert state.coordinates.shape == (10, 2) and state.coordinates.dtype == float
    assert not np.shares_memory(state.coordinates, start.coordinates)


def test_custom_stroke_subrange():
    topo = spark_preset()
    lo, hi = discover_stroke(topo)
    mid = 0.5 * (lo + hi)
    traj = fingertip_trajectory(topo, stroke=(mid - 2.0, mid + 2.0),
                                n_samples=9)
    assert traj[0].driver == pytest.approx(mid - 2.0)
    assert traj[-1].driver == pytest.approx(mid + 2.0)


# ---------------------------------------------------------------------------
# Batched verification of the closed-form sweep
# ---------------------------------------------------------------------------

def _per_sample_route(topo, params, drivers):
    """Each driver solved alone by solve_position from its closed-form pose."""
    out = []
    for v in drivers:
        pose = mechanism._assemble(params, np.array([v + params.CJ]))[..., 0]
        seed = mechanism.LinkageState(pose, residual_norm=math.nan)
        state = solve_position(topo, v, seed)
        tip, c = state.coordinates[[topo.joints.index("J"), topo.joints.index("C")]]
        seg = tip - c
        out.append((v, (float(tip[0]), float(tip[1])),
                    math.atan2(seg[1], seg[0])))
    return out


@pytest.mark.parametrize("scale", [0.5, 1.0, 1.1, 2.0, 8.0])
def test_batched_sweep_equals_the_per_sample_route(scale):
    p = FingerParams(L1=80.0 * scale, L2=40.0 * scale, L3=20.0 * scale,
                     CJ=28.8 * scale)
    topo = spark_preset(p)
    traj = fingertip_trajectory(topo, n_samples=60)
    batched = [(s.driver, s.tip, s.orientation) for s in traj]
    assert batched == _per_sample_route(topo, p, [s.driver for s in traj])
    assert traj.max_residual_mm <= topo.tol


@given(L1=st.floats(min_value=-2.0, max_value=7.0).map(lambda e: 10.0 ** e),
       cj_share=st.floats(min_value=1e-3, max_value=1.0236),
       n_samples=st.integers(min_value=2, max_value=300))
@settings(max_examples=25, deadline=None)
def test_columns_equal_the_per_sample_route_on_every_accepted_scale(L1, cj_share,
                                                                    n_samples):
    # a stock-shaped finger from 0.01 mm to 10 km, its tip arm up to the
    # validator's bound: every column entry is the per-sample value bit for
    # bit, the orientation column's arctan2 included
    p = FingerParams(L1=L1, L2=L1 / 2, L3=L1 / 4, CJ=cj_share * L1)
    assume(validate_kempe_constraints(p).ok)
    topo = spark_preset(p)
    traj = fingertip_trajectory(topo, n_samples=n_samples)
    route = _per_sample_route(topo, p, traj.driver)
    assert traj.driver == [v for v, _, _ in route]
    assert list(zip(traj.tip_x, traj.tip_y)) == [tip for _, tip, _ in route]
    assert traj.orientation == [angle for _, _, angle in route]


def test_sweep_samples_are_immutable_plain_float_records():
    topo = spark_preset()
    traj = fingertip_trajectory(topo, n_samples=5)
    assert isinstance(traj, mechanism.Trajectory)
    assert traj.max_residual_mm <= topo.tol
    for column in (traj.driver, traj.tip_x, traj.tip_y, traj.orientation):
        assert type(column) is list and len(column) == 5
        assert all(type(v) is float for v in column)
    for s in traj:
        assert type(s.driver) is float and type(s.orientation) is float
        assert type(s.tip) is tuple and len(s.tip) == 2
        assert all(type(c) is float for c in s.tip)
        assert s == (s.driver, s.tip, s.orientation)
    for field in ("driver", "tip", "orientation"):
        with pytest.raises(AttributeError):
            setattr(traj[0], field, 0.0)


def test_trajectory_reads_as_a_sequence_of_samples():
    traj = fingertip_trajectory(spark_preset(), n_samples=240)
    assert isinstance(traj, collections.abc.Sequence)
    assert len(traj) == 240
    assert list(traj) == [traj[k] for k in range(len(traj))]
    assert traj[0] == (traj.driver[0], (traj.tip_x[0], traj.tip_y[0]),
                       traj.orientation[0])
    assert traj[-1] == traj[239] and traj[-240] == traj[0]
    for k in (240, -241):
        with pytest.raises(IndexError):
            traj[k]
    # the cross-check picks the benchmark's dense sweep takes
    picks = traj[::len(traj) // 4][:4]
    assert picks == [traj[0], traj[60], traj[120], traj[180]]
    assert all(type(s) is mechanism.TrajectorySample for s in picks)
    assert traj[5:2] == [] and traj[-2:] == [traj[238], traj[239]]


def test_stock_sweep_makes_no_newton_solves(monkeypatch):
    calls = []
    real = mechanism.solve_position

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(mechanism, "solve_position", counted)
    traj = fingertip_trajectory(spark_preset(), n_samples=1000)
    assert len(traj) == 1000
    assert calls == []


@pytest.mark.parametrize("samples, shift, first", [
    (slice(None, None, 3), 1e-4, 0),    # every third sample off by 0.1 µm
    (2, math.nan, 2),
], ids=["perturbed", "nan"])
def test_pose_above_the_tolerance_names_the_sample(monkeypatch, samples, shift, first):
    # the sweep repairs nothing: the first pose off its assembly is an error
    topo = spark_preset()
    real = mechanism._assemble

    def spoiled(params, y_cell):
        X = real(params, y_cell)
        X[1, :, samples] += shift      # joint B
        return X

    monkeypatch.setattr(mechanism, "_assemble", spoiled)
    with pytest.raises(NonConvergenceError,
                       match=rf"sample {first} \(driver=.*\): residual .* mm above "
                             r"the tolerance 8\.503e-11 mm"):
        fingertip_trajectory(topo, n_samples=40)


def test_a_cold_sweep_builds_no_bars_tuple():
    # the sweep reads the moving-bar lengths off the finger; the bars tuple
    # is for the cross-checks (mobility, the tests) and costs a cold design
    topo = spark_preset(FingerParams(L1=100.0, L2=50.0, L3=25.0, CJ=30.0))
    fingertip_trajectory(topo, discover_stroke(topo), n_samples=10)
    assert "bars" not in vars(topo)


def test_tolerance_is_relative_to_the_longest_moving_bar():
    # the tip arm I-J, hypot(L1, CJ), is the longest bar; the base web A-D
    # joins two grounded pins and does not count
    rtol = mechanism.SOLVER_RTOL
    assert spark_preset().tol == rtol * math.hypot(80.0, 28.8) <= 1e-10
    big = FingerParams(L1=8e5, L2=4e5, L3=2e5, CJ=2.88e5)
    assert spark_preset(big).tol == rtol * math.hypot(8e5, 2.88e5)
