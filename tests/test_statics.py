"""Tests for the pinch/scoop force models and the virtual-work oracle."""
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparkfinger.statics import (
    DEGENERATE_LEVER_RTOL,
    ActuationInput,
    ContactGeometry,
    force_sweep,
    pinch_force,
    scoop_forces,
    scoop_forces_via_system,
    virtual_work_check,
)

L2 = 40.0

angles = st.floats(min_value=0.0, max_value=math.pi / 2 - 0.05,
                   allow_nan=False)
distances = st.floats(min_value=1.0, max_value=60.0, allow_nan=False)


def geometry(theta2=math.radians(30.0), theta3=math.radians(10.0),
             d2=20.0, d3=14.4):
    return ContactGeometry(d2=d2, d3=d3, theta2=theta2, theta3=theta3)


# ---------------------------------------------------------------------------
# Pinch mode
# ---------------------------------------------------------------------------

def test_pinch_force_at_zero_angle():
    assert pinch_force(20.0, geometry(theta2=0.0), L2) == 20.0 / (14.4 + L2)


def test_pinch_force_strictly_increases_with_flexion():
    thetas = np.linspace(0.0, math.radians(89.9), 200)
    forces = [pinch_force(20.0, geometry(theta2=t), L2) for t in thetas]
    assert all(b > a for a, b in zip(forces, forces[1:]))


def test_pinch_rejects_degenerate_lever():
    # d3 + L2 cos(theta2) == 0 has no moment arm left to push with.
    bad = ContactGeometry(d2=20.0, d3=10.0, theta2=math.acos(-10.0 / L2),
                          theta3=0.0)
    with pytest.raises(ValueError):
        pinch_force(20.0, bad, L2)


@pytest.mark.parametrize("arm", [40.0, 40.0 * 2.0 ** -40, 40.0 * 2.0 ** 40])
def test_the_pinch_lever_floor_is_a_share_of_L2(arm):
    # 1e-9 mm at the stock L2, and the same verdict at every scale
    assert DEGENERATE_LEVER_RTOL * L2 == 1e-9
    floor = DEGENERATE_LEVER_RTOL * arm
    for share, ok in ((0.9, False), (1.1, True)):
        geom = ContactGeometry(d2=arm / 2, d3=share * floor, theta2=math.pi / 2,
                               theta3=0.0)
        if ok:
            lever = geom.d3 + arm * math.cos(math.pi / 2)
            assert pinch_force(20.0, geom, arm) == 20.0 / lever
        else:
            with pytest.raises(ValueError, match="^degenerate pinch lever arm"):
                pinch_force(20.0, geom, arm)


def test_a_small_fingers_pinch_sweep_keeps_every_row():
    # at L1 = 0.1*2**-25 mm the stock-shaped finger's levers near 90 deg are
    # 8.3e-10 and 5.4e-10 mm, under an absolute 1e-9 mm floor; as at
    # L1 = 0.1 mm, every row of the 9-row 0-90 deg sweep holds, its force
    # exactly 2**25 times the larger finger's
    def sweep(L1):
        geom = ContactGeometry(d2=L1 / 4, d3=L1 / 4 * 18.0 / 25.0, theta2=0.0, theta3=0.0)
        rows = force_sweep("pinch", ActuationInput(T=20.0), geom, L1 / 2,
                           [math.radians(d) for d in np.linspace(0.0, 90.0, 9)])
        assert [r.status for r in rows] == ["ok"] * 9
        return [r.F3 for r in rows]
    assert sweep(0.1 * 2.0 ** -25) == [F3 * 2.0 ** 25 for F3 in sweep(0.1)]


# ---------------------------------------------------------------------------
# Scoop mode: closed form vs. linear system
# ---------------------------------------------------------------------------

def test_scoop_forces_at_undeflected_distal():
    fr = scoop_forces(ActuationInput(T=20.0, k=50.0), geometry(theta3=0.0), L2)
    assert fr.F2 == pytest.approx(20.0 / 20.0)
    assert fr.F3 == 0.0


@given(theta2=angles, theta3=angles, d2=distances, d3=distances,
       T=st.floats(min_value=0.1, max_value=100.0),
       k=st.floats(min_value=0.0, max_value=200.0))
@settings(max_examples=200, deadline=None)
def test_closed_form_agrees_with_system_solve(theta2, theta3, d2, d3, T, k):
    act = ActuationInput(T=T, k=k)
    geom = ContactGeometry(d2=d2, d3=d3, theta2=theta2, theta3=theta3)
    a = scoop_forces(act, geom, L2)
    b = scoop_forces_via_system(act, geom, L2)
    assert a.F2 == pytest.approx(b.F2, rel=1e-10, abs=1e-12)
    assert a.F3 == pytest.approx(b.F3, rel=1e-10, abs=1e-12)


def test_scoop_force_is_bilinear_in_deflection_and_stiffness():
    base = geometry()
    act = ActuationInput(T=0.0, k=50.0)
    f1 = scoop_forces(act, base, L2).F3
    f2 = scoop_forces(act, dataclasses.replace(base, theta3=2 * base.theta3),
                      L2).F3
    assert f2 == pytest.approx(2 * f1, rel=1e-12)
    f3 = scoop_forces(ActuationInput(T=0.0, k=100.0), base, L2).F3
    assert f3 == pytest.approx(2 * f1, rel=1e-12)
    assert f1 == pytest.approx(-50.0 * base.theta3 / base.d3, rel=1e-12)


def test_forces_scale_with_torque_when_spring_is_off():
    g = geometry()
    one = scoop_forces(ActuationInput(T=1.0, k=0.0), g, L2)
    ten = scoop_forces(ActuationInput(T=10.0, k=0.0), g, L2)
    assert ten.F2 == pytest.approx(10.0 * one.F2, rel=1e-12)
    assert ten.F3 == one.F3 == 0.0
    assert pinch_force(10.0, g, L2) == pytest.approx(
        10.0 * pinch_force(1.0, g, L2), rel=1e-12)


def test_scoop_rejects_nonpositive_contact_distances():
    with pytest.raises(ValueError):
        scoop_forces(ActuationInput(T=20.0, k=50.0),
                     geometry(d2=0.0), L2)


# ---------------------------------------------------------------------------
# Virtual-work oracle
# ---------------------------------------------------------------------------

def test_oracle_accepts_correct_forces():
    act = ActuationInput(T=20.0, k=50.0)
    g = geometry()
    for fr in (scoop_forces(act, g, L2), scoop_forces_via_system(act, g, L2)):
        assert virtual_work_check(act, g, L2, fr) <= 1e-8


def test_oracle_flags_a_corrupted_force():
    act = ActuationInput(T=20.0, k=50.0)
    g = geometry()
    fr = scoop_forces(act, g, L2)
    bad = dataclasses.replace(fr, F2=fr.F2 * 1.1)
    assert virtual_work_check(act, g, L2, bad) > 1e-3


@pytest.mark.parametrize("field", ["F2", "F3"])
def test_oracle_fails_a_nan_force(field):
    # a NaN imbalance must fail the `<= bound` test every caller applies
    act, g = ActuationInput(T=20.0, k=50.0), geometry(theta2=0.5, theta3=0.2)
    bad = dataclasses.replace(scoop_forces(act, g, L2), **{field: math.nan})
    score = virtual_work_check(act, g, L2, bad)
    assert math.isnan(score)
    assert not score <= 1e-8


@pytest.mark.parametrize("value", [math.inf, -math.inf])
@pytest.mark.parametrize("field", ["F2", "F3"])
def test_oracle_fails_an_infinite_force(field, value):
    # an overflowed force scores NaN like a NaN force, with no numpy warning
    act, g = ActuationInput(T=20.0, k=50.0), geometry(theta2=0.5, theta3=0.2)
    bad = dataclasses.replace(scoop_forces(act, g, L2), **{field: value})
    score = virtual_work_check(act, g, L2, bad)
    assert math.isnan(score)
    assert not score <= 1e-8


def test_oracle_zero_case():
    act = ActuationInput(T=0.0, k=0.0)
    fr = scoop_forces(act, geometry(), L2)
    assert virtual_work_check(act, geometry(), L2, fr) == 0.0


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def test_pinch_sweep_rows_and_status():
    rows = force_sweep("pinch", ActuationInput(T=20.0), geometry(), L2,
                       np.linspace(0.0, math.radians(90.0), 10))
    assert len(rows) == 10
    assert all(r.status == "ok" for r in rows)
    assert all(r.F2 is None for r in rows)
    f3 = [r.F3 for r in rows]
    assert f3 == sorted(f3)


def test_scoop_sweep_marks_failed_rows_instead_of_raising():
    # the pinch lever d3 + L2 cos(theta2) vanishes at acos(-14.4/40) ≈ 111°
    rows = force_sweep("pinch", ActuationInput(T=20.0), geometry(), L2,
                       [math.radians(30.0), math.radians(120.0),
                        math.radians(60.0)])
    assert [r.status == "ok" for r in rows] == [True, False, True]
    assert rows[1].F2 is None and rows[1].F3 is None
    assert "degenerate pinch lever" in rows[1].status
    # a scoop sweep over a contact at the pivot fails every row, not the call
    rows = force_sweep("scoop", ActuationInput(T=20.0, k=50.0),
                       geometry(d2=0.0), L2, [0.0, 0.1])
    assert [r.status for r in rows] == ["contact distances d2, d3 must be > 0"] * 2


def test_sweep_rows_with_a_non_finite_force_name_it():
    # a torque of 1e308 N·mm over a 0.07 mm lever overflows the pinch force;
    # a spring of 1e308 N·mm/rad overflows the scoop F2 but not F3
    [pinch] = force_sweep("pinch", ActuationInput(T=1e308), geometry(), L2,
                          [math.radians(111.0)])
    assert (pinch.F2, pinch.F3, pinch.status) == (None, None, "non-finite force F3 = inf")
    rows = force_sweep("scoop", ActuationInput(T=20.0, k=1e308), geometry(), L2,
                       [0.0, 0.5])
    assert (rows[0].F2, rows[0].F3, rows[0].status) == (1.0, 0.0, "ok")
    assert (rows[1].F2, rows[1].F3) == (None, None)
    assert rows[1].status == "non-finite force F2 = inf"


@pytest.mark.parametrize("route", [scoop_forces, scoop_forces_via_system])
def test_a_non_finite_scoop_force_is_refused_where_it_is_computed(route):
    # k·θ3 of 50 N·mm/rad over 1e308 rad overflows both forces
    with pytest.raises(ValueError, match=r"^non-finite force F2 = -inf, F3 = -inf$"):
        route(ActuationInput(T=20.0, k=50.0), geometry(theta3=1e308), L2)


def test_a_non_finite_pinch_force_is_refused_where_it_is_computed():
    with pytest.raises(ValueError, match=r"^non-finite force F3 = inf$"):
        pinch_force(1e308, geometry(theta2=math.radians(111.0)), L2)


def test_each_mode_sweeps_its_own_angle():
    act, g = ActuationInput(T=20.0, k=50.0), geometry()
    theta = math.radians(12.0)
    [pinch] = force_sweep("pinch", act, g, L2, [theta])
    assert pinch.value == theta
    assert pinch.F3 == pinch_force(act.T, dataclasses.replace(g, theta2=theta), L2)
    [scoop] = force_sweep("scoop", act, g, L2, [theta])
    fr = scoop_forces(act, dataclasses.replace(g, theta3=theta), L2)
    assert (scoop.F2, scoop.F3) == (fr.F2, fr.F3)


def test_sweep_input_validation():
    act = ActuationInput(T=20.0)
    with pytest.raises(ValueError):
        force_sweep("push", act, geometry(), L2, [0.0])
    with pytest.raises(ValueError):
        force_sweep("pinch", act, geometry(), L2, [])


def test_actuation_input_validation():
    with pytest.raises(ValueError):
        ActuationInput(T=float("nan"))
    with pytest.raises(ValueError):
        ActuationInput(T=1.0, k=-2.0)


@pytest.mark.parametrize("k", [math.nan, math.inf, -2.0])
def test_spring_stiffness_must_be_finite_and_non_negative(k):
    with pytest.raises(ValueError, match=r"^k must be finite and >= 0 \(got "):
        ActuationInput(T=1.0, k=k)


@pytest.mark.parametrize("field", ["d2", "d3"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_scoop_refuses_non_finite_contact_distances(field, value):
    g = dataclasses.replace(geometry(), **{field: value})
    act = ActuationInput(T=20.0, k=50.0)
    for solve in (scoop_forces, scoop_forces_via_system):
        with pytest.raises(ValueError, match="^contact distances d2, d3 must be > 0"):
            solve(act, g, L2)


@pytest.mark.parametrize("d3", [math.nan, math.inf])
def test_pinch_refuses_a_lever_that_is_not_finite(d3):
    with pytest.raises(ValueError, match="^degenerate pinch lever arm"):
        pinch_force(20.0, ContactGeometry(10.0, d3, 0.3, 0.1), 40.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["theta2", "theta3"])
def test_scoop_refuses_a_contact_angle_that_is_not_finite(field, value):
    g = dataclasses.replace(geometry(), **{field: value})
    act = ActuationInput(T=20.0, k=50.0)
    message = rf"^{field} must be finite \(got {value!r}\)$"
    for solve in (scoop_forces, scoop_forces_via_system):
        with pytest.raises(ValueError, match=message):
            solve(act, g, L2)
    # a scoop sweep marks the row failed with the same message
    [row] = force_sweep("scoop", act, g, L2, [value if field == "theta3" else 0.1])
    assert (row.F2, row.F3) == (None, None)
    assert re.match(message, row.status)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_pinch_refuses_a_theta2_that_is_not_finite(value):
    message = rf"^theta2 must be finite \(got {value!r}\)$"
    with pytest.raises(ValueError, match=message):
        pinch_force(20.0, ContactGeometry(10.0, 14.4, value, 0.1), 40.0)
    [row] = force_sweep("pinch", ActuationInput(T=20.0), geometry(), L2, [value])
    assert (row.F2, row.F3) == (None, None)
    assert re.match(message, row.status)


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("solve", [
    lambda act, g, L2: scoop_forces(act, g, L2),
    lambda act, g, L2: scoop_forces_via_system(act, g, L2),
    lambda act, g, L2: pinch_force(act.T, g, L2),
], ids=["scoop_forces", "scoop_forces_via_system", "pinch_force"])
def test_force_models_refuse_an_L2_that_is_not_finite_and_positive(solve, value):
    message = rf"^L2 must be finite and > 0 \(got {value!r}\)$"
    act, g = ActuationInput(T=20.0, k=50.0), geometry()
    with pytest.raises(ValueError, match=message):
        solve(act, g, value)


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("mode", ["pinch", "scoop"])
def test_sweep_marks_a_row_failed_on_a_bad_L2(mode, value):
    [row] = force_sweep(mode, ActuationInput(T=20.0, k=50.0), geometry(), value, [0.1])
    assert (row.F2, row.F3) == (None, None)
    assert row.status == f"L2 must be finite and > 0 (got {value!r})"
