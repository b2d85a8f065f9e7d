"""Tests for the depth-driven pinch-to-scoop state machine."""
import math

import pytest
from hypothesis import given, settings, strategies as st

from sparkfinger.mechanism import FingerParams
from sparkfinger.modeswitch import (
    AsymmetricPose,
    Mode,
    SurfaceScenario,
    asymmetric_pose,
    descend,
    mode_trace,
    spring_moments,
)

P = FingerParams()
FLAT = SurfaceScenario()
FULL_TRAVEL = P.dh1 + P.dh2


def test_shallow_depths_stay_in_pinch():
    for depth in (0.0, 5.0, 10.0, 15.0, P.dh1 - 1e-6):
        state = descend(P, FLAT, depth)
        assert state.mode is Mode.PINCH_CONTACT
        assert state.distal_rotation == 0.0


def test_stopper_engages_exactly_at_the_first_transition():
    state = descend(P, FLAT, P.dh1)
    assert state.mode is Mode.STOPPER_ENGAGED
    assert state.distal_rotation == 0.0
    assert state.spring_deflection == 0.0


def test_rotation_ramps_linearly_between_the_transitions():
    depth = P.dh1 + 0.5 * P.dh2
    state = descend(P, FLAT, depth)
    assert state.mode is Mode.SCOOPING
    assert state.distal_rotation == pytest.approx(0.5 * P.dtheta_c1)


def test_scoop_completes_at_the_advertised_depth():
    # 30.4 is the decimal a caller would type for dh1 + dh2; it must land in
    # the completed regime even when the float sum differs by a few ulp.
    state = descend(P, FLAT, 30.4)
    assert state.mode is Mode.SCOOP_COMPLETE
    assert state.distal_rotation == P.dtheta_c1
    deeper = descend(P, FLAT, 45.0)
    assert deeper.distal_rotation == P.dtheta_c1


def test_rotation_is_nondecreasing_along_any_trace():
    trace = mode_trace(P, FLAT, max_depth=40.0, n_samples=400)
    rotations = [s.distal_rotation for s in trace]
    assert rotations == sorted(rotations)
    assert rotations[0] == 0.0
    assert rotations[-1] == P.dtheta_c1


@given(a=st.floats(min_value=0.0, max_value=60.0),
       b=st.floats(min_value=0.0, max_value=60.0))
@settings(max_examples=200, deadline=None)
def test_rotation_monotone_in_depth(a, b):
    lo, hi = sorted((a, b))
    assert (descend(P, FLAT, lo).distal_rotation
            <= descend(P, FLAT, hi).distal_rotation)


def test_mode_trace_default_extends_to_full_travel():
    trace = mode_trace(P, FLAT)
    assert len(trace) == 100
    assert trace[0].depth == 0.0
    assert trace[-1].mode is Mode.SCOOP_COMPLETE
    assert trace[-1].distal_rotation == P.dtheta_c1


def test_surface_height_shifts_every_transition():
    raised = SurfaceScenario(surface_height=5.0)
    assert descend(P, raised, P.dh1).mode is Mode.PINCH_CONTACT
    assert descend(P, raised, P.dh1 + 5.0).mode is Mode.STOPPER_ENGAGED


def test_spring_moments_follow_the_wound_deflection():
    state = descend(P, FLAT, 30.4)
    m1, m2 = spring_moments(P, state)
    expected = P.k1 * math.radians(P.dtheta_c1)
    assert m1 == pytest.approx(expected)
    assert m2 == pytest.approx(expected)
    assert spring_moments(P, descend(P, FLAT, 3.0)) == (0.0, 0.0)


def test_mode_values_are_csv_friendly():
    assert str(Mode.SCOOP_COMPLETE) == "ScoopComplete"
    assert f"{descend(P, FLAT, 0.0).mode}" == "PinchContact"


def test_descend_rejects_nonfinite_depth():
    with pytest.raises(ValueError):
        descend(P, FLAT, float("nan"))


def test_trace_input_validation():
    with pytest.raises(ValueError):
        mode_trace(P, FLAT, max_depth=-1.0)
    with pytest.raises(ValueError):
        mode_trace(P, FLAT, n_samples=1)
    # the CLI's sample rule, ceiling included
    with pytest.raises(ValueError, match=r"samples must be in \[2, 100000\]"):
        mode_trace(P, FLAT, n_samples=100_001)


@pytest.mark.parametrize("height", [math.nan, math.inf, -math.inf])
def test_surface_height_must_be_finite(height):
    with pytest.raises(ValueError, match=r"^surface_height must be finite"):
        SurfaceScenario(surface_height=height)


TILTED = SurfaceScenario(tilt=math.radians(20.0))


@pytest.mark.parametrize("scenario, kwargs, named", [
    (FLAT, dict(max_depth=math.inf), "max_depth"),
    (FLAT, dict(max_depth=math.nan), "max_depth"),
    (FLAT, dict(max_depth=0.0), "max_depth"),
    (TILTED, dict(max_depth=math.inf), "max_depth"),
    (TILTED, dict(half_span=math.nan), "half_span"),
    (TILTED, dict(half_span=math.inf), "half_span"),
    (TILTED, dict(half_span=-1.0), "half_span"),
    (FLAT, dict(half_span=math.nan), "half_span"),
])
def test_trace_spans_must_be_finite_and_positive(scenario, kwargs, named):
    with pytest.raises(ValueError, match=rf"^{named} must be finite and > 0 \(got "):
        mode_trace(P, scenario, n_samples=5, **kwargs)


@pytest.mark.parametrize("half_span", [math.nan, math.inf, 0.0])
def test_pose_half_span_must_be_finite_and_positive(half_span):
    with pytest.raises(ValueError, match=r"^half_span must be finite and > 0"):
        asymmetric_pose(P, 20.0, TILTED, half_span)


@pytest.mark.parametrize("bad, named", [
    (dict(dh2=-5.0), "dh2 must be > 0"),
    (dict(dtheta_c1=-30.0), "dtheta_c1 must be in (0, 90)"),
])
def test_trace_refuses_an_invalid_finger(bad, named):
    with pytest.raises(ValueError, match="^invalid linkage parameters: ") as info:
        mode_trace(FingerParams(**bad), FLAT, n_samples=5)
    assert named in str(info.value)


# ---------------------------------------------------------------------------
# Tilted surfaces
# ---------------------------------------------------------------------------

def test_tilt_delays_the_trailing_finger():
    pose = asymmetric_pose(P, 16.0, SurfaceScenario(tilt=math.radians(15.0)))
    assert pose.leading.mode is Mode.STOPPER_ENGAGED or \
        pose.leading.mode is Mode.SCOOPING
    assert pose.trailing.mode is Mode.PINCH_CONTACT
    assert pose.leading.depth - pose.trailing.depth == pytest.approx(
        60.0 * math.sin(math.radians(15.0)))


def test_zero_tilt_keeps_both_fingers_in_lockstep():
    pose = asymmetric_pose(P, 20.0, FLAT)
    assert pose.leading == pose.trailing


def test_trailing_finger_never_sees_negative_depth():
    pose = asymmetric_pose(P, 1.0, SurfaceScenario(tilt=math.radians(45.0)))
    assert pose.trailing.depth == 0.0


def test_tilt_envelope_is_enforced():
    with pytest.raises(ValueError):
        SurfaceScenario(tilt=math.radians(50.0))
    with pytest.raises(ValueError):
        SurfaceScenario(tilt=math.radians(-1.0))


def test_tilted_trace_produces_paired_states():
    scen = SurfaceScenario(tilt=math.radians(15.0))
    trace = mode_trace(P, scen, max_depth=FULL_TRAVEL, n_samples=50)
    assert all(isinstance(p, AsymmetricPose) for p in trace)
    assert any(p.leading.mode is not p.trailing.mode for p in trace)
