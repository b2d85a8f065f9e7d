"""Tests for the serial phalanx chain: FK, Jacobian, constrained motion."""
import math
import re
import warnings

import numpy as np
import pytest

from sparkfinger import mechanism
from sparkfinger.kinematics import (
    JointAngles,
    constrained_motion,
    forward_kinematics,
    jacobian,
    reference_angles,
)
from sparkfinger.mechanism import FingerParams

LENGTHS = FingerParams().lengths


def fd_jacobian(lengths, q, h=1e-6):
    """Central finite differences of the tip position and orientation."""
    q = np.asarray(q, dtype=float)
    J = np.zeros((3, len(q)))
    for i in range(len(q)):
        dq = np.zeros(len(q))
        dq[i] = h
        plus = forward_kinematics(lengths, q + dq)
        minus = forward_kinematics(lengths, q - dq)
        J[:2, i] = np.subtract(plus.tip_position, minus.tip_position) / (2 * h)
        J[2, i] = (plus.tip_orientation - minus.tip_orientation) / (2 * h)
    return J


# ---------------------------------------------------------------------------

def test_transform_of_zero_row_is_identity():
    # a zero-length link turns the tip without moving it
    fk = forward_kinematics((0.0,), (0.7,))
    assert fk.tip_position == (0.0, 0.0)
    assert fk.tip_orientation == 0.7


def test_transform_translates_along_rotated_x():
    fk = forward_kinematics((10.0,), (math.pi / 2,))
    assert np.allclose(fk.tip_position, [0.0, 10.0], atol=1e-12)
    assert fk.tip_orientation == math.pi / 2


def test_chain_lengths_follow_finger_parameters():
    p = FingerParams(L1=100.0, L2=50.0, L3=25.0)
    assert forward_kinematics(p.lengths, (0.0, 0.0, 0.0)).tip_position == (175.0, 0.0)
    assert np.array_equal(jacobian(p.lengths, (0.0, 0.0, 0.0))[1], [175.0, 75.0, 25.0])


def test_forward_kinematics_bent_pose():
    # First link up, second link folded to horizontal, third straight:
    # tip lands at (L2 + L3, L1).
    fk = forward_kinematics(LENGTHS, (math.pi / 2, -math.pi / 2, 0.0))
    assert fk.tip_position[0] == pytest.approx(60.0, abs=1e-12)
    assert fk.tip_position[1] == pytest.approx(80.0, abs=1e-12)
    assert fk.tip_orientation == pytest.approx(0.0, abs=1e-15)


def test_straight_pose_reaches_full_length():
    fk = forward_kinematics(LENGTHS, (0.0, 0.0, 0.0))
    assert fk.tip_position[0] == pytest.approx(140.0)
    assert fk.tip_position[1] == pytest.approx(0.0, abs=1e-12)


def test_orientation_is_the_exact_angle_sum():
    q = (0.3, -1.1, 2.7)
    fk = forward_kinematics(LENGTHS, q)
    assert fk.tip_orientation == sum(q)


def test_forward_kinematics_rejects_bad_input():
    with pytest.raises(ValueError, match="3 links but q has 2"):
        forward_kinematics(LENGTHS, (0.0, 0.0))
    with pytest.raises(ValueError, match="empty chain"):
        forward_kinematics([], (0.0,))
    with pytest.raises(ValueError, match="empty chain"):
        jacobian((), ())


@pytest.mark.parametrize("q", [(math.nan, 0.0, 0.0), (0.0, math.inf, 0.0),
                               (0.0, 0.0, -math.inf)], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("route", [forward_kinematics, jacobian])
def test_an_angle_that_is_not_finite_is_refused(route, q):
    message = f"q must be finite angles (got {list(q)})"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            route(LENGTHS, q)


@pytest.mark.parametrize("q", [(1e308, 1e308, 0.0), (0.0, -1e308, -1e308),
                               (1e308, 0.0, 1e308)], ids=["q1+q2", "q2+q3", "q1+q2+q3"])
@pytest.mark.parametrize("route", [forward_kinematics, jacobian])
def test_finite_angles_whose_sum_overflows_are_refused(route, q):
    message = f"q's angle sums must be finite (got {list(q)})"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            route(LENGTHS, q)


def test_joint_angles_container_roundtrip():
    q = JointAngles(0.1, 0.2, 0.3)
    assert np.allclose(q.as_array(), [0.1, 0.2, 0.3])
    fk_a = forward_kinematics(LENGTHS, q)
    fk_b = forward_kinematics(LENGTHS, q.as_array())
    assert np.allclose(fk_a.tip_position, fk_b.tip_position)


# ---------------------------------------------------------------------------
# Jacobian
# ---------------------------------------------------------------------------

def test_jacobian_at_straight_pose():
    J = jacobian(LENGTHS, (0.0, 0.0, 0.0))
    assert J.shape == (3, 3)                        # vx, vy, wz rows
    assert np.allclose(J[1], [140.0, 60.0, 20.0])   # d(tip_y)/d(theta_i)
    assert np.allclose(J[0], 0.0, atol=1e-12)       # d(tip_x) vanishes
    assert np.allclose(J[2], 1.0)                   # planar angular row


def test_jacobian_matches_finite_differences_at_random_poses():
    rng = np.random.default_rng(7)
    for _ in range(25):
        q = rng.uniform(-math.pi, math.pi, 3)
        J = jacobian(LENGTHS, q)
        J_fd = fd_jacobian(LENGTHS, q)
        scale = max(1.0, np.max(np.abs(J)))
        assert np.max(np.abs(J[:2] - J_fd[:2])) / scale < 1e-6
        assert np.max(np.abs(J[2] - J_fd[2])) < 1e-6


# ---------------------------------------------------------------------------
# Constrained motion along the straight-line stroke
# ---------------------------------------------------------------------------

def test_reference_pose_hits_the_guide_line():
    p = FingerParams()
    fk = forward_kinematics(p.lengths, reference_angles(p))
    assert fk.tip_position[0] == pytest.approx(mechanism.tip_line_x(p),
                                               abs=1e-9)
    assert fk.tip_position[1] == pytest.approx(
        mechanism.reference_tip_height(p), abs=1e-9)
    assert fk.tip_orientation == pytest.approx(-math.pi / 2, abs=1e-12)


def test_constrained_motion_tracks_a_height_command():
    p = FingerParams()
    for h in (-60.0, -55.0, -50.0):
        q = constrained_motion(p, h)
        fk = forward_kinematics(p.lengths, q)
        assert fk.tip_position[0] == pytest.approx(mechanism.tip_line_x(p),
                                                   abs=1e-8)
        assert fk.tip_position[1] == pytest.approx(h, abs=1e-8)
        assert fk.tip_orientation == pytest.approx(-math.pi / 2, abs=1e-8)


def test_constrained_motion_is_continuous_in_the_command():
    p = FingerParams()
    q_a = constrained_motion(p, -55.0).as_array()
    q_b = constrained_motion(p, -55.001).as_array()
    assert np.max(np.abs(q_a - q_b)) < 1e-2


def test_constrained_motion_is_continuous_where_the_wrist_passes_base_level():
    # A short fingertip drop (CJ = 0.001·L1) puts the top of the stroke above
    # h = −L3, where the wrist rises past the base's height on its left.
    p = FingerParams(CJ=0.08)
    assert mechanism.discover_stroke(mechanism.spark_preset(p))[1] > -p.L3
    q_a = constrained_motion(p, -p.L3 - 1e-6).as_array()
    q_b = constrained_motion(p, -p.L3 + 1e-6).as_array()
    assert np.max(np.abs(q_a - q_b)) < 1e-3


@pytest.mark.parametrize("scale", [0.1, 0.5, 1.0, 2.0, 8.0, 10.0])
def test_constrained_motion_lands_on_the_analytic_elbow_branch(scale):
    # Over the whole stroke the chain sits on the elbow branch of the
    # reference pose (negative middle joint), with its tip on the line, at
    # the commanded height and pointing straight down.
    p = FingerParams(L1=80.0 * scale, L2=40.0 * scale, L3=20.0 * scale,
                     CJ=28.8 * scale)
    lo, hi = mechanism.discover_stroke(mechanism.spark_preset(p))
    x_line = mechanism.tip_line_x(p)
    for h in np.linspace(lo, hi, 7):
        q = constrained_motion(p, float(h))
        assert q.theta2 < 0.0
        fk = forward_kinematics(p.lengths, q)
        assert fk.tip_position[0] == pytest.approx(x_line, abs=1e-12 * p.L1)
        assert fk.tip_position[1] == pytest.approx(float(h), abs=1e-12 * p.L1)
        assert fk.tip_orientation == pytest.approx(-math.pi / 2, abs=1e-12)


def test_unreachable_height_raises():
    with pytest.raises(ValueError,
                       match=r"^tip height -500\.0 mm unreachable for the chain$"):
        constrained_motion(FingerParams(), -500.0)
