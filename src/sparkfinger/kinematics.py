"""Serial-chain model of the finger: forward kinematics, Jacobian, and the
single-DOF constrained motion that mirrors the straight-line linkage.

The chain is the planar three-revolute abstraction with link lengths
(L1, L2, L3); each joint angle is measured counter-clockwise from the
previous link (zero configuration fully extended along +x). Link j spans
(x_j, y_j) = L_j·(cos φ_j, sin φ_j), with φ_j = θ1 + … + θj its absolute
angle; the tip pose and the Jacobian are plain-float sums of these extents.

constrained_motion resolves the chain's three angles against three
constraints — tip on the linkage's vertical line, tip orientation fixed at
straight-down, tip height prescribed — reproducing the linkage's single
descent freedom without touching the bar-joint solver. The constraints fix
the wrist point, so the angles are two-link inverse kinematics in closed
form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mechanism import FingerParams, reference_tip_height, tip_line_x

__all__ = [
    "JointAngles",
    "FkResult",
    "forward_kinematics",
    "jacobian",
    "constrained_motion",
    "reference_angles",
]

REFERENCE_ORIENTATION = -math.pi / 2    # distal body pointing straight down


@dataclass(frozen=True)
class JointAngles:
    theta1: float
    theta2: float
    theta3: float

    def as_array(self) -> np.ndarray:
        return np.array([self.theta1, self.theta2, self.theta3])


@dataclass(frozen=True)
class FkResult:
    tip_position: tuple[float, float]   # (x, y), mm
    tip_orientation: float              # rad, = sum of joint angles


def _link_extents(lengths, q):
    """(x_j), (y_j) of every link and the angle sum, for n lengths and n angles."""
    lengths = tuple(lengths)
    if not lengths:
        raise ValueError("empty chain")
    if isinstance(q, JointAngles):
        q = (q.theta1, q.theta2, q.theta3)
    angles = [float(theta) for theta in q]
    if len(angles) != len(lengths):
        raise ValueError(
            f"chain has {len(lengths)} links but q has {len(angles)} angles")
    if not all(map(math.isfinite, angles)):
        raise ValueError(f"q must be finite angles (got {angles})")
    xs, ys, phi = [], [], 0.0
    for L, theta in zip(lengths, angles):
        phi += theta
        if not math.isfinite(phi):      # finite angles whose sum overflows
            raise ValueError(f"q's angle sums must be finite (got {angles})")
        xs.append(L * math.cos(phi))
        ys.append(L * math.sin(phi))
    return xs, ys, phi


def forward_kinematics(lengths, q) -> FkResult:
    """Tip position and orientation (the exact angle sum) of the planar
    chain with the given link lengths at joint angles q (one finite angle
    per link, with finite sums, else a ValueError)."""
    xs, ys, phi = _link_extents(lengths, q)
    return FkResult(tip_position=(sum(xs), sum(ys)), tip_orientation=phi)


def jacobian(lengths, q) -> np.ndarray:
    """3×n Jacobian of the tip's vx, vy and ωz over the joint rates, at
    joint angles q checked as forward_kinematics checks them.

    Column i is (−Σ_{j≥i} y_j, Σ_{j≥i} x_j, 1): joint i swings everything
    distal of it about its axis, which is +z for every joint.
    """
    xs, ys, _ = _link_extents(lengths, q)
    n = len(xs)
    J = np.ones((3, n))
    sx = sy = 0.0
    for i in range(n - 1, -1, -1):
        sx += xs[i]
        sy += ys[i]
        J[0, i] = -sy
        J[1, i] = sx
    return J


# ---------------------------------------------------------------------------
# Constrained single-DOF motion
# ---------------------------------------------------------------------------

def constrained_motion(params: FingerParams, tip_height: float) -> JointAngles:
    """Chain angles with the tip on the linkage's vertical line at tip_height,
    pointing straight down.

    The three constraints fix the wrist (the tip less the distal link held
    straight down), so the first two links follow from two-link inverse
    kinematics in closed form. The elbow branch with negative middle-joint
    angle is the one the linkage's reference pose sits on; the angle sum is
    exact by construction. Raises ValueError when the wrist is out of reach.
    The finger is not validated here: the check costs about twice the solve,
    and the callers take their finger from spark_preset or the CLI gate.
    """
    L1, L2, L3 = params.lengths
    wx = tip_line_x(params) - L3 * math.cos(REFERENCE_ORIENTATION)
    wy = tip_height - L3 * math.sin(REFERENCE_ORIENTATION)
    c2 = (wx * wx + wy * wy - L1 * L1 - L2 * L2) / (2.0 * L1 * L2)
    if not abs(c2) <= 1.0:
        raise ValueError(f"tip height {tip_height} mm unreachable for the chain")
    # the wrist sits left of the base on every finger; past straight left
    # its bearing runs on below −π, so the angles stay continuous in height
    bearing = math.atan2(wy, wx)
    if bearing > math.pi / 2:
        bearing -= 2.0 * math.pi
    t2 = -math.acos(c2)
    t1 = bearing - math.atan2(L2 * math.sin(t2), L1 + L2 * math.cos(t2))
    return JointAngles(t1, t2, REFERENCE_ORIENTATION - t1 - t2)


def reference_angles(params: FingerParams = FingerParams()) -> JointAngles:
    """Chain configuration whose tip sits at the linkage's reference pose."""
    return constrained_motion(params, reference_tip_height(params))
