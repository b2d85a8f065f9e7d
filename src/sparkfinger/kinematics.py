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
descent freedom without touching the bar-joint solver. Its Newton runs on
the same sums.
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

NEWTON_TOL = 1e-10
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
    xs, ys, phi = [], [], 0.0
    for L, theta in zip(lengths, angles):
        phi += theta
        xs.append(L * math.cos(phi))
        ys.append(L * math.sin(phi))
    return xs, ys, phi


def forward_kinematics(lengths, q) -> FkResult:
    """Tip position and orientation (the exact angle sum) of the planar
    chain with the given link lengths at joint angles q (one per link)."""
    xs, ys, phi = _link_extents(lengths, q)
    return FkResult(tip_position=(sum(xs), sum(ys)), tip_orientation=phi)


def jacobian(lengths, q) -> np.ndarray:
    """3×n Jacobian of the tip's vx, vy and ωz over the joint rates.

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

def reference_angles(params: FingerParams = FingerParams()) -> JointAngles:
    """Chain configuration whose tip sits at the linkage's reference pose.

    Analytic two-link IK to the wrist point; the elbow branch with negative
    middle-joint angle keeps all three angles inside |θ_i| ≤ π. The distal
    link points straight down and the angle sum is exact.
    """
    h_ref = reference_tip_height(params)
    return _ik(params, h_ref, elbow=-1.0)


def _ik(params: FingerParams, tip_height: float, elbow: float) -> JointAngles:
    L1, L2, L3 = params.lengths
    x_ref = tip_line_x(params)
    # wrist = tip minus the distal link held at the reference orientation
    wx = x_ref - L3 * math.cos(REFERENCE_ORIENTATION)
    wy = tip_height - L3 * math.sin(REFERENCE_ORIENTATION)
    r2 = wx * wx + wy * wy
    c2 = (r2 - L1 * L1 - L2 * L2) / (2.0 * L1 * L2)
    if abs(c2) > 1.0:
        raise ValueError(f"tip height {tip_height} mm unreachable for the chain")
    t2 = elbow * math.acos(c2)
    t1 = math.atan2(wy, wx) - math.atan2(L2 * math.sin(t2), L1 + L2 * math.cos(t2))
    t3 = REFERENCE_ORIENTATION - t1 - t2        # angle sum exact by construction
    return JointAngles(t1, t2, t3)


def constrained_motion(params: FingerParams, tip_height: float) -> JointAngles:
    """Solve the chain against the linkage's three motion constraints.

    Tip x pinned to the linkage's line station, tip orientation pinned to
    straight-down, tip y pinned to tip_height. Newton iteration to 1e-10 in
    plain floats, continuation-seeded from the reference configuration in
    steps of at most 5 mm. Raises ValueError when the height is unreachable
    and RuntimeError if the constraint Jacobian is singular.
    """
    x_ref = tip_line_x(params)
    h_ref = reference_tip_height(params)
    ref = reference_angles(params)
    q = (ref.theta1, ref.theta2, ref.theta3)
    n_steps = max(1, int(abs(tip_height - h_ref) / 5.0) + 1)
    for k in range(1, n_steps + 1):
        h = tip_height if k == n_steps else h_ref + (tip_height - h_ref) * (k / n_steps)
        q = _newton_height(params.lengths, q, x_ref, h)
        if q is None:
            raise ValueError(
                f"tip height {tip_height} mm unreachable for the chain "
                f"(no convergence at waypoint {h} mm, step {k} of {n_steps})")
    return JointAngles(*q)


def _newton_height(lengths, q, x_ref, tip_height, max_iter=60):
    """Newton on (tip x − x_ref, tip y − tip_height, angle sum − straight down);
    None when it does not converge.

    The step matrix is `jacobian` written out for three links. It is
    solved in closed form: the ωz row gives s3 = w − s1 − s2, which leaves
    the 2×2 system of the first two links, whose determinant is
    L1·L2·sin θ2.
    """
    L1, L2, L3 = lengths
    t1, t2, t3 = q
    for _ in range(max_iter):
        p2 = t1 + t2
        p3 = p2 + t3
        x1, x2, x3 = L1 * math.cos(t1), L2 * math.cos(p2), L3 * math.cos(p3)
        y1, y2, y3 = L1 * math.sin(t1), L2 * math.sin(p2), L3 * math.sin(p3)
        rx = x1 + x2 + x3 - x_ref
        ry = y1 + y2 + y3 - tip_height
        rw = p3 - REFERENCE_ORIENTATION
        norm = math.sqrt(rx * rx + ry * ry + rw * rw)
        if norm <= NEWTON_TOL:
            return t1, t2, t3
        if not math.isfinite(norm):
            break
        det = x1 * y2 - y1 * x2
        if det == 0.0:
            raise RuntimeError(f"singular constraint Jacobian at tip height {tip_height}")
        w = -rw
        ex = -rx + y3 * w
        ey = -ry - x3 * w
        s1 = (ex * x2 + y2 * ey) / det
        s2 = (-(y1 + y2) * ey - ex * (x1 + x2)) / det
        t1, t2, t3 = t1 + s1, t2 + s2, t3 + (w - s1 - s2)
    return None
