"""Serial-chain model of the finger: forward kinematics, Jacobian, and the
single-DOF constrained motion that mirrors the straight-line linkage.

The chain is the standard planar three-revolute abstraction with link
lengths (L1, L2, L3); each joint angle is measured counter-clockwise from
the base x-axis convention (zero configuration fully extended along +x).
Transforms follow the usual a/alpha/d/theta row convention, which for a
planar chain degenerates to a z-rotation plus an in-plane translation.

constrained_motion resolves the chain's three angles against three
constraints — tip on the linkage's vertical line, tip orientation fixed at
straight-down, tip height prescribed — reproducing the linkage's single
descent freedom without touching the bar-joint solver. Its Newton runs in
plain floats on the planar x, y and angle-sum rows of the chain.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mechanism import FingerParams, reference_tip_height, tip_line_x

__all__ = [
    "DhRow",
    "JointAngles",
    "FkResult",
    "dh_transform",
    "spark_chain",
    "forward_kinematics",
    "jacobian",
    "constrained_motion",
    "reference_angles",
]

DEFAULT_ANGLE_LIMIT = math.pi       # configuration-space box, |theta_i| <= pi
NEWTON_TOL = 1e-10
REFERENCE_ORIENTATION = -math.pi / 2    # distal body pointing straight down


@dataclass(frozen=True)
class DhRow:
    """One chain row: link length a (mm), twist alpha, offset d, angle theta."""
    a: float
    alpha: float = 0.0
    d: float = 0.0
    theta: float = 0.0


@dataclass(frozen=True)
class JointAngles:
    theta1: float
    theta2: float
    theta3: float

    def as_array(self) -> np.ndarray:
        return np.array([self.theta1, self.theta2, self.theta3])


@dataclass(frozen=True)
class FkResult:
    tip_position: np.ndarray        # (3,), mm
    tip_orientation: float          # rad, = sum of joint angles
    transforms: tuple               # cumulative 4x4 transforms, base to tip


def _angles(q) -> np.ndarray:
    if isinstance(q, JointAngles):
        return q.as_array()
    return np.asarray(q, dtype=float)


def dh_transform(row: DhRow) -> np.ndarray:
    """4x4 homogeneous transform of one planar chain row."""
    c, s = math.cos(row.theta), math.sin(row.theta)
    return np.array([
        [c, -s, 0.0, row.a * c],
        [s, c, 0.0, row.a * s],
        [0.0, 0.0, 1.0, row.d],
        [0.0, 0.0, 0.0, 1.0],
    ])


def spark_chain(params: FingerParams = FingerParams()) -> list[DhRow]:
    """The finger's three-row chain with lengths (L1, L2, L3)."""
    return [DhRow(a=params.L1), DhRow(a=params.L2), DhRow(a=params.L3)]


def forward_kinematics(chain, q) -> FkResult:
    """Compose the chain transforms at joint angles q.

    Returns tip position, tip orientation (the exact angle sum), and every
    cumulative transform. Generic in chain length; q must match.
    """
    rows = list(chain)
    if not rows:
        raise ValueError("empty chain")
    qa = _angles(q)
    if len(qa) != len(rows):
        raise ValueError(f"chain has {len(rows)} rows but q has {len(qa)} angles")
    T = np.eye(4)
    transforms = []
    for row, theta in zip(rows, qa):
        T = T @ dh_transform(DhRow(a=row.a, alpha=row.alpha, d=row.d, theta=float(theta)))
        transforms.append(T)
    return FkResult(
        tip_position=T[:3, 3].copy(),
        tip_orientation=float(np.sum(qa)),
        transforms=tuple(transforms),
    )


def jacobian(chain, q) -> np.ndarray:
    """6×n geometric Jacobian: linear velocity rows over angular rows.

    Column i is z_{i-1} × (O_n − O_{i-1}) stacked over z_{i-1}; for the
    planar chain every joint axis is +z, so the angular rows are (0,0,1)
    columns.
    """
    fk = forward_kinematics(chain, q)
    origins = [np.zeros(3)] + [T[:3, 3] for T in fk.transforms]
    tip = origins[-1]
    z = np.array([0.0, 0.0, 1.0])
    n = len(fk.transforms)
    J = np.zeros((6, n))
    for i in range(n):
        J[:3, i] = np.cross(z, tip - origins[i])
        J[3:, i] = z
    return J


# ---------------------------------------------------------------------------
# Constrained single-DOF motion
# ---------------------------------------------------------------------------

def reference_angles(params: FingerParams = FingerParams()) -> JointAngles:
    """Chain configuration whose tip sits at the linkage's reference pose.

    Analytic two-link IK to the wrist point; the elbow branch with negative
    middle-joint angle keeps all three angles inside the default box. The
    distal link points straight down and the angle sum is exact.
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
    return JointAngles(*q)


def _newton_height(lengths, q, x_ref, tip_height, max_iter=60):
    """Newton on (tip x − x_ref, tip y − tip_height, angle sum − straight down).

    The Jacobian rows are the chain's vx, vy and ωz rows: column i is
    (−Σ_{j≥i} yj, Σ_{j≥i} xj, 1), with (xj, yj) the extent of link j. The
    3×3 step is solved in closed form: the ωz row gives s3 = w − s1 − s2,
    which leaves the 2×2 system of the first two links, whose determinant
    is L1·L2·sin θ2.
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
    raise ValueError(f"tip height {tip_height} mm unreachable for the chain")
