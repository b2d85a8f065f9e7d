"""Planar bar-joint constraint solver and the SPARK finger linkage preset.

The mechanism is modelled as a graph of rigid bars pinned at named joints,
some joints grounded, one scalar coordinate driven. Position analysis is a
damped Newton iteration on the stacked bar-length residuals. There is one
residual, vectorised over (..., joints, 2) coordinate arrays; the Newton
step, its Jacobian, the reference pose and the sweep's check all use it.

The SPARK preset realizes the finger's straight-line guide: a pair of
stacked parallelograms (A-B-E-D and B-C-I-E) keeps the distal body CI
parallel to the base at all times, and an inversor cell (arms AG/AH, rhombus
G-I-H-F, crank DF) pins the corner I to an exact vertical line. Because the
crank circle about D passes through the pole A, the inverse of that circle
is a straight line — the classical exact-line construction. The fingertip J
is a rigid marker on the CI body, triangulated off C and I, so it inherits
both the straight path and the fixed orientation.

The preset topology carries the FingerParams it was built from. Its
stroke, its trajectory poses and its reference pose follow from them in
closed form, from the height of I; no length is read back off the bars.
The stroke runs between the two folds of I, where the parallelogram
cascade stops reaching C (far) and the rhombus stops closing (near), each
pulled in by STROKE_MARGIN·L1. A sweep assembles all its samples at once,
checks them in one pass against the residual stack solve_position accepts
on, and returns them as columns. The closed form is exact, so that check
only confirms float rounding, and it refuses a carried finger that
disagrees with the bars; a sample above the tolerance is an error, not a
seed for Newton. The tolerance is relative, SOLVER_RTOL times the longest
moving bar, so a pose is judged the same way at every scale.

Internal units: mm for lengths, radians for angles.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "FingerParams",
    "ValidationReport",
    "LinkageTopology",
    "LinkageState",
    "NonConvergenceError",
    "TrajectorySample",
    "validate_kempe_constraints",
    "check_finger",
    "spark_preset",
    "reference_state",
    "solve_position",
    "discover_stroke",
    "fingertip_trajectory",
    "Trajectory",
    "check_sample_count",
    "straightness_metric",
    "mobility",
    "tip_line_x",
    "reference_tip_height",
]

RATIO_RTOL = 1e-9           # relative tolerance on the 4:2:1 link ratio
SOLVER_RTOL = 1e-12         # residual-stack norm per mm of the longest moving bar
MAX_ITERATIONS = 100
MAX_STEP_HALVINGS = 20
STROKE_MARGIN = 1e-3        # share of L1 the stroke keeps clear of each fold
# a sweep holds (N, 10, 2) poses at once: 100 000 samples is about 16 MB
MAX_SAMPLES = 100_000
# Tolerance absorbing float noise at the mode-switch stage boundaries, e.g.
# when dh1 + dh2 lands a few ulp away from the decimal a user typed (mm).
BOUNDARY_GRACE = 1e-9


class NonConvergenceError(RuntimeError):
    """No pose within the solver tolerance: a stalled or singular Newton
    solve, or a sweep sample outside the folds or off its assembly."""


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FingerParams:
    """Geometry, stopper, spring and inertial parameters of one finger.

    Lengths in mm, the distal rotation in degrees, stiffnesses in N·mm/rad,
    masses in kg, COM offsets in mm, gravity in mm/s². L1, L2 and L3 are
    the phalanx lengths (the A–D, A–B and G–I bars of the linkage) and CJ
    the drop of the fingertip J below the C corner of the distal body.

    Defaults are the reference finger. An unset COM offset lc1..lc3 sits
    at the midpoint of its link, L_i/2 of the lengths given (see `coms`).
    """

    L1: float = 80.0
    L2: float = 40.0
    L3: float = 20.0
    CJ: float = 28.8
    dh1: float = 15.8           # descent depth where the distal stop engages
    dh2: float = 14.6           # further descent completing the scoop
    dtheta_c1: float = 22.8     # total inward distal rotation, deg
    k1: float = 50.0            # torsional stiffnesses, N·mm/rad
    k2: float = 50.0
    m1: float = 0.030           # link masses, kg
    m2: float = 0.020
    m3: float = 0.010
    lc1: float | None = None    # COM offsets along each link, mm
    lc2: float | None = None
    lc3: float | None = None
    g: float = 9810.0           # mm/s²

    @property
    def lengths(self):
        return (self.L1, self.L2, self.L3)

    @property
    def coms(self):
        """(lc1, lc2, lc3), each unset one at the midpoint of its link."""
        return tuple(L / 2.0 if lc is None else lc
                     for L, lc in zip(self.lengths, (self.lc1, self.lc2, self.lc3)))


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def _ratio_ok(a, b, target):
    return abs(a / b - target) <= RATIO_RTOL * target


def validate_kempe_constraints(params: FingerParams) -> ValidationReport:
    """Check the linkage's length relations; returns a report, never raises.

    The three link lengths must form the exact 4:2:1 ratio (relative
    tolerance 1e-9); all lengths and masses must be strictly positive and
    finite, dh2 wider than the two boundary graces (else the scoop stage
    is empty), spring stiffnesses non-negative, the full distal rotation
    dtheta_c1 inside (0, 90) degrees and every COM offset that is set
    inside [0, L_i], and CJ at most about 1.02·L1, so the serial chain
    still reaches the stroke's lower end.
    """
    bad = []
    positive = {
        "L1": params.L1, "L2": params.L2, "L3": params.L3, "CJ": params.CJ,
        "dh1": params.dh1, "dh2": params.dh2,
        "m1": params.m1, "m2": params.m2, "m3": params.m3,
    }
    for name, value in positive.items():
        if not math.isfinite(value):
            bad.append(f"{name} is not finite")
        elif value <= 0:
            bad.append(f"{name} must be > 0 (got {value!r})")
    if 0.0 < params.dh2 <= 2.0 * BOUNDARY_GRACE:
        bad.append(f"dh2 must be > 2*BOUNDARY_GRACE = {2.0 * BOUNDARY_GRACE!r} mm "
                   f"(got {params.dh2!r})")
    for name in ("k1", "k2"):
        value = getattr(params, name)
        if not math.isfinite(value) or value < 0:
            bad.append(f"{name} must be >= 0 (got {value!r})")
    if not 0.0 < params.dtheta_c1 < 90.0:
        bad.append(f"dtheta_c1 must be in (0, 90) deg (got {params.dtheta_c1!r})")
    for i, (L, lc) in enumerate(zip(params.lengths,
                                    (params.lc1, params.lc2, params.lc3)), 1):
        if lc is not None and not (math.isfinite(lc) and 0.0 <= lc <= L):
            bad.append(f"lc{i} must be in [0, L{i}] = [0, {L!r}] (got {lc!r})")
    if not bad:
        # ratio relations; report the measured ratio for each failure
        for name, num, den, target in (
            ("L1:L2 != 2:1", params.L1, params.L2, 2.0),
            ("L2:L3 != 2:1", params.L2, params.L3, 2.0),
            ("L1:L3 != 4:1", params.L1, params.L3, 4.0),
        ):
            if not _ratio_ok(num, den, target):
                bad.append(f"{name} (measured {num / den:.10g})")
    if not bad:
        # the chain's wrist, L3 above the tip on the tip line, must stay within
        # L1 + L2 of A down to the stroke's lower end far − CJ + margin; the
        # ratio keeps both roots real and the wrist outside |L1 − L2|
        far, _ = _cell_folds(params)
        reach = params.L1 + params.L2
        limit = (far + STROKE_MARGIN * params.L1 + params.L3
                 + math.sqrt(reach * reach - tip_line_x(params) ** 2))
        if params.CJ > limit:
            bad.append(f"CJ must be <= {limit:.10g} mm, where the serial chain "
                       f"still reaches the stroke's lower end (got {params.CJ!r})")
    return ValidationReport(violations=tuple(bad))


def check_finger(params: FingerParams):
    """Raise ValueError listing the violations when validate_kempe_constraints
    rejects params; the library entries that take a finger call it first."""
    report = validate_kempe_constraints(params)
    if not report.ok:
        raise ValueError("invalid linkage parameters: " + "; ".join(report.violations))


# ---------------------------------------------------------------------------
# Topology
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinkageTopology:
    """Immutable bar-joint graph.

    bars: (joint_a, joint_b, rest_length mm). grounded: (joint, (x, y)).
    driver: (joint, axis, neutral value) — the scalar coordinate the solver
    pins, with its value at the reference assembly. finger: the parameters
    a finger preset was built from, None for any other graph; the stroke,
    the sweep and the reference pose read it, so a topology carrying one
    must have the preset's joints, _JOINTS in order.
    """

    joints: tuple[str, ...]
    bars: tuple[tuple[str, str, float], ...]
    grounded: tuple[tuple[str, tuple[float, float]], ...]
    driver: tuple[str, str, float]
    finger: FingerParams | None = None

    def __post_init__(self):
        names = set(self.joints)
        if len(names) != len(self.joints):
            raise ValueError("duplicate joint names")
        if self.finger is not None and self.joints != _JOINTS:
            raise ValueError(f"a finger preset's joints must be {_JOINTS} "
                             f"in that order, not {self.joints}")
        for a, b, L in self.bars:
            if a not in names or b not in names:
                raise ValueError(f"bar {a}-{b} references unknown joint")
            if not (L > 0):
                raise ValueError(f"bar {a}-{b} rest_length must be > 0")
        for j, _ in self.grounded:
            if j not in names:
                raise ValueError(f"grounded joint {j} unknown")
        dj, axis, _ = self.driver
        if dj not in names or axis not in ("x", "y"):
            raise ValueError("driver must name a joint and axis 'x' or 'y'")
        # connectivity of the bar graph over all joints
        adj = {j: set() for j in self.joints}
        for a, b, _ in self.bars:
            adj[a].add(b)
            adj[b].add(a)
        seen = {self.joints[0]}
        stack = [self.joints[0]]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if seen != names:
            raise ValueError("bar graph is not connected")

    @functools.cached_property
    def _system(self) -> _System:
        """Solver view, built on first use and kept as long as the topology."""
        return _System(self)

    def _finger(self) -> FingerParams:
        if self.finger is None:
            raise ValueError("not a finger preset: the topology carries no FingerParams")
        return self.finger


@dataclass(frozen=True)
class LinkageState:
    """Joint coordinates plus the norm of the residual stack solve_position
    accepts on (the moving bars and the driver row)."""

    coordinates: dict
    residual_norm: float


class TrajectorySample(NamedTuple):
    driver: float
    tip: tuple[float, float]
    orientation: float          # rad, angle of the C→J segment


def mobility(topology: LinkageTopology) -> int:
    """Grübler DOF count of the planar linkage.

    Bars joining two grounded pins are frame webs, fused into the ground
    body; every pin contributes (number of incident members − 1) revolute
    joints, the ground counting as one member at each grounded pin.
    """
    grounded = {j for j, _ in topology.grounded}
    moving = [b for b in topology.bars if b[0] not in grounded or b[1] not in grounded]
    members_at = {}
    for a, b, _ in moving:
        members_at.setdefault(a, []).append((a, b))
        members_at.setdefault(b, []).append((a, b))
    for pin in grounded:
        members_at.setdefault(pin, []).append("ground")
    n_links = len(moving) + 1                       # + ground
    n_joints = sum(len(m) - 1 for m in members_at.values())
    return 3 * (n_links - 1) - 2 * n_joints


# ---------------------------------------------------------------------------
# SPARK preset
# ---------------------------------------------------------------------------

def _cell_line_x(params: FingerParams) -> float:
    # x of the inversor-cell corner I; the tip line sits one base length left
    return (params.L2 ** 2 - params.L3 ** 2) / (2.0 * params.L1)


def tip_line_x(params: FingerParams) -> float:
    """x-station of the vertical line the fingertip rides (mm)."""
    return _cell_line_x(params) - params.L1


def _cell_folds(params: FingerParams) -> tuple[float, float]:
    """Closed-form fold heights (far, near) of corner I.

    Below `far` the cascade cannot reach C = I − (L1, 0), as |AC| > 2·L2;
    above `near` the rhombus cannot close, as |AI| < L2 − L3.
    """
    x_i = _cell_line_x(params)
    x_c = x_i - params.L1
    far = -math.sqrt(4.0 * params.L2 ** 2 - x_c ** 2)
    near = -math.sqrt((params.L2 - params.L3) ** 2 - x_i ** 2)
    return far, near


def _reference_cell_height(params: FingerParams) -> float:
    """Mid-stroke height of corner I: midpoint of the two closed-form folds."""
    far, near = _cell_folds(params)
    return (near + far) / 2.0


def reference_tip_height(params: FingerParams) -> float:
    """Tip height of the reference assembly (mm); J sits CJ below the C corner."""
    return _reference_cell_height(params) - params.CJ


_JOINTS = ("A", "B", "C", "D", "E", "F", "G", "H", "I", "J")


def _assemble(params: FingerParams, y_cell: np.ndarray) -> np.ndarray:
    """Closed-form assemblies of the preset with corner I at each height of
    the (N,) array y_cell; returns (N, 10, 2) coordinates in _JOINTS order.

    Raises ValueError naming the first sample the cascade cannot reach or
    the rhombus cannot close at, before taking any square root.
    """
    L1, L2, L3 = params.L1, params.L2, params.L3
    y = np.asarray(y_cell, dtype=float)
    x_i = _cell_line_x(params)
    x_c = x_i - L1
    # two-bar cascade reaching C = I − (L1, 0) = L2·(u + v); branch with u
    # above the chord
    qx, qy = x_c / L2, y / L2
    q_sq = qx * qx + qy * qy
    disc = 1.0 - 0.25 * q_sq
    # inversor cell on the ray A→I: |AF|·|AI| = L2² − L3²
    d_i = np.sqrt(x_i * x_i + y * y)
    d_f = (L2 ** 2 - L3 ** 2) / d_i
    cross_sq = L3 ** 2 - (0.5 * (d_f - d_i)) ** 2
    for gap, what in ((disc, "cascade cannot reach"), (cross_sq, "rhombus cannot close at")):
        bad = np.flatnonzero(~(gap >= 0.0))
        if bad.size:
            k = int(bad[0])
            raise ValueError(f"sample {k}: {what} height {float(y[k])!r}")
    t = np.sqrt(disc)
    q_norm = np.sqrt(q_sq)
    ux = 0.5 * qx + t * (-qy / q_norm)
    uy = 0.5 * qy + t * (qx / q_norm)
    rx, ry = x_i / d_i, y / d_i
    mid = 0.5 * (d_f + d_i)
    cross = np.sqrt(cross_sq)
    X = np.zeros((y.size, len(_JOINTS), 2))
    X[:, 1, 0], X[:, 1, 1] = L2 * ux, L2 * uy                   # B
    X[:, 2, 0], X[:, 2, 1] = x_c, y                             # C
    X[:, 3, 0] = L1                                             # D
    X[:, 4, 0], X[:, 4, 1] = L1 + L2 * ux, L2 * uy              # E = D + (B − A)
    X[:, 5, 0], X[:, 5, 1] = d_f * rx, d_f * ry                 # F
    X[:, 6, 0], X[:, 6, 1] = mid * rx - cross * ry, mid * ry + cross * rx   # G
    X[:, 7, 0], X[:, 7, 1] = mid * rx + cross * ry, mid * ry - cross * rx   # H
    X[:, 8, 0], X[:, 8, 1] = x_i, y                             # I
    X[:, 9, 0], X[:, 9, 1] = x_c, y - params.CJ                 # J, CJ below C
    return X


def spark_preset(params: FingerParams = FingerParams()) -> LinkageTopology:
    """Build the finger linkage topology (ten joints A..J, mobility 1).

    Raises ValueError when the parameters fail validate_kempe_constraints.
    """
    check_finger(params)
    L1, L2, L3 = params.L1, params.L2, params.L3
    tip_arm = math.hypot(L1, params.CJ)     # triangulation bar I-J
    bars = (
        ("A", "D", L1),         # base web between the frame pivots
        ("A", "B", L2),
        ("B", "E", L1),
        ("D", "E", L2),
        ("B", "C", L2),
        ("E", "I", L2),
        ("C", "I", L1),
        ("A", "G", L2),         # inversor arms
        ("A", "H", L2),
        ("G", "I", L3),         # rhombus sides
        ("H", "I", L3),
        ("H", "F", L3),
        ("F", "G", L3),
        ("D", "F", L1),         # crank through the pole
        ("C", "J", params.CJ),  # tip marker, rigid on the C-I body
        ("I", "J", tip_arm),
    )
    return LinkageTopology(
        joints=_JOINTS,
        bars=bars,
        grounded=(("A", (0.0, 0.0)), ("D", (float(L1), 0.0))),
        driver=("J", "y", reference_tip_height(params)),
        finger=params,
    )


def reference_state(topology: LinkageTopology) -> LinkageState:
    """The finger preset's reference pose, corner I midway between its folds,
    assembled on demand from the topology's finger, as a LinkageState."""
    params = topology._finger()
    X = _assemble(params, np.array([_reference_cell_height(params)]))[0]
    r = topology._system.residual(X, topology.driver[2])
    return LinkageState(coordinates=dict(zip(topology.joints, X)),
                        residual_norm=float(_norm(r)))


# ---------------------------------------------------------------------------
# Position solver
# ---------------------------------------------------------------------------

class _System:
    """Index arrays of a topology: its bars that move, its pins and its driver.

    Coordinates are (..., joints, 2) arrays in topology.joints order. `tol`
    is the largest residual-stack norm a pose is accepted with, SOLVER_RTOL
    times the longest moving bar (mm).
    """

    def __init__(self, topology: LinkageTopology):
        grounded = dict(topology.grounded)
        col = {j: k for k, j in enumerate(topology.joints)}
        rows = []
        for a, b, L in topology.bars:
            if a not in grounded or b not in grounded:
                rows.append((col[a], col[b], L))
            else:
                # both ends grounded: must already be satisfied exactly
                gap = math.dist(grounded[a], grounded[b]) - L
                if abs(gap) > 1e-9 * L:
                    raise ValueError(
                        f"bar {a}-{b} joins two grounded pins but its rest length "
                        f"disagrees with their spacing by {gap:.3g} mm")
        self.row_a = np.array([a for a, _, _ in rows])
        self.row_b = np.array([b for _, b, _ in rows])
        self.row_len = np.array([L for _, _, L in rows])
        self.row_len_sq = self.row_len ** 2
        self.row_twice_len = 2.0 * self.row_len
        self.tol = SOLVER_RTOL * float(self.row_len.max(initial=0.0))
        self.fixed_cols = [col[j] for j in grounded]
        self.fixed_xy = np.array(list(grounded.values()), dtype=float).reshape(-1, 2)
        self.free_cols = [k for k, j in enumerate(topology.joints) if j not in grounded]
        dj, axis, _ = topology.driver
        self.driver_col = col[dj]
        self.driver_axis = 0 if axis == "x" else 1

    def residual(self, X: np.ndarray, drivers) -> np.ndarray:
        """One row per moving bar, (|ab|² − L²)/(2L), then the driver row.

        Grounded joints are read at their pins, whatever X holds there.
        """
        X = X.copy()
        X[..., self.fixed_cols, :] = self.fixed_xy
        d = X.take(self.row_a, axis=-2) - X.take(self.row_b, axis=-2)
        dx, dy = d[..., 0], d[..., 1]
        r = np.empty(X.shape[:-2] + (len(self.row_len) + 1,))
        r[..., :-1] = (dx * dx + dy * dy - self.row_len_sq) / self.row_twice_len
        r[..., -1] = X[..., self.driver_col, self.driver_axis] - drivers
        return r

    def jacobian(self, X: np.ndarray) -> np.ndarray:
        """Jacobian of `residual` at one (joints, 2) state over the free
        joints' coordinates, flattened in X's order."""
        rows = np.arange(len(self.row_len))
        d = (X[self.row_a] - X[self.row_b]) / self.row_len[:, None]
        J = np.zeros((len(rows) + 1,) + X.shape)
        J[rows, self.row_a] = d
        J[rows, self.row_b] = -d
        J[-1, self.driver_col, self.driver_axis] = 1.0
        return J[:, self.free_cols].reshape(len(J), -1)


def _norm(r: np.ndarray):
    """Euclidean norm of residual stacks over their last axis."""
    return np.sqrt(np.einsum("...k,...k->...", r, r))


def solve_position(topology: LinkageTopology, driver_value: float,
                   initial_guess: LinkageState) -> LinkageState:
    """Newton-Raphson position solve with the driver pinned at driver_value.

    Damped steps (up to 20 halvings) when the residual would grow; done once
    the residual-stack norm is at most the topology's tolerance (SOLVER_RTOL
    times its longest moving bar). Returns the assembly branch continuously
    connected to the initial guess, whose grounded joints are read at their
    pins. Raises NonConvergenceError at fold points (singular Jacobian) and
    when the iteration stalls or runs out of iterations.
    """
    sys_ = topology._system
    missing = [j for j in topology.joints if j not in initial_guess.coordinates]
    if missing:
        raise ValueError(f"initial guess missing joints: {missing}")
    X = np.array([initial_guess.coordinates[j] for j in topology.joints], dtype=float)
    X[sys_.fixed_cols] = sys_.fixed_xy
    r = sys_.residual(X, driver_value)
    norm = float(_norm(r))
    for _ in range(MAX_ITERATIONS):
        if norm <= sys_.tol:
            return LinkageState(coordinates=dict(zip(topology.joints, X)),
                                residual_norm=norm)
        try:
            step = np.linalg.solve(sys_.jacobian(X), -r).reshape(-1, 2)
        except np.linalg.LinAlgError:
            raise NonConvergenceError(
                f"singular constraint Jacobian at driver={driver_value}") from None
        scale = 1.0
        for _ in range(MAX_STEP_HALVINGS):
            X_new = X.copy()
            X_new[sys_.free_cols] += scale * step
            r_new = sys_.residual(X_new, driver_value)
            norm_new = float(_norm(r_new))
            if norm_new < norm:
                X, r, norm = X_new, r_new, norm_new
                break
            scale *= 0.5
        else:
            raise NonConvergenceError(
                f"no progress at driver={driver_value}; residual {norm:.3e}")
    raise NonConvergenceError(
        f"no convergence after {MAX_ITERATIONS} iterations at "
        f"driver={driver_value}; residual {norm:.3e}")


def discover_stroke(topology: LinkageTopology) -> tuple[float, float]:
    """Usable driver range (lo, hi) of the finger preset, in closed form.

    The two folds of corner I (see _cell_folds), shifted down by CJ to the
    tip and each pulled in by STROKE_MARGIN·L1, so the stroke keeps the same
    share of clearance from the folds at every scale.
    """
    params = topology._finger()
    far, near = _cell_folds(params)
    margin = STROKE_MARGIN * params.L1
    return far - params.CJ + margin, near - params.CJ - margin


def check_sample_count(n: int):
    """The sweep sample count rule: n must lie in [2, MAX_SAMPLES]."""
    if not 2 <= n <= MAX_SAMPLES:
        raise ValueError(f"samples must be in [2, {MAX_SAMPLES}] (got {n!r})")


@dataclass
class Trajectory(Sequence):
    """One sweep as four float columns, and what verifying it found.

    driver, tip_x, tip_y and orientation hold one entry per sample (mm, mm,
    mm, rad); max_residual_mm is the largest norm of the residual stack over
    the samples. As a sequence it reads as TrajectorySamples, each built on
    access: an int index gives one, a slice a list of them.
    """

    driver: list[float]
    tip_x: list[float]
    tip_y: list[float]
    orientation: list[float]
    max_residual_mm: float

    def __len__(self) -> int:
        return len(self.driver)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return list(map(TrajectorySample, self.driver[k],
                            zip(self.tip_x[k], self.tip_y[k]), self.orientation[k]))
        return TrajectorySample(self.driver[k], (self.tip_x[k], self.tip_y[k]),
                                self.orientation[k])

    def __iter__(self):
        return map(TrajectorySample, self.driver, zip(self.tip_x, self.tip_y),
                   self.orientation)


def fingertip_trajectory(topology: LinkageTopology,
                         stroke: tuple[float, float] | None = None,
                         n_samples: int = 100) -> Trajectory:
    """Sweep the driver over `stroke`: columns of driver, tip J and CJ angle.

    Every sample is assembled in closed form at once from the topology's
    finger and checked in one pass against the residual stack
    solve_position accepts on (the bars plus the driver row), with the same
    predicate: norm at most the topology's tolerance. `stroke` defaults to
    discover_stroke; n_samples follows check_sample_count. A driver outside
    the folds, or a sample above the tolerance (a finger that disagrees
    with the bars among them), raises NonConvergenceError naming the sample.
    """
    check_sample_count(n_samples)
    params = topology._finger()
    if stroke is None:
        stroke = discover_stroke(topology)
    far, near = _cell_folds(params)
    lo, hi = stroke
    drivers = np.linspace(lo, hi, n_samples)
    y_cell = drivers + params.CJ
    outside = np.flatnonzero(~((far < y_cell) & (y_cell < near)))
    if outside.size:
        k = int(outside[0])
        raise NonConvergenceError(
            f"sample {k} (driver={float(drivers[k])}): outside the folds "
            f"({far - params.CJ!r}, {near - params.CJ!r})")
    try:
        X = _assemble(params, y_cell)
    except ValueError as exc:
        raise NonConvergenceError(str(exc)) from exc
    sys_ = topology._system
    norms = _norm(sys_.residual(X, drivers))
    rough = np.flatnonzero(~(norms <= sys_.tol))
    if rough.size:
        k = int(rough[0])
        raise NonConvergenceError(
            f"sample {k} (driver={float(drivers[k])}): residual "
            f"{float(norms[k]):.3e} mm above the tolerance {sys_.tol:.3e} mm")
    J = X[:, 9]
    seg = J - X[:, 2]                       # C→J
    return Trajectory(drivers.tolist(), J[:, 0].tolist(), J[:, 1].tolist(),
                      np.arctan2(seg[:, 1], seg[:, 0]).tolist(),
                      max_residual_mm=float(norms.max()))


def straightness_metric(trajectory: Trajectory) -> tuple[float, float]:
    """(max, rms) horizontal deviation from the vertical line through sample 0."""
    xs = np.array(trajectory.tip_x)
    if xs.size == 0:
        raise ValueError("empty trajectory")
    dev = xs - xs[0]
    return float(np.abs(dev).max()), float(np.sqrt(np.mean(dev ** 2)))
