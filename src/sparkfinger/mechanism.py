"""The SPARK finger linkage and its planar bar-joint position solver.

The linkage realizes the finger's straight-line guide: a pair of stacked
parallelograms (A-B-E-D and B-C-I-E) keeps the distal body CI parallel to
the base at all times, and an inversor cell (arms AG/AH, rhombus G-I-H-F,
crank DF) pins the corner I to an exact vertical line. Because the crank
circle about D passes through the pole A, the inverse of that circle is a
straight line — the classical exact-line construction. The fingertip J is a
rigid marker on the CI body, triangulated off C and I, so it inherits both
the straight path and the fixed orientation.

A LinkageTopology is one FingerParams. Every finger has the same joints,
pins, driver and bars (one bar-end table, _BARS); the finger sets only the
lengths. Its stroke, trajectory poses and reference pose follow from the
finger in closed form, from the height of I: the stroke runs between the
two folds of I, where the parallelogram cascade stops reaching C (far) and
the rhombus stops closing (near), each pulled in by STROKE_MARGIN·L1. A
sweep assembles all its samples at once, checks them in one pass against
the residual stack solve_position accepts on, and returns them as columns;
the closed form is exact, so a sample above the tolerance is an error.

The bars stay the independent route: solve_position is a damped Newton
iteration on the stacked bar-length residuals, with J's height driven, and
mobility counts the bars' degrees of freedom (Grübler). A pose is a
(10, 2) float array in joints order; a sweep holds its N poses joint-major,
as one (10, 2, N) array whose every joint coordinate is one contiguous row.
There is one residual, over a pose or a sweep that holds A and D at their
pins; the Newton step, its Jacobian, the reference pose and the sweep's
check all use it. Its index tables are module constants; the
topology itself holds the finger's moving-bar lengths and its tolerance
`tol`, SOLVER_RTOL times its longest moving bar, so a pose is judged the
same way at every scale. The bars also fit the upper parallelogram's
anti-parallelogram branch, so a Newton pose is checked for its branch too.

Internal units: mm for lengths, radians for angles.
"""
from __future__ import annotations

import functools
import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

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
BRANCH_RTOL = 1e-6          # share of L1 by which a solved C − B may miss I − E
MAX_ITERATIONS = 100
MAX_STEP_HALVINGS = 20
STROKE_MARGIN = 1e-3        # share of L1 the stroke keeps clear of each fold
DEFAULT_SAMPLES = 100       # samples in a sweep or trace unless told otherwise
DEFAULT_HALF_SPAN = 60.0    # mm between the two fingers' contacts on a tilted surface
# a sweep holds its (10, 2, N) poses at once: 100 000 samples is about 16 MB
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
        reach, x_line = params.L1 + params.L2, tip_line_x(params)
        limit = (far + STROKE_MARGIN * params.L1 + params.L3
                 + math.sqrt(reach * reach - x_line * x_line))
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

_JOINTS = ("A", "B", "C", "D", "E", "F", "G", "H", "I", "J")
_PINS = ("A", "D")          # grounded: A at the origin, D at (L1, 0)
_DRIVER = ("J", "y")        # J's height drives the linkage
# The one bar-end table: every finger's 16 bars (joint_a, joint_b, length key),
# each key a FingerParams field or IJ, the tip arm's hypot(L1, CJ).
_LENGTH_KEYS = ("L1", "L2", "L3", "CJ", "IJ")
_BARS = (
    ("A", "D", "L1"),                                                        # base web
    ("A", "B", "L2"), ("B", "E", "L1"), ("D", "E", "L2"),                    # A-B-E-D
    ("B", "C", "L2"), ("E", "I", "L2"), ("C", "I", "L1"),                    # B-C-I-E
    ("A", "G", "L2"), ("A", "H", "L2"),                                      # inversor arms
    ("G", "I", "L3"), ("H", "I", "L3"), ("H", "F", "L3"), ("F", "G", "L3"),  # rhombus
    ("D", "F", "L1"),                                                        # crank
    ("C", "J", "CJ"), ("I", "J", "IJ"),                                      # tip marker
)
# the A-D web joins the two pins, which it spaces by construction
_MOVING_BARS = tuple(bar for bar in _BARS if bar[0] not in _PINS or bar[1] not in _PINS)
# the residual's index tables, fixed at import
_ROW_A = np.array([_JOINTS.index(a) for a, _, _ in _MOVING_BARS])
_ROW_B = np.array([_JOINTS.index(b) for _, b, _ in _MOVING_BARS])
_ROW_KEY = np.array([_LENGTH_KEYS.index(key) for _, _, key in _MOVING_BARS])
_FREE_COLS = [k for k, j in enumerate(_JOINTS) if j not in _PINS]
_DRIVER_COL, _DRIVER_AXIS = _JOINTS.index(_DRIVER[0]), "xy".index(_DRIVER[1])
# the upper parallelogram's corners, C − B = I − E on its parallelogram branch
_B, _C, _E, _I = (_JOINTS.index(j) for j in "BCEI")


def _finger_lengths(p: FingerParams) -> tuple[float, ...]:
    """p's value of each _LENGTH_KEYS entry, in that order."""
    return (p.L1, p.L2, p.L3, p.CJ, math.hypot(p.L1, p.CJ))


@dataclass(frozen=True)
class LinkageTopology:
    """The finger's linkage, one FingerParams made into a bar-joint graph.

    The finger is checked with check_finger when the topology is made (a
    ValueError lists the violations). Every finger has the ten joints A..J,
    pinned at A = (0, 0) and D = (L1, 0); its 16 bars (joint_a, joint_b,
    rest_length mm) take their lengths from it, and its driver (joint, axis,
    neutral value) pins J's height at its reference value. Two topologies
    with equal fingers are equal, bars included; `tol` and the moving bars'
    lengths are derived on first use and kept.
    """

    finger: FingerParams
    joints: ClassVar[tuple[str, ...]] = _JOINTS

    def __post_init__(self):
        check_finger(self.finger)

    @functools.cached_property
    def bars(self) -> tuple[tuple[str, str, float], ...]:
        lengths = dict(zip(_LENGTH_KEYS, _finger_lengths(self.finger)))
        return tuple((a, b, lengths[key]) for a, b, key in _BARS)

    @functools.cached_property
    def driver(self) -> tuple[str, str, float]:
        return (*_DRIVER, reference_tip_height(self.finger))

    @functools.cached_property
    def _moving_lengths(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(L, L², 2L) of the moving bars, in _MOVING_BARS order (mm)."""
        length = np.array(_finger_lengths(self.finger))[_ROW_KEY]
        return length, length ** 2, 2.0 * length

    @functools.cached_property
    def tol(self) -> float:
        """Accepted residual-stack norm, mm: SOLVER_RTOL × the longest moving bar."""
        return SOLVER_RTOL * float(self._moving_lengths[0].max())


@dataclass(frozen=True)
class LinkageState:
    """A pose, the (10, 2) float array of the joints in LinkageTopology.joints
    order (mm), and the norm of the residual stack solve_position accepts on."""

    coordinates: np.ndarray
    residual_norm: float


class TrajectorySample(NamedTuple):
    driver: float
    tip: tuple[float, float]
    orientation: float          # rad, angle of the C→J segment


def mobility(topology: LinkageTopology) -> int:
    """Grübler DOF count of the planar linkage.

    Bars joining the two pins are frame webs, fused into the ground body;
    every joint contributes (number of incident members − 1) revolute
    joints, the ground counting as one member at each pin.
    """
    moving = [(a, b) for a, b, _ in topology.bars if a not in _PINS or b not in _PINS]
    members = Counter(j for bar in moving for j in bar) + Counter(_PINS)
    return 3 * len(moving) - 2 * (sum(members.values()) - len(members))


# ---------------------------------------------------------------------------
# SPARK preset
# ---------------------------------------------------------------------------

def _cell_line_x(params: FingerParams) -> float:
    # x of the inversor-cell corner I; the tip line sits one base length left
    return (params.L2 * params.L2 - params.L3 * params.L3) / (2.0 * params.L1)


def tip_line_x(params: FingerParams) -> float:
    """x-station of the vertical line the fingertip rides (mm)."""
    return _cell_line_x(params) - params.L1


def _cell_folds(params: FingerParams) -> tuple[float, float]:
    """Closed-form fold heights (far, near) of corner I.

    Below `far` the cascade cannot reach C = I − (L1, 0), as |AC| > 2·L2;
    above `near` the rhombus cannot close, as |AI| < L2 − L3.
    """
    L2, gap = params.L2, params.L2 - params.L3
    x_i = _cell_line_x(params)
    x_c = x_i - params.L1
    # squares as products, here as everywhere: libm's pow(x, 2) is not
    # always correctly rounded, so it would break exact scale covariance
    far = -math.sqrt(4.0 * L2 * L2 - x_c * x_c)
    near = -math.sqrt(gap * gap - x_i * x_i)
    return far, near


def _reference_cell_height(params: FingerParams) -> float:
    """Mid-stroke height of corner I: midpoint of the two closed-form folds."""
    far, near = _cell_folds(params)
    return (near + far) / 2.0


def reference_tip_height(params: FingerParams) -> float:
    """Tip height of the reference assembly (mm); J sits CJ below the C corner."""
    return _reference_cell_height(params) - params.CJ


def _assemble(params: FingerParams, y_cell: np.ndarray) -> np.ndarray:
    """Closed-form assemblies of the preset with corner I at each height of
    the (N,) array y_cell; returns the (10, 2, N) coordinates, joint-major in
    LinkageTopology.joints order, so X[j, axis] is one contiguous row.

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
    d_f = (L2 * L2 - L3 * L3) / d_i
    cross_sq = L3 * L3 - (0.5 * (d_f - d_i)) ** 2
    for gap, what in ((disc, "cascade cannot reach"), (cross_sq, "rhombus cannot close at")):
        if not gap.min() >= 0.0:            # one reduction; NaN fails it too
            k = int(np.flatnonzero(~(gap >= 0.0))[0])
            raise ValueError(f"sample {k}: {what} height {float(y[k])!r}")
    t = np.sqrt(disc)
    q_norm = np.sqrt(q_sq)
    ux = 0.5 * qx + t * (-qy / q_norm)
    uy = 0.5 * qy + t * (qx / q_norm)
    rx, ry = x_i / d_i, y / d_i
    mid = 0.5 * (d_f + d_i)
    cross = np.sqrt(cross_sq)
    mid_rx, cross_ry, mid_ry, cross_rx = mid * rx, cross * ry, mid * ry, cross * rx
    X = np.zeros((len(_JOINTS), 2, y.size))
    X[1, 0], X[1, 1] = bx, by = L2 * ux, L2 * uy                # B
    X[2, 0], X[2, 1] = x_c, y                                   # C
    X[3, 0] = L1                                                # D
    X[4, 0], X[4, 1] = L1 + bx, by                              # E = D + (B − A)
    X[5, 0], X[5, 1] = d_f * rx, d_f * ry                       # F
    X[6, 0], X[6, 1] = mid_rx - cross_ry, mid_ry + cross_rx     # G
    X[7, 0], X[7, 1] = mid_rx + cross_ry, mid_ry - cross_rx     # H
    X[8, 0], X[8, 1] = x_i, y                                   # I
    X[9, 0], X[9, 1] = x_c, y - params.CJ                       # J, CJ below C
    return X


def spark_preset(params: FingerParams = FingerParams()) -> LinkageTopology:
    """The finger linkage topology (ten joints A..J, mobility 1) of params.

    Raises ValueError when the parameters fail validate_kempe_constraints.
    """
    return LinkageTopology(params)


def reference_state(topology: LinkageTopology) -> LinkageState:
    """The finger preset's reference pose, corner I midway between its folds,
    as a LinkageState of _assemble's array, assembled on demand."""
    params = topology.finger
    X = _assemble(params, np.array([_reference_cell_height(params)]))[..., 0].copy()
    return LinkageState(X, float(_norm(_residual(topology, X, topology.driver[2]))))


# ---------------------------------------------------------------------------
# Position solver
# ---------------------------------------------------------------------------

def _residual(topology: LinkageTopology, X: np.ndarray, drivers) -> np.ndarray:
    """One row per moving bar, (|ab|² − L²)/(2L), then the driver row.

    X is one (joints, 2) pose or a (joints, 2, N) joint-major sweep in
    joints order that holds A and D at their pins, as every pose _assemble
    and solve_position build does; the bar ends are gathered along axis 0,
    and the result is the (16,) or (N, 16) residual stack.
    """
    _, length_sq, twice_length = topology._moving_lengths
    d = X.take(_ROW_A, axis=0) - X.take(_ROW_B, axis=0)
    dx, dy = d[:, 0], d[:, 1]
    r = np.empty(X.shape[2:] + (len(_ROW_A) + 1,))
    r[..., :-1] = ((dx * dx + dy * dy).T - length_sq) / twice_length
    r[..., -1] = X[_DRIVER_COL, _DRIVER_AXIS] - drivers
    return r


def _jacobian(topology: LinkageTopology, X: np.ndarray) -> np.ndarray:
    """Jacobian of _residual at one (joints, 2) pose over the free joints'
    coordinates, flattened in X's order."""
    rows = np.arange(len(_ROW_A))
    d = (X[_ROW_A] - X[_ROW_B]) / topology._moving_lengths[0][:, None]
    J = np.zeros((len(rows) + 1,) + X.shape)
    J[rows, _ROW_A] = d
    J[rows, _ROW_B] = -d
    J[-1, _DRIVER_COL, _DRIVER_AXIS] = 1.0
    return J[:, _FREE_COLS].reshape(len(J), -1)


def _norm(r: np.ndarray):
    """Euclidean norm of residual stacks over their last axis."""
    return np.sqrt(np.einsum("...k,...k->...", r, r))


def _check_branch(topology: LinkageTopology, X: np.ndarray, driver_value: float):
    """Refuse a solved pose X on the anti-parallelogram branch of B-C-I-E.

    That branch meets the parallelogram branch at the change point where B,
    C, I and E are collinear (Hunt, Kinematic Geometry of Mechanisms, 1978),
    68.9% of the way up every accepted finger's stroke; on it C − I tilts,
    so the tip leaves its line while every bar fits. Near the change point
    the Jacobian is ill-conditioned, so the bound on |(C − B) − (I − E)| is
    BRANCH_RTOL·L1, not the residual tolerance.
    """
    gap = float(np.abs((X[_C] - X[_B]) - (X[_I] - X[_E])).max())
    if gap > BRANCH_RTOL * topology.finger.L1:
        raise NonConvergenceError(f"anti-parallelogram branch at driver={driver_value}: "
                                  f"(C - B) - (I - E) is {gap:.3e} mm")


def solve_position(topology: LinkageTopology, driver_value: float,
                   initial_guess: LinkageState) -> LinkageState:
    """Newton-Raphson position solve with the driver pinned at driver_value.

    A driver_value that is not finite is a ValueError, and one beyond the
    bars' reach (|driver_value| above the sum of the moving bar lengths) a
    NonConvergenceError, both before any residual is formed. Iterates on a
    copy of the guess's array (a ValueError unless it is a finite (10, 2)
    one) with A and D re-pinned, in steps damped by up to 20 halvings when
    the residual would grow, and returns it once the residual norm is at
    most topology.tol, on the branch continuously connected to the guess.
    Raises NonConvergenceError at fold points (singular Jacobian), on a
    stall, after MAX_ITERATIONS and on the anti-parallelogram branch.
    """
    if not math.isfinite(driver_value):
        raise ValueError(f"driver_value must be finite (got {driver_value!r})")
    reach = float(topology._moving_lengths[0].sum())
    if abs(driver_value) > reach:
        raise NonConvergenceError(
            f"driver={driver_value} is beyond the bars' reach: |driver| > {reach!r} mm, "
            f"the sum of the moving bar lengths")
    X = np.array(initial_guess.coordinates, dtype=float)
    if X.shape != (len(_JOINTS), 2):
        raise ValueError(f"initial guess must be a (10, 2) array (got shape {X.shape})")
    if not np.isfinite(X).all():
        k = int(np.argwhere(~np.isfinite(X))[0, 0])
        raise ValueError(f"initial guess joint {_JOINTS[k]} is not finite: {X[k].tolist()}")
    X[[0, 3]] = (0.0, 0.0), (topology.finger.L1, 0.0)     # A and D at their pins
    r = _residual(topology, X, driver_value)
    norm = float(_norm(r))
    for _ in range(MAX_ITERATIONS):
        if norm <= topology.tol:
            _check_branch(topology, X, driver_value)
            return LinkageState(X, norm)
        try:
            step = np.linalg.solve(_jacobian(topology, X), -r).reshape(-1, 2)
        except np.linalg.LinAlgError:
            raise NonConvergenceError(
                f"singular constraint Jacobian at driver={driver_value}") from None
        scale = 1.0
        for _ in range(MAX_STEP_HALVINGS):
            X_new = X.copy()
            X_new[_FREE_COLS] += scale * step
            r_new = _residual(topology, X_new, driver_value)
            norm_new = float(_norm(r_new))
            if norm_new < norm:
                X, r, norm = X_new, r_new, norm_new
                break
            scale *= 0.5
        else:
            raise NonConvergenceError(
                f"no progress at driver={driver_value}; residual {norm:.3e}")
    raise NonConvergenceError(f"no convergence after {MAX_ITERATIONS} iterations at "
                              f"driver={driver_value}; residual {norm:.3e}")


def discover_stroke(topology: LinkageTopology) -> tuple[float, float]:
    """Usable driver range (lo, hi) of the finger preset, in closed form.

    The two folds of corner I (see _cell_folds), shifted down by CJ to the
    tip and each pulled in by STROKE_MARGIN·L1, so the stroke keeps the same
    share of clearance from the folds at every scale.
    """
    params = topology.finger
    far, near = _cell_folds(params)
    margin = STROKE_MARGIN * params.L1
    return far - params.CJ + margin, near - params.CJ - margin


def _drivers(lo: float, hi: float, n: int) -> np.ndarray:
    """np.linspace(lo, hi, n) for float endpoints and n >= 2, by its own
    arithmetic without its dispatch: k·step + lo, or k/(n − 1)·(hi − lo) + lo
    when the step underflows to zero, with the last driver set to hi."""
    delta = hi - lo
    step = delta / (n - 1)
    k = np.arange(n, dtype=float)
    drivers = k * step if step != 0.0 else k / (n - 1) * delta
    drivers += lo
    drivers[-1] = hi
    return drivers


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
                         n_samples: int = DEFAULT_SAMPLES) -> Trajectory:
    """Sweep the driver over `stroke`: columns of driver, tip J and CJ angle.

    Every sample is assembled in closed form at once from the topology's
    finger, as one joint-major (10, 2, N) array, and checked in one pass
    against the residual stack solve_position accepts on (the bars plus the
    driver row), with the same predicate: norm at most the topology's
    tolerance. The drivers are np.linspace(lo, hi, n_samples) bit for bit,
    and the columns read J's and C's rows. `stroke` defaults to
    discover_stroke; n_samples follows check_sample_count. A driver outside
    the folds, or a sample above the tolerance, raises NonConvergenceError
    naming the sample.
    """
    check_sample_count(n_samples)
    params = topology.finger
    if stroke is None:
        stroke = discover_stroke(topology)
    far, near = _cell_folds(params)
    lo, hi = map(float, stroke)
    drivers = _drivers(lo, hi, n_samples)
    y_cell = drivers + params.CJ
    if not (far < y_cell.min() and y_cell.max() < near):   # NaN fails it too
        k = int(np.flatnonzero(~((far < y_cell) & (y_cell < near)))[0])
        raise NonConvergenceError(
            f"sample {k} (driver={float(drivers[k])}): outside the folds "
            f"({far - params.CJ!r}, {near - params.CJ!r})")
    try:
        X = _assemble(params, y_cell)
    except ValueError as exc:
        raise NonConvergenceError(str(exc)) from exc
    norms = _norm(_residual(topology, X, drivers))
    worst = float(norms.max())
    if not worst <= topology.tol:
        k = int(np.flatnonzero(~(norms <= topology.tol))[0])
        raise NonConvergenceError(
            f"sample {k} (driver={float(drivers[k])}): residual "
            f"{float(norms[k]):.3e} mm above the tolerance {topology.tol:.3e} mm")
    J = X[9]
    seg = J - X[2]                          # C→J
    return Trajectory(drivers.tolist(), J[0].tolist(), J[1].tolist(),
                      np.arctan2(seg[1], seg[0]).tolist(),
                      max_residual_mm=worst)


def straightness_metric(trajectory: Trajectory) -> tuple[float, float]:
    """(max, rms) horizontal deviation from the vertical line through sample 0."""
    xs = np.array(trajectory.tip_x)
    if xs.size == 0:
        raise ValueError("empty trajectory")
    dev = xs - xs[0]
    return float(np.abs(dev).max()), float(np.sqrt(np.mean(dev ** 2)))
