"""Quasi-static grasp-force models for the two finger modes.

Pinch mode: a single moment balance around the drive pivot gives the distal
normal force. Scoop mode: the actuator torque and the limiting-spring moment
balance the contact forces on phalanges 2 and 3 through a 2×2 virtual-work
system; both the closed forms and a direct linear solve of that system are
provided, and an independent numeric virtual-work oracle checks any force
pair against the contact-point maps.

Angle convention in this module: each phalanx angle is measured from the
vertical, the phalanx direction is u(θ) = (sin θ, cos θ) and the contact
normal (force direction) is (cos θ, −sin θ). Distances d_i locate the
contact point along phalanx i from its proximal joint. Units: N, mm, rad,
stiffness N·mm/rad.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "ContactGeometry",
    "ActuationInput",
    "ForceResult",
    "SweepRow",
    "pinch_force",
    "scoop_forces",
    "scoop_forces_via_system",
    "virtual_work_check",
    "force_sweep",
    "SWEPT_ANGLE",
]

DEGENERATE_LEVER = 1e-9     # mm; smaller pinch lever arms are an error
VW_DELTA = 1e-7             # rad; virtual-rotation magnitude for the oracle


@dataclass(frozen=True)
class ContactGeometry:
    """Contact distances (mm) and angles from vertical (rad) of phalanges
    2 and 3, the two that touch the object in pinch and scoop."""
    d2: float
    d3: float
    theta2: float
    theta3: float


@dataclass(frozen=True)
class ActuationInput:
    """Actuator torque T (N·mm) on the drive rod and limiting-spring
    torsional stiffness k (N·mm/rad)."""
    T: float
    k: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.T):
            raise ValueError("T must be finite")
        if not 0.0 <= self.k < math.inf:
            raise ValueError(f"k must be finite and >= 0 (got {self.k!r})")


@dataclass(frozen=True)
class ForceResult:
    """Normal forces on phalanges 2 and 3 (N; positive pushes into the
    object)."""
    F2: float
    F3: float


def _force_vector(F: float, theta: float) -> tuple[float, float]:
    return (F * math.cos(theta), -F * math.sin(theta))


def pinch_force(T: float, geom: ContactGeometry, L2: float) -> float:
    """Distal normal force in pinch mode: F3 = T / (d3 + L2·cos θ2).

    Raises ValueError when the lever arm d3 + L2·cos θ2 degenerates or is
    not finite.
    """
    lever = geom.d3 + L2 * math.cos(geom.theta2)
    if not DEGENERATE_LEVER < lever < math.inf:
        raise ValueError(
            f"degenerate pinch lever arm {lever:.3g} mm (d3 + L2 cos theta2)")
    return T / lever


def _check_contacts(geom: ContactGeometry):
    if not (0.0 < geom.d2 < math.inf and 0.0 < geom.d3 < math.inf):
        raise ValueError("contact distances d2, d3 must be > 0")


def scoop_forces(act: ActuationInput, geom: ContactGeometry, L2: float) -> ForceResult:
    """Closed-form scoop forces:
    F2 = T/d2 + k·θ3·L2·cos(θ2−θ3)/(d2·d3),  F3 = −k·θ3/d3.
    """
    _check_contacts(geom)
    coupling = L2 * math.cos(geom.theta2 - geom.theta3)
    F3 = -act.k * geom.theta3 / geom.d3
    F2 = act.T / geom.d2 + act.k * geom.theta3 * coupling / (geom.d2 * geom.d3)
    return ForceResult(F2=F2, F3=F3)


def scoop_forces_via_system(act: ActuationInput, geom: ContactGeometry,
                            L2: float) -> ForceResult:
    """Scoop forces from the 2×2 moment-balance system, no closed form.

    Solves [T, −k·θ3] = [F2, F3] · J with
    J = [[d2, 0], [L2·cos(θ2−θ3), d3]]; the primary cross-check for
    scoop_forces. Raises ValueError when the system is singular.
    """
    _check_contacts(geom)
    J = np.array([
        [geom.d2, 0.0],
        [L2 * math.cos(geom.theta2 - geom.theta3), geom.d3],
    ])
    rhs = np.array([act.T, -act.k * geom.theta3])
    try:
        F2, F3 = np.linalg.solve(J.T, rhs)
    except np.linalg.LinAlgError:
        raise ValueError("singular scoop force system (d2·d3 = 0?)") from None
    return ForceResult(F2=float(F2), F3=float(F3))


# ---------------------------------------------------------------------------
# Virtual-work oracle
# ---------------------------------------------------------------------------

def _contact_points(geom: ContactGeometry, L2: float, theta2, theta3):
    """Contact maps of phalanges 2 and 3 at the given angles.

    G2 sits d2 along phalanx 2 from its pivot; G3 sits d3 along phalanx 3,
    whose pivot rides the end of phalanx 2. Accepts complex angles so the
    maps can be perturbed off the real axis.
    """
    u2 = np.array([cmath.sin(theta2), cmath.cos(theta2)])
    u3 = np.array([cmath.sin(theta3), cmath.cos(theta3)])
    G2 = geom.d2 * u2
    G3 = L2 * u2 + geom.d3 * u3
    return G2, G3


def virtual_work_check(act: ActuationInput, geom: ContactGeometry, L2: float,
                       forces: ForceResult) -> float:
    """Moment imbalance (N·mm per rad of virtual rotation) of a force pair.

    For each basis virtual rotation (δθ2, then δθ3, magnitude 1e-7 rad) the
    input work T·δθ2 − k·θ3·δθ3 is compared against the contact-force work
    F⃗2·δG2 + F⃗3·δG3, with δG obtained by perturbing the contact maps. The
    perturbation is taken as a complex step, which differentiates the maps
    without subtractive cancellation, and the imbalance is normalized per
    radian: correct force pairs score ~1e-13 while a corrupted force stands
    out at the full size of its moment error.
    """
    f2 = np.array(_force_vector(forces.F2, geom.theta2))
    f3 = np.array(_force_vector(forces.F3, geom.theta3))
    worst = 0.0
    for dq2, dq3 in ((1.0, 0.0), (0.0, 1.0)):
        G2, G3 = _contact_points(geom, L2,
                                 geom.theta2 + 1j * VW_DELTA * dq2,
                                 geom.theta3 + 1j * VW_DELTA * dq3)
        dG2 = np.imag(G2) / VW_DELTA
        dG3 = np.imag(G3) / VW_DELTA
        work_in = act.T * dq2 - act.k * geom.theta3 * dq3
        work_out = float(f2 @ dG2 + f3 @ dG3)
        worst = max(worst, abs(work_in - work_out))
    return worst


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

# the angle each mode's sweep varies: the proximal flexion for pinch, the
# distal deflection for scoop
SWEPT_ANGLE = {"pinch": "theta2", "scoop": "theta3"}


@dataclass(frozen=True)
class SweepRow:
    value: float
    F2: float | None
    F3: float | None
    status: str


def force_sweep(mode: str, act: ActuationInput, geom: ContactGeometry,
                L2: float, angles) -> list[SweepRow]:
    """Tabulate forces over a sweep of the mode's angle (SWEPT_ANGLE), rad.

    mode 'pinch' sweeps theta2 and evaluates the distal force only (F2
    empty); mode 'scoop' sweeps theta3 and evaluates the closed-form pair.
    Rows that fail (degenerate geometry, or a force that is not finite)
    carry no forces and the error text in `status` instead of raising.
    """
    if mode not in SWEPT_ANGLE:
        raise ValueError(f"unknown mode {mode!r}")
    angles = list(angles)
    if not angles:
        raise ValueError("empty sweep range")
    rows = []
    for v in map(float, angles):
        g = replace(geom, **{SWEPT_ANGLE[mode]: v})
        try:
            if mode == "pinch":
                F2, F3 = None, pinch_force(act.T, g, L2)
            else:
                fr = scoop_forces(act, g, L2)
                F2, F3 = fr.F2, fr.F3
            bad = [f"{name} = {F!r}" for name, F in (("F2", F2), ("F3", F3))
                   if F is not None and not math.isfinite(F)]
            if bad:
                raise ValueError("non-finite force " + ", ".join(bad))
            rows.append(SweepRow(v, F2, F3, "ok"))
        except ValueError as exc:
            rows.append(SweepRow(v, None, None, str(exc)))
    return rows
