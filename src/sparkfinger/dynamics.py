"""Lagrangian dynamics of the three-link chain.

Closed-form mass matrix, Christoffel Coriolis matrix and gravity vector for
the planar 3R chain with per-link mass, COM offset and rotational inertia.
Kinetic energy is computed independently from the planar COM velocities
Σ rₖ ωₖ (−sin φₖ, cos φₖ) (velocity route) so the two formulations
cross-check each other; the rotational inertia term is included — without
it the identity K = ½ q̇ᵀ M q̇ cannot hold for rigid links.

dynamics_terms and inverse_dynamics build M, C and G as numpy arrays in
joint angles and are the reference: M is affine in cos q2, cos q3 and
cos(q2+q3) with the four constant 3×3 arrays of _mass_table, ∂M/∂q comes
from the same table, and C from the Christoffel symbols of ∂M. simulate_free
integrates with classical RK4 whose stages evaluate q̈ in plain floats in
absolute link angles instead (_acceleration_kernel): a mass matrix with a
constant diagonal, one sine coefficient per squared link rate (never through
∂M), gravity per link, a 3×3 LDLᵀ solve for the link accelerations and q̈ by
their differences; tests hold the kernel to the reference solve at 1e-12.
Energies are evaluated once on the whole trace, K from the planar COM
velocities, never through M. A run longer than MAX_STEPS steps, or a
duration that is not a whole number of steps, is refused before anything is
allocated, and a non-finite state or energy, or a non-positive LDLᵀ pivot,
stops the run with a RuntimeError naming the step.

Units: mm, kg, rad, s. Energies come out in kg·mm²/s² (1e-6 J); torques in
N·mm when masses are in kg and gravity in mm/s².
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .mechanism import FingerParams, check_finger

__all__ = [
    "DynamicsParams",
    "MAX_STEPS",
    "kinetic_energy",
    "potential_energy",
    "dynamics_terms",
    "inverse_dynamics",
    "step_count",
    "simulate_free",
    "SimulationTrace",
]

# 100× the default 1 s run at dt = 1e-4; about 80 MB of trace.
MAX_STEPS = 1_000_000


@dataclass(frozen=True)
class DynamicsParams:
    """Inertial data per link: lengths (mm), masses (kg), COM offsets (mm),
    rotational inertias about the COM (kg·mm²), gravity (mm/s²)."""

    lengths: tuple[float, float, float] = (80.0, 40.0, 20.0)
    masses: tuple[float, float, float] = (0.030, 0.020, 0.010)
    coms: tuple[float, float, float] = (40.0, 20.0, 10.0)
    inertias: tuple[float, float, float] | None = None
    g: float = 9810.0

    def __post_init__(self):
        for name in ("lengths", "masses", "coms", "inertias"):
            values = getattr(self, name)
            if values is not None and len(values) != 3:
                raise ValueError(f"{name} must be three numbers (got {values})")
        if self.inertias is None:
            # uniform slender rod about its COM
            rod = tuple(m * L * L / 12.0 for m, L in zip(self.masses, self.lengths))
            object.__setattr__(self, "inertias", rod)
        # lengths and masses first: a bad one also spoils the rod inertias
        for name in ("lengths", "masses", "inertias"):
            values = getattr(self, name)
            if not all(0.0 < v < math.inf for v in values):
                raise ValueError(f"{name} must be finite and > 0 (got {values})")
        for lc, L in zip(self.coms, self.lengths):
            if not 0.0 <= lc <= L:
                raise ValueError(f"coms: offset {lc} outside [0, {L}]")
        if not math.isfinite(self.g):
            raise ValueError(f"g must be finite (got {self.g})")

    @classmethod
    def from_finger(cls, params: FingerParams) -> "DynamicsParams":
        """The finger's link data; raises ValueError when the finger fails
        validate_kempe_constraints."""
        check_finger(params)
        return cls(lengths=params.lengths,
                   masses=(params.m1, params.m2, params.m3),
                   coms=params.coms,
                   g=params.g)


def _vec3(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


def _state(name: str, x) -> np.ndarray:
    """x as a (3,) float array; a ValueError naming `name` unless it is three
    finite numbers."""
    v = _vec3(x)
    if v.shape != (3,) or not np.isfinite(v).all():
        raise ValueError(f"{name} must be three finite numbers (got {v.tolist()})")
    return v


def kinetic_energy(params: DynamicsParams, q, qdot):
    """½ Σ mᵢ vᵢᵀvᵢ + ½ Σ Iᵢ ωᵢ², never through M.

    vᵢ is the planar sum Σ rₖ ωₖ (−sin φₖ, cos φₖ) over the links up to
    link i, with φₖ and ωₖ the absolute angle and rate of link k and rₖ its
    length (k < i) or COM offset (k = i). A float for one state; an array
    over the leading axes of (..., 3) inputs.
    """
    qa, qd = _vec3(q), _vec3(qdot)
    phi = w = jx = jy = 0.0     # absolute angle and rate; base-joint velocity
    moving, spinning = [], []
    for i, (L, m, lc, I) in enumerate(zip(params.lengths, params.masses,
                                          params.coms, params.inertias)):
        phi = phi + qa[..., i]
        w = w + qd[..., i]
        x, y = -w * np.sin(phi), w * np.cos(phi)
        vx, vy = jx + lc * x, jy + lc * y
        moving.append(m * (vx * vx + vy * vy))
        spinning.append(I * (w * w))
        jx, jy = jx + L * x, jy + L * y
    K = 0.5 * sum(moving + spinning)
    return K if np.ndim(K) else float(K)


def potential_energy(params: DynamicsParams, q):
    """Σ mᵢ g · (height of COMᵢ), the three-term sine sum.

    A float for one state; an array over the leading axes of (..., 3) inputs.
    """
    qa = _vec3(q)
    L1, L2, _ = params.lengths
    m1, m2, m3 = params.masses
    lc1, lc2, lc3 = params.coms
    s1 = np.sin(qa[..., 0])
    s12 = np.sin(qa[..., 0] + qa[..., 1])
    s123 = np.sin(qa[..., 0] + qa[..., 1] + qa[..., 2])
    P = params.g * (m1 * lc1 * s1
                    + m2 * (L1 * s1 + lc2 * s12)
                    + m3 * (L1 * s1 + L2 * s12 + lc3 * s123))
    return P if np.ndim(P) else float(P)


# ---------------------------------------------------------------------------
# Closed-form M, C, G
# ---------------------------------------------------------------------------

def _coefficients(params: DynamicsParams):
    L1, L2, _ = params.lengths
    m1, m2, m3 = params.masses
    lc1, lc2, lc3 = params.coms
    I1, I2, I3 = params.inertias
    a1 = I1 + m1 * lc1 * lc1 + (m2 + m3) * L1 * L1
    a2 = I2 + m2 * lc2 * lc2 + m3 * L2 * L2
    a3 = I3 + m3 * lc3 * lc3
    p12 = (m2 * lc2 + m3 * L2) * L1     # multiplies cos q2
    p23 = m3 * lc3 * L2                 # multiplies cos q3
    p13 = m3 * lc3 * L1                 # multiplies cos (q2+q3)
    return a1, a2, a3, p12, p23, p13


def _gravity_constants(params: DynamicsParams):
    """Σ m·(COM radius) of the links beyond each joint, per cosine term."""
    L1, L2, _ = params.lengths
    m1, m2, m3 = params.masses
    lc1, lc2, lc3 = params.coms
    return m1 * lc1 + (m2 + m3) * L1, m2 * lc2 + m3 * L2, m3 * lc3


def _mass_table(params: DynamicsParams):
    """(M0, M2, M3, M23): M = M0 + M2 cos q2 + M3 cos q3 + M23 cos(q2+q3)."""
    a1, a2, a3, p12, p23, p13 = _coefficients(params)
    M0 = np.array([[a1 + a2 + a3, a2 + a3, a3],
                   [a2 + a3, a2 + a3, a3],
                   [a3, a3, a3]])
    M2 = p12 * np.array([[2.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    M3 = p23 * np.array([[2.0, 2.0, 1.0], [2.0, 2.0, 1.0], [1.0, 1.0, 0.0]])
    M23 = p13 * np.array([[2.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    return M0, M2, M3, M23


def _gravity(params: DynamicsParams, qa) -> np.ndarray:
    g1, g2, g3 = _gravity_constants(params)
    c1 = math.cos(qa[0])
    c12 = math.cos(qa[0] + qa[1])
    c123 = math.cos(qa[0] + qa[1] + qa[2])
    return params.g * np.array([
        g1 * c1 + g2 * c12 + g3 * c123,
        g2 * c12 + g3 * c123,
        g3 * c123,
    ])


def dynamics_terms(params: DynamicsParams, q, qdot):
    """(M, C, G) of M q̈ + C q̇ + G = τ.

    M = M0 + M2 cos q2 + M3 cos q3 + M23 cos(q2+q3) and ∂M from _mass_table;
    C is assembled from the Christoffel symbols of ∂M (which makes Ṁ − 2C
    skew by construction); G is ∂P/∂q. A q or qdot that is not three finite
    numbers is a ValueError naming it.
    """
    qa, qd = _state("q", q), _state("qdot", qdot)
    M0, M2, M3, M23 = _mass_table(params)
    q2, q3 = qa[1], qa[2]
    M = M0 + M2 * math.cos(q2) + M3 * math.cos(q3) + M23 * math.cos(q2 + q3)
    dM = np.zeros((3, 3, 3))                # slot k holds ∂M/∂q_k
    S23 = M23 * math.sin(q2 + q3)
    dM[1] = -(M2 * math.sin(q2) + S23)
    dM[2] = -(M3 * math.sin(q3) + S23)
    # C[i,j] = Σ_k ½ (dM[k][i,j] + dM[j][i,k] − dM[i][j,k]) q̇_k
    Mdot = np.tensordot(qd, dM, axes=(0, 0))
    D = dM @ qd
    C = 0.5 * (Mdot + D.T - D)
    G = _gravity(params, qa)
    return M, C, G


def inverse_dynamics(params: DynamicsParams, q, qdot, qddot) -> np.ndarray:
    """Joint torques τ = M q̈ + C q̇ + G (N·mm); q, qdot and qddot are
    checked as dynamics_terms checks q and qdot."""
    M, C, G = dynamics_terms(params, q, qdot)
    return M @ _state("qddot", qddot) + C @ _vec3(qdot) + G


# ---------------------------------------------------------------------------
# Verification integrator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimulationTrace:
    """Columns: t, q1..q3, dq1..dq3, K, P, E."""

    t: np.ndarray
    q: np.ndarray
    qdot: np.ndarray
    kinetic: np.ndarray
    potential: np.ndarray
    energy: np.ndarray

    def max_relative_energy_drift(self) -> float:
        """Worst |E(t) − E(0)| / |E(0)|; absolute drift if E(0) is zero."""
        e0 = float(self.energy[0])
        drift = float(np.max(np.abs(self.energy - e0)))
        return drift / abs(e0) if e0 != 0.0 else drift


def _acceleration_kernel(params: DynamicsParams):
    """q̈(q1, q2, q3, q̇1, q̇2, q̇3) of the unforced chain, in plain floats.

    Solves the chain in absolute link angles φ1 = q1, φ2 = q1 + q2,
    φ3 = q1 + q2 + q3 with rates ω1 = q̇1, ω2 = ω1 + q̇2, ω3 = ω2 + q̇3.
    There the mass matrix has a constant diagonal and each velocity term is
    one sine coefficient times a squared rate. With t2 = p12 sin q2,
    t3 = p23 sin q3 and t23 = p13 sin(q2+q3):

        A ω̇ = b,  A = [[a1, p12 cos q2, p13 cos(q2+q3)],
                       [ ·, a2,         p23 cos q3    ],
                       [ ·, ·,          a3            ]]
        b1 =  t2 ω2² + t23 ω3² − g·g1 cos φ1
        b2 =  t3 ω3² − t2 ω1² − g·g2 cos φ2
        b3 = −(t23 ω1² + t3 ω2²) − g·g3 cos φ3

    solved with a 3×3 LDLᵀ of A (pivot 1 is a1), and q̈ is taken by
    differences: (ω̇1, ω̇2 − ω̇1, ω̇3 − ω̇2). Raises FloatingPointError when
    a pivot is not positive or q̈ is not finite, and lets math.cos raise
    ValueError on an infinite angle.
    """
    a1, a2, a3, p12, p23, p13 = _coefficients(params)
    g1, g2, g3 = (params.g * k for k in _gravity_constants(params))
    cos, sin, isfinite = math.cos, math.sin, math.isfinite

    def qddot(q1, q2, q3, v1, v2, v3):
        q12 = q1 + q2
        q23 = q2 + q3
        t2 = p12 * sin(q2)
        t3 = p23 * sin(q3)
        t23 = p13 * sin(q23)
        w2 = v1 + v2
        w3 = w2 + v3
        # Every product starts from its sine coefficient, so a zero
        # coefficient keeps a huge rate from turning 0·inf into NaN.
        b1 = t2 * w2 * w2 + t23 * w3 * w3 - g1 * cos(q1)
        b2 = t3 * w3 * w3 - t2 * v1 * v1 - g2 * cos(q12)
        b3 = -(t23 * v1 * v1 + t3 * w2 * w2) - g3 * cos(q12 + q3)
        # A = L D Lᵀ, L unit lower triangular
        if not a1 > 0.0:
            raise FloatingPointError("mass-matrix pivot 1 is not positive")
        A12 = p12 * cos(q2)
        A13 = p13 * cos(q23)
        l21 = A12 / a1
        l31 = A13 / a1
        d2 = a2 - l21 * A12
        if not d2 > 0.0:
            raise FloatingPointError("mass-matrix pivot 2 is not positive")
        l32 = (p23 * cos(q3) - l31 * A12) / d2
        d3 = a3 - l31 * A13 - l32 * l32 * d2
        if not d3 > 0.0:
            raise FloatingPointError("mass-matrix pivot 3 is not positive")
        y2 = b2 - l21 * b1
        x3 = (b3 - l31 * b1 - l32 * y2) / d3
        x2 = y2 / d2 - l32 * x3
        x1 = b1 / a1 - l21 * x2 - l31 * x3
        x2, x3 = x2 - x1, x3 - x2           # ω̇ to q̈
        if not (isfinite(x1) and isfinite(x2) and isfinite(x3)):
            raise FloatingPointError("the joint acceleration is not finite")
        return x1, x2, x3

    return qddot


def step_count(duration: float, dt: float) -> int:
    """Number of fixed steps of `dt` in `duration`.

    ValueError unless dt > 0, duration >= dt, the count is at most
    MAX_STEPS and duration/dt is a whole number n to within 1e-9·n, which
    forgives the rounding of a quotient such as 0.3/0.1.
    """
    if not dt > 0:
        raise ValueError("dt must be > 0")
    if not duration >= dt:
        raise ValueError("duration must be >= dt")
    steps = duration / dt
    if not steps < MAX_STEPS + 0.5:
        raise ValueError(f"duration/dt = {steps:.6g} steps exceeds "
                         f"MAX_STEPS = {MAX_STEPS}")
    n = round(steps)
    if not abs(steps - n) <= 1e-9 * n:
        raise ValueError(f"duration {duration!r} is not a whole number of "
                         f"dt = {dt!r} steps (duration/dt = {steps!r})")
    return n


def simulate_free(params: DynamicsParams, q0, qdot0, duration: float,
                  dt: float) -> SimulationTrace:
    """Integrate unforced motion (τ = 0) with classical fixed-step RK4.

    Records kinetic, potential and total energy at every step; energy drift
    is the standard conservation check on the M/C/G implementation. Raises
    ValueError for a non-finite initial state or a step count outside
    step_count's rule, and RuntimeError naming the step when a stage or an
    energy is not finite or a mass-matrix pivot is not positive.
    """
    n = step_count(duration, dt)
    qa, qd = _vec3(q0), _vec3(qdot0)
    if (qa.shape != (3,) or qd.shape != (3,)
            or not (np.isfinite(qa).all() and np.isfinite(qd).all())):
        raise ValueError("q0 and qdot0 must be three finite numbers each")
    q1, q2, q3 = qa.tolist()
    v1, v2, v3 = qd.tolist()
    qddot = _acceleration_kernel(params)
    h2, h6 = 0.5 * dt, dt / 6.0
    states = array("d", (q1, q2, q3, v1, v2, v3))
    for i in range(1, n + 1):
        try:
            # stage rates: k1 = (v, a), k2 = (u, b), k3 = (w, c), k4 = (x, d)
            a1, a2, a3 = qddot(q1, q2, q3, v1, v2, v3)
            u1, u2, u3 = v1 + h2 * a1, v2 + h2 * a2, v3 + h2 * a3
            b1, b2, b3 = qddot(q1 + h2 * v1, q2 + h2 * v2, q3 + h2 * v3,
                               u1, u2, u3)
            w1, w2, w3 = v1 + h2 * b1, v2 + h2 * b2, v3 + h2 * b3
            c1, c2, c3 = qddot(q1 + h2 * u1, q2 + h2 * u2, q3 + h2 * u3,
                               w1, w2, w3)
            x1, x2, x3 = v1 + dt * c1, v2 + dt * c2, v3 + dt * c3
            d1, d2, d3 = qddot(q1 + dt * w1, q2 + dt * w2, q3 + dt * w3,
                               x1, x2, x3)
        except ValueError:                   # math.cos of an infinite angle
            raise RuntimeError(f"integration failed at step {i} of {n}: "
                               "a joint angle is not finite") from None
        except FloatingPointError as exc:
            raise RuntimeError(
                f"integration failed at step {i} of {n}: {exc}") from None
        q1 = q1 + h6 * (v1 + 2.0 * u1 + 2.0 * w1 + x1)
        q2 = q2 + h6 * (v2 + 2.0 * u2 + 2.0 * w2 + x2)
        q3 = q3 + h6 * (v3 + 2.0 * u3 + 2.0 * w3 + x3)
        v1 = v1 + h6 * (a1 + 2.0 * b1 + 2.0 * c1 + d1)
        v2 = v2 + h6 * (a2 + 2.0 * b2 + 2.0 * c2 + d2)
        v3 = v3 + h6 * (a3 + 2.0 * b3 + 2.0 * c3 + d3)
        states.extend((q1, q2, q3, v1, v2, v3))

    rows = np.frombuffer(states).reshape(n + 1, 6)
    q, qdot = rows[:, :3], rows[:, 3:]
    # an overflow in the last step or in the energies is reported below
    with np.errstate(over="ignore", invalid="ignore"):
        kinetic = kinetic_energy(params, q, qdot)
        potential = potential_energy(params, q)
        energy = kinetic + potential
    bad = np.flatnonzero(~np.isfinite(energy))
    if bad.size:
        raise RuntimeError(f"integration failed at step {bad[0]} of {n}: "
                           "the energy is not finite")
    return SimulationTrace(t=np.arange(n + 1) * dt, q=q, qdot=qdot,
                           kinetic=kinetic, potential=potential,
                           energy=energy)
