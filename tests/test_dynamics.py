"""Tests for the rigid-body terms and the energy-checked integrator.

The dynamics terms are closed-form; every test here checks them against an
independent route (energy identity, finite differences, conservation) rather
than against re-derived copies of the same formulas.
"""
import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparkfinger.dynamics import (
    MAX_STEPS,
    DynamicsParams,
    _acceleration_kernel,
    dynamics_terms,
    inverse_dynamics,
    kinetic_energy,
    potential_energy,
    simulate_free,
    step_count,
)
from sparkfinger.kinematics import reference_angles
from sparkfinger.mechanism import FingerParams

RNG = np.random.default_rng(2024)


def random_state():
    return (RNG.uniform(-math.pi, math.pi, 3), RNG.uniform(-3.0, 3.0, 3))


def mdot_finite_difference(params, q, qd, h=1e-4):
    """Fourth-order central stencil for dM/dt along the direction qd."""
    def m(s):
        return dynamics_terms(params, q + s * qd, qd)[0]
    return (-m(2 * h) + 8 * m(h) - 8 * m(-h) + m(-2 * h)) / (12 * h)


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

def test_default_inertias_are_slender_rods():
    p = DynamicsParams()
    for m, L, I in zip(p.masses, p.lengths, p.inertias):
        assert I == m * L * L / 12.0


def test_from_finger_copies_geometry():
    p = DynamicsParams.from_finger(FingerParams())
    assert p.lengths == (80.0, 40.0, 20.0)
    assert p.g == 9810.0


def test_from_finger_refuses_an_invalid_finger():
    with pytest.raises(ValueError,
                       match=r"^invalid linkage parameters: L2:L3 != 2:1 .*L1:L3 != 4:1"):
        DynamicsParams.from_finger(FingerParams(L3=21.0))


@pytest.mark.parametrize("scale", [0.1, 0.4, 1.0, 10.0])
def test_com_defaults_follow_the_link_lengths(scale):
    finger = FingerParams(L1=80.0 * scale, L2=40.0 * scale, L3=20.0 * scale,
                          CJ=28.8 * scale)
    p = DynamicsParams.from_finger(finger)
    assert p.coms == (40.0 * scale, 20.0 * scale, 10.0 * scale)
    # a resize keeps unset offsets at the midpoints, explicit ones as given
    resized = dataclasses.replace(finger, L1=finger.L1 / 2, lc2=1.5)
    assert resized.coms == (20.0 * scale, 1.5, 10.0 * scale)


@pytest.mark.parametrize("bad", [
    dict(masses=(0.0, 0.02, 0.01)),
    dict(coms=(90.0, 20.0, 10.0)),
    dict(inertias=(1.0, -1.0, 1.0)),
    # these used to pass and stop the integration later with the wrong
    # reason: a pivot, a non-finite acceleration or a non-finite energy
    dict(lengths=(80.0, 40.0, math.inf)),
    dict(lengths=(80.0, math.nan, 20.0)),
    dict(lengths=(0.0, 40.0, 20.0)),
    dict(masses=(math.nan, 0.02, 0.01)),
    dict(masses=(0.03, math.inf, 0.01)),
    dict(coms=(40.0, math.nan, 10.0)),
    dict(inertias=(math.inf, 1.0, 1.0)),
    dict(inertias=(1.0, 1.0, math.nan)),
    dict(g=math.nan),
    dict(g=-math.inf),
])
def test_invalid_parameters_rejected(bad):
    (field,) = bad
    with pytest.raises(ValueError, match=f"^{field}"):
        DynamicsParams(**bad)


@pytest.mark.parametrize("values", [(40.0, 20.0), (40.0, 20.0, 10.0, 5.0)],
                         ids=["two", "four"])
@pytest.mark.parametrize("field", ["lengths", "masses", "coms", "inertias"])
def test_a_field_that_is_not_three_numbers_is_rejected(field, values):
    # these used to pass, and simulate_free failed later on unpacking
    message = f"{field} must be three numbers (got {values})"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        DynamicsParams(**{field: values})


# ---------------------------------------------------------------------------
# Structure of M, C, G
# ---------------------------------------------------------------------------

def test_mass_matrix_symmetric_positive_definite():
    p = DynamicsParams()
    for _ in range(50):
        q, _ = random_state()
        M, _, _ = dynamics_terms(p, q, np.zeros(3))
        assert np.array_equal(M, M.T)
        assert np.linalg.eigvalsh(M).min() > 0.0


def test_kinetic_energy_equals_quadratic_form():
    # kinetic_energy sums per-link translational + rotational energy via the
    # planar COM velocities; 0.5 qd' M qd uses the closed-form mass matrix.
    # Agreement ties the two independent derivations together.
    p = DynamicsParams()
    for _ in range(50):
        q, qd = random_state()
        M, _, _ = dynamics_terms(p, q, qd)
        quad = 0.5 * qd @ M @ qd
        assert kinetic_energy(p, q, qd) == pytest.approx(quad, rel=1e-12)


def test_coriolis_skew_symmetry():
    p = DynamicsParams()
    for _ in range(50):
        q, qd = random_state()
        _, C, _ = dynamics_terms(p, q, qd)
        S = mdot_finite_difference(p, q, qd) - 2.0 * C
        assert np.max(np.abs(S + S.T)) < 1e-8


def test_gravity_vector_matches_potential_gradient():
    p = DynamicsParams()
    h = 1e-6
    for _ in range(20):
        q, _ = random_state()
        _, _, G = dynamics_terms(p, q, np.zeros(3))
        for i in range(3):
            dq = np.zeros(3)
            dq[i] = h
            fd = (potential_energy(p, q + dq) - potential_energy(p, q - dq)) / (2 * h)
            assert G[i] == pytest.approx(fd, rel=1e-6, abs=1e-6)


def three_term_potential(params, q):
    """Σ mᵢ g · (COM height), written apart from potential_energy so that it
    also takes complex angles."""
    L1, L2, _ = params.lengths
    m1, m2, m3 = params.masses
    lc1, lc2, lc3 = params.coms
    s1, s12, s123 = np.sin(q[0]), np.sin(q[0] + q[1]), np.sin(q[0] + q[1] + q[2])
    return params.g * (m1 * lc1 * s1 + m2 * (L1 * s1 + lc2 * s12)
                       + m3 * (L1 * s1 + L2 * s12 + lc3 * s123))


@pytest.mark.parametrize("p", [
    DynamicsParams(),
    DynamicsParams(coms=(12.0, 35.0, 3.0), masses=(0.05, 0.008, 0.02), g=-3.7e3),
], ids=["stock", "custom"])
def test_gravity_vector_is_the_complex_step_gradient_of_the_potential(p):
    # the complex step has no truncation or cancellation error, so G and the
    # potential are held to rounding: a 1e-9 change in any one mass term shows
    rng = np.random.default_rng(5)
    h = 1e-30
    for _ in range(40):
        q = rng.uniform(-math.pi, math.pi, 3)
        assert potential_energy(p, q) == pytest.approx(three_term_potential(p, q),
                                                       rel=1e-14)
        _, _, G = dynamics_terms(p, q, np.zeros(3))
        for i in range(3):
            step = np.zeros(3, dtype=complex)
            step[i] = 1j * h
            gradient = three_term_potential(p, q + step).imag / h
            assert G[i] == pytest.approx(gradient, rel=1e-12)


def com_positions(params, q):
    """(3, 2) COM positions of the three links, summed link by link."""
    angles = np.cumsum(q)
    joint = np.zeros(2)
    coms = []
    for phi, L, lc in zip(angles, params.lengths, params.coms):
        direction = np.array([math.cos(phi), math.sin(phi)])
        coms.append(joint + lc * direction)
        joint = joint + L * direction
    return np.array(coms)


@pytest.mark.parametrize("p", [
    DynamicsParams(),
    DynamicsParams(lengths=(55.0, 31.0, 17.0), masses=(0.07, 0.004, 0.03),
                   coms=(9.0, 30.0, 17.0), inertias=(3.0, 0.2, 6.5)),
], ids=["stock", "custom"])
def test_kinetic_energy_matches_finite_difference_com_speeds(p):
    # COM velocities by a fourth-order central stencil on the positions
    # along q̇: independent of both M and the planar velocity sums
    h = 1e-3
    for _ in range(20):
        q, qd = random_state()

        def at(s):
            return com_positions(p, q + s * qd)
        v = (-at(2 * h) + 8 * at(h) - 8 * at(-h) + at(-2 * h)) / (12 * h)
        omega = np.cumsum(qd)
        expected = 0.5 * (np.dot(p.masses, np.sum(v * v, axis=1))
                          + np.dot(p.inertias, omega * omega))
        assert kinetic_energy(p, q, qd) == pytest.approx(expected, rel=1e-9)


def test_energies_batch_over_leading_axes():
    p = DynamicsParams()
    q = RNG.uniform(-math.pi, math.pi, (40, 3))
    qd = RNG.uniform(-3.0, 3.0, (40, 3))
    K, P = kinetic_energy(p, q, qd), potential_energy(p, q)
    assert K.shape == P.shape == (40,)
    assert np.array_equal(K, [kinetic_energy(p, a, b) for a, b in zip(q, qd)])
    assert np.array_equal(P, [potential_energy(p, a) for a in q])


@pytest.mark.parametrize("q, qdot, qddot, name", [
    ((math.inf, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), "q"),
    ((0.0, 0.0, 0.0), (0.0, math.nan, 0.0), (0.0, 0.0, 0.0), "qdot"),
    ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, -math.inf), "qddot"),
    ((0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), "q"),
], ids=["inf-angle", "nan-rate", "inf-acceleration", "two-angles"])
def test_a_state_that_is_not_three_finite_numbers_is_refused(q, qdot, qddot, name):
    p = DynamicsParams()
    bad = {"q": q, "qdot": qdot, "qddot": qddot}[name]
    message = f"{name} must be three finite numbers (got {list(bad)})"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if name != "qddot":
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                dynamics_terms(p, q, qdot)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            inverse_dynamics(p, q, qdot, qddot)


def test_inverse_dynamics_roundtrip():
    p = DynamicsParams()
    q, qd = random_state()
    qdd = RNG.uniform(-5.0, 5.0, 3)
    tau = inverse_dynamics(p, q, qd, qdd)
    M, C, G = dynamics_terms(p, q, qd)
    back = np.linalg.solve(M, tau - C @ qd - G)
    assert np.allclose(back, qdd, atol=1e-9)


# ---------------------------------------------------------------------------
# Integration
# ---------------------------------------------------------------------------

KERNEL_PARAMS = [
    DynamicsParams(),
    dataclasses.replace(DynamicsParams(), g=0.0),
    DynamicsParams(coms=(12.0, 35.0, 3.0), inertias=(9.0, 0.4, 2.5),
                   masses=(0.05, 0.008, 0.02)),
]


@pytest.mark.parametrize("p", KERNEL_PARAMS, ids=["stock", "no_g", "custom"])
def test_kernel_acceleration_matches_the_reference_solve(p):
    qddot = _acceleration_kernel(p)
    rng = np.random.default_rng(17)
    for _ in range(250):
        q = rng.uniform(-math.pi, math.pi, 3)
        qd = rng.uniform(-6.0, 6.0, 3)
        M, C, G = dynamics_terms(p, q, qd)
        expected = np.linalg.solve(M, -C @ qd - G)
        got = np.array(qddot(*q, *qd))
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_kernel_keeps_zero_sine_coefficients_from_huge_rates():
    # every velocity product starts from its sine coefficient: where the
    # coefficients vanish, a rate near the float limit contributes exactly 0
    straight = _acceleration_kernel(dataclasses.replace(DynamicsParams(), g=0.0))
    assert straight(0.0, 0.0, 0.0, 1e308, 0.0, 0.0) == (0.0, 0.0, 0.0)
    # lc3 = 0 makes t3 = t23 = 0 at every pose
    pointlike = _acceleration_kernel(DynamicsParams(coms=(40.0, 20.0, 0.0)))
    q = (0.3, -0.5, 0.2)
    assert pointlike(*q, 0.0, 0.0, 1e308) == pointlike(*q, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("p", KERNEL_PARAMS[1:], ids=["no_g", "custom"])
def test_kernel_without_gravity_ignores_turning_the_whole_chain(p):
    # q1 enters only through gravity: a turned chain accelerates the same
    qddot = _acceleration_kernel(dataclasses.replace(p, g=0.0))
    rng = np.random.default_rng(31)
    for _ in range(200):
        q = rng.uniform(-math.pi, math.pi, 3)
        qd = rng.uniform(-6.0, 6.0, 3)
        shift = rng.uniform(-10.0, 10.0)
        assert qddot(q[0] + shift, q[1], q[2], *qd) == qddot(*q, *qd)


def _grid(lo, hi):
    # values on a 1e-6 grid: where every term is subnormal, relative
    # rounding means nothing
    return st.floats(min_value=lo, max_value=hi).map(lambda v: round(v, 6))


@given(scale=st.floats(min_value=0.1, max_value=10.0),
       com_share=st.tuples(*[st.just(0.0) | _grid(0.0, 1.0)] * 3),
       masses=st.tuples(*[st.floats(min_value=1e-3, max_value=1.0)] * 3),
       inertia_share=st.none() | st.tuples(*[_grid(1e-2, 1.0)] * 3),
       g=st.sampled_from([0.0, 9810.0]),
       q=st.tuples(*[_grid(-math.pi, math.pi)] * 3),
       qd=st.tuples(*[_grid(-100.0, 100.0)] * 3))
@settings(max_examples=300, deadline=None)
def test_kernel_matches_the_christoffel_reference_on_every_chain(
        scale, com_share, masses, inertia_share, g, q, qd):
    # the kernel's closed-form C·q̇ against the Christoffel symbols of ∂M,
    # up to ±100 rad/s where the velocity products outweigh gravity
    lengths = (80.0 * scale, 40.0 * scale, 20.0 * scale)
    p = DynamicsParams(
        lengths=lengths, masses=masses, g=g,
        coms=tuple(s * L for s, L in zip(com_share, lengths)),
        inertias=None if inertia_share is None else tuple(
            s * m * L * L for s, m, L in zip(inertia_share, masses, lengths)))
    M, C, G = dynamics_terms(p, q, qd)
    expected = np.linalg.solve(M, -C @ np.array(qd) - G)
    got = np.array(_acceleration_kernel(p)(*q, *qd))
    # both solves carry about cond(M)·eps of rounding; light proximal links
    # under a heavy distal one reach cond(M) ~ 1e5
    rtol = max(1e-12, 1e-14 * np.linalg.cond(M))
    assert np.max(np.abs(got - expected)) <= rtol * np.max(np.abs(expected))


def reference_rk4(p, q0, qdot0, duration, dt):
    """Classical RK4 on dynamics_terms and a LAPACK solve, one state per row."""
    def acceleration(q, qd):
        M, C, G = dynamics_terms(p, q, qd)
        return np.linalg.solve(M, -C @ qd - G)

    q, qd = np.array(q0, dtype=float), np.array(qdot0, dtype=float)
    rows = [np.concatenate([q, qd])]
    for _ in range(int(round(duration / dt))):
        k1q, k1v = qd, acceleration(q, qd)
        k2q = qd + 0.5 * dt * k1v
        k2v = acceleration(q + 0.5 * dt * k1q, k2q)
        k3q = qd + 0.5 * dt * k2v
        k3v = acceleration(q + 0.5 * dt * k2q, k3q)
        k4q = qd + dt * k3v
        k4v = acceleration(q + dt * k3q, k4q)
        q = q + dt / 6.0 * (k1q + 2 * k2q + 2 * k3q + k4q)
        qd = qd + dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
        rows.append(np.concatenate([q, qd]))
    return np.array(rows)


@pytest.mark.parametrize("p", KERNEL_PARAMS, ids=["stock", "no_g", "custom"])
def test_trace_matches_rk4_on_the_reference_terms(p):
    q0, qdot0 = (0.9, -1.1, 0.4), (2.0, -3.0, 1.5)
    trace = simulate_free(p, q0, qdot0, 0.01, 1e-4)
    expected = reference_rk4(p, q0, qdot0, 0.01, 1e-4)
    assert np.max(np.abs(trace.q - expected[:, :3])) <= 1e-12
    assert np.max(np.abs(trace.qdot - expected[:, 3:])) <= 1e-12
    assert np.array_equal(trace.t, np.arange(101) * 1e-4)
    assert np.array_equal(trace.energy, trace.kinetic + trace.potential)
    assert np.array_equal(trace.kinetic, [kinetic_energy(p, a, b)
                                          for a, b in zip(trace.q, trace.qdot)])
    assert np.array_equal(trace.potential,
                          [potential_energy(p, a) for a in trace.q])


@pytest.mark.parametrize("q0, qdot0, step, reason", [
    ((0.2, -0.4, 0.3), (1e200, 0.0, 0.0), 1,
     "the joint acceleration is not finite"),
    # q̈ stays 0 on the straight chain without gravity; the angle overflows
    ((0.0, 0.0, 0.0), (1e308, 0.0, 0.0), 2, "a joint angle is not finite"),
])
def test_non_finite_integration_names_the_step(q0, qdot0, step, reason):
    p = dataclasses.replace(DynamicsParams(), g=0.0)
    with pytest.raises(RuntimeError, match=f"integration failed at step "
                                           f"{step} of 10: {reason}"):
        simulate_free(p, q0, qdot0, 1e-3, 1e-4)


def test_mass_matrix_that_is_not_positive_fails_at_its_pivot():
    p = DynamicsParams()
    object.__setattr__(p, "inertias", (-1e6, 1.0, 1.0))  # past the validator
    with pytest.raises(RuntimeError, match="integration failed at step 1 of "
                                           "10: mass-matrix pivot 1 is not"):
        simulate_free(p, (0.3, 0.2, 0.1), (0.0, 0.0, 0.0), 1e-3, 1e-4)


@pytest.mark.parametrize("q0, qdot0", [
    ((0.0, math.nan, 0.0), (0.0, 0.0, 0.0)),
    ((0.0, 0.0, 0.0), (0.0, 0.0, math.inf)),
    ((0.0, 0.0), (0.0, 0.0, 0.0)),
    ((0.0, 0.0, 0.0, 0.0), (0.0, 0.0)),
])
def test_bad_initial_state_rejected(q0, qdot0):
    with pytest.raises(ValueError, match="q0 and qdot0"):
        simulate_free(DynamicsParams(), q0, qdot0, 1e-3, 1e-4)


def test_non_finite_energy_names_the_row():
    # a finite spin of the straight chain: no Coriolis or gravity term, so
    # the state stays finite while its COM speeds square past the float range
    with pytest.raises(RuntimeError,
                       match="integration failed at step 0 of 1: "
                             "the energy is not finite"):
        simulate_free(dataclasses.replace(DynamicsParams(), g=0.0),
                      (0.0, 0.0, 0.0), (1e153, 0.0, 0.0), 1e-4, 1e-4)

def test_equilibrium_stays_put_without_gravity():
    p = dataclasses.replace(DynamicsParams(), g=0.0)
    trace = simulate_free(p, (0.4, -0.8, 1.2), (0.0, 0.0, 0.0), 0.01, 1e-4)
    assert np.allclose(trace.q, trace.q[0])
    assert np.allclose(trace.qdot, 0.0)
    assert np.allclose(trace.energy, 0.0)
    assert type(trace.max_relative_energy_drift()) is float    # E(0) = 0


def test_energy_conserved_over_short_swing():
    p = DynamicsParams()
    trace = simulate_free(p, (0.2, -0.5, 0.3), (1.0, -2.0, 0.5), 0.1, 1e-4)
    assert trace.max_relative_energy_drift() < 1e-8
    assert type(trace.max_relative_energy_drift()) is float


def test_stock_one_second_run_keeps_its_energy_drift_below_1e_9():
    # the CLI's default run: the stock finger released from its reference
    # pose for 1 s at dt = 1e-4 (acceptance check c05 allows 1e-6)
    finger = FingerParams()
    trace = simulate_free(DynamicsParams.from_finger(finger),
                          reference_angles(finger).as_array(), (0.0, 0.0, 0.0),
                          1.0, 1e-4)
    assert trace.max_relative_energy_drift() < 1e-9


def test_trace_shape_and_time_axis():
    p = dataclasses.replace(DynamicsParams(), g=0.0)
    trace = simulate_free(p, np.zeros(3), (0.1, 0.1, 0.1), 0.02, 1e-3)
    assert len(trace.t) == 21
    assert trace.t[0] == 0.0
    assert trace.t[-1] == pytest.approx(0.02)
    assert trace.q.shape == (21, 3)


def test_bad_timestep_rejected():
    p = DynamicsParams()
    with pytest.raises(ValueError):
        simulate_free(p, np.zeros(3), np.zeros(3), 1.0, 0.0)
    with pytest.raises(ValueError):
        simulate_free(p, np.zeros(3), np.zeros(3), 1e-5, 1e-4)
    with pytest.raises(ValueError, match="MAX_STEPS"):
        simulate_free(p, np.zeros(3), np.zeros(3), 1.0, 1e-12)
    assert step_count(MAX_STEPS * 1e-9, 1e-9) == MAX_STEPS


def test_step_count_takes_whole_steps_only():
    # 0.3/0.1 is 2.9999999999999996, within the quotient's rounding of 3
    assert step_count(0.3, 0.1) == 3
    assert step_count(0.03, 1e-4) == 300
    with pytest.raises(ValueError, match=r"^duration 0\.0025 is not a whole number "
                                         r"of dt = 0\.001 steps \(duration/dt = 2\.5\)"):
        step_count(0.0025, 1e-3)
    with pytest.raises(ValueError, match="not a whole number"):
        simulate_free(DynamicsParams(), np.zeros(3), np.zeros(3), 0.00105, 1e-4)
