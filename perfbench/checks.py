"""Output checks that do not go through the program's own routes.

Every check recomputes what it compares against from the bar lengths and
the formulas in the package README, or tests a property the method must
have (energy conservation, Lagrange's equations). A check returns nothing
when the output is right and raises CheckError naming the first bad value
otherwise. Nothing here imports sparkfinger.
"""
from __future__ import annotations

import math

X_RTOL = 1e-6               # tip x against the line station, share of L1
ORIENT_TOL = 1e-9           # rad
DRIVE_RTOL = 1e-9           # tip y against the drive-rod value, share of L1
CHAIN_RTOL = 1e-6           # own FK of the chain angles against the tip
DRIFT_TOL = 1e-6            # relative energy drift
KINETIC_RTOL = 1e-9         # trace K against ½ q̇ᵀ M q̇
TORQUE_RTOL = 1e-4          # residual torque against the torque scale
FORCE_RTOL = 1e-9
DESCEND_TOL = 1e-9          # deg and N·mm; the CSV carries %.17g
BOUNDARY_SLACK = 1e-6       # mm; modes are not judged this close to a stage edge
VERTICAL = -math.pi / 2


class CheckError(AssertionError):
    """An output differs from the value the benchmark computed apart."""


def fail(message):
    raise CheckError(message)


# ---------------------------------------------------------------------------
# Linkage geometry
# ---------------------------------------------------------------------------

def line_station(L1, L2, L3):
    """x of the vertical line the fingertip rides: (L2²−L3²)/(2·L1) − L1."""
    return (L2 * L2 - L3 * L3) / (2.0 * L1) - L1


def fold_bounds(L1, L2, L3, CJ):
    """Closed-form tip-height range (lo, hi) in which the linkage assembles.

    Corner I rides x_i = (L2²−L3²)/(2·L1). The rhombus closes while
    L2−L3 ≤ |AI| ≤ L2+L3, and the parallelogram cascade reaches C = I −
    (L1, 0) while |AC| ≤ 2·L2. The tip sits CJ below I's height.
    """
    x_i = (L2 * L2 - L3 * L3) / (2.0 * L1)
    x_c = x_i - L1
    near = math.sqrt((L2 - L3) ** 2 - x_i ** 2)
    far = min(math.sqrt(4.0 * L2 * L2 - x_c ** 2),
              math.sqrt((L2 + L3) ** 2 - x_i ** 2))
    return -far - CJ, -near - CJ


def check_tip_path(L1, L2, L3, CJ, samples, stroke=None):
    """samples: (drive-rod value, tip_x, tip_y, orientation) rows of one sweep."""
    if not samples:
        fail("empty trajectory")
    x_line = line_station(L1, L2, L3)
    lo_fold, hi_fold = fold_bounds(L1, L2, L3, CJ)
    if stroke is not None:
        lo, hi = stroke
        if not lo_fold <= lo <= hi <= hi_fold:
            fail(f"stroke ({lo!r}, {hi!r}) leaves the fold bounds "
                  f"({lo_fold!r}, {hi_fold!r})")
    for k, (drive, x, y, orientation) in enumerate(samples):
        if not abs(x - x_line) <= X_RTOL * L1:
            fail(f"sample {k}: tip x {x!r} is off the line x = {x_line!r}")
        if not abs(orientation - VERTICAL) <= ORIENT_TOL:
            fail(f"sample {k}: orientation {orientation!r} is not -pi/2")
        if not abs(y - drive) <= DRIVE_RTOL * L1:
            fail(f"sample {k}: tip y {y!r} differs from the drive-rod value {drive!r}")
        if not lo_fold <= y <= hi_fold:
            fail(f"sample {k}: tip y {y!r} outside the fold bounds")


def planar_fk(lengths, q):
    """Tip (x, y) and orientation of a planar serial chain, by plain sums."""
    x = y = phi = 0.0
    for length, angle in zip(lengths, q):
        phi += angle
        x += length * math.cos(phi)
        y += length * math.sin(phi)
    return x, y, phi


def check_chain_reaches(lengths, q, tip):
    x, y, phi = planar_fk(lengths, q)
    gap = math.hypot(x - tip[0], y - tip[1])
    if not gap <= CHAIN_RTOL * lengths[0]:
        fail(f"chain angles {tuple(q)!r} reach ({x!r}, {y!r}), "
              f"{gap:.3g} mm from the linkage tip {tuple(tip)!r}")
    if not abs(phi - VERTICAL) <= ORIENT_TOL:
        fail(f"chain orientation {phi!r} is not -pi/2")


# ---------------------------------------------------------------------------
# Dynamics
# ---------------------------------------------------------------------------

def check_energy_drift(kinetic, potential, energy):
    """max |E − E0| within DRIFT_TOL of the trace's energy scale.

    The scale is the largest of |E0|, max K and max |P|, so a trace whose
    total energy happens to sit near zero is not judged on a vanishing
    denominator.
    """
    e0 = energy[0]
    scale = max(abs(e0), max(kinetic), max(abs(p) for p in potential))
    for k, (K, P, E) in enumerate(zip(kinetic, potential, energy)):
        if not abs(K + P - E) <= 1e-12 * scale:
            fail(f"row {k}: K + P = {K + P!r} but E = {E!r}")
    drift = max(abs(e - e0) for e in energy) / scale
    if not drift <= DRIFT_TOL:
        fail(f"relative energy drift {drift:.3g} exceeds {DRIFT_TOL:g}")
    return drift


def quadratic_form(M, v):
    return sum(M[i][j] * v[i] * v[j] for i in range(3) for j in range(3))


def check_kinetic(K, qdot, M, scale):
    """Trace K against ½ q̇ᵀ M q̇ with M from the closed-form terms."""
    expected = 0.5 * quadratic_form(M, qdot)
    if not abs(K - expected) <= KINETIC_RTOL * scale:
        fail(f"K = {K!r} but 1/2 qdot' M qdot = {expected!r}")


def central_acceleration(qdot_prev, qdot_next, dt):
    return [(b - a) / (2.0 * dt) for a, b in zip(qdot_prev, qdot_next)]


def check_free_torque(tau, scale):
    """Unforced motion: inverse dynamics of the trace must give τ ≈ 0."""
    worst = max(abs(t) for t in tau)
    if not worst <= TORQUE_RTOL * scale:
        fail(f"free motion needs torque {worst:.3g} N·mm "
              f"(scale {scale:.3g}); the trace breaks M q'' + C q' + G = 0")


# ---------------------------------------------------------------------------
# Statics
# ---------------------------------------------------------------------------

def _close(a, b, rtol=FORCE_RTOL):
    return abs(a - b) <= rtol * max(1.0, abs(b))


def check_pinch_rows(rows, T, d3, L2):
    """rows: (theta2_deg, F2, F3, status); F3 = T / (d3 + L2·cos θ2)."""
    for theta_deg, F2, F3, status in rows:
        expected = T / (d3 + L2 * math.cos(math.radians(theta_deg)))
        if status != "ok" or F2 is not None or not _close(F3, expected):
            fail(f"pinch row at {theta_deg!r} deg: F3 {F3!r} status "
                  f"{status!r}, expected {expected!r}")


def check_scoop_rows(rows, T, k, d2, d3, L2, theta2_deg):
    """F2 = T/d2 + k·θ3·L2·cos(θ2−θ3)/(d2·d3) and F3 = −k·θ3/d3."""
    theta2 = math.radians(theta2_deg)
    for theta3_deg, F2, F3, status in rows:
        theta3 = math.radians(theta3_deg)
        e2 = T / d2 + k * theta3 * L2 * math.cos(theta2 - theta3) / (d2 * d3)
        e3 = -k * theta3 / d3
        if status != "ok" or not (_close(F2, e2) and _close(F3, e3)):
            fail(f"scoop row at {theta3_deg!r} deg: ({F2!r}, {F3!r}) "
                  f"status {status!r}, expected ({e2!r}, {e3!r})")


def check_sweep_grid(values, start, stop, n):
    if len(values) != n:
        fail(f"{len(values)} rows, expected {n}")
    step = (stop - start) / (n - 1)
    for i, v in enumerate(values):
        if not abs(v - (start + i * step)) <= 1e-9 * max(1.0, abs(stop)):
            fail(f"row {i}: sweep value {v!r} off the grid")


# ---------------------------------------------------------------------------
# Mode switch
# ---------------------------------------------------------------------------

STAGES = ("PinchContact", "StopperEngaged", "Scooping", "ScoopComplete")


def descent_law(pen, dh1, dh2, full):
    """(mode, distal rotation deg) after `pen` mm of penetration.

    Pinch until the stopper engages at dh1, linear wind-up over the next dh2
    mm, scoop complete at `full` degrees. The mode is None within
    BOUNDARY_SLACK of a stage edge, where float noise may pick either side.
    """
    edges = (dh1, dh1 + dh2)
    near_edge = any(abs(pen - e) <= BOUNDARY_SLACK for e in edges)
    if pen <= dh1:
        mode, rotation = STAGES[0], 0.0
    elif pen < dh1 + dh2:
        mode, rotation = STAGES[2], (pen - dh1) / dh2 * full
    else:
        mode, rotation = STAGES[3], full
    return (None if near_edge else mode), rotation


def _check_finger(label, cells, pen, finger):
    mode, rotation, m1, m2 = cells
    expect_mode, expect_rot = descent_law(pen, finger["dh1"], finger["dh2"],
                                          finger["dtheta_c1"])
    deflection = math.radians(expect_rot)
    if expect_mode is not None and mode != expect_mode:
        fail(f"{label}: mode {mode!r}, expected {expect_mode!r}")
    for got, want in ((rotation, expect_rot),
                      (m1, finger["k1"] * deflection),
                      (m2, finger["k2"] * deflection)):
        if not abs(got - want) <= DESCEND_TOL * max(1.0, abs(want)):
            fail(f"{label}: {got!r} differs from {want!r}")


def check_descend_rows(rows, finger, surface_height, max_depth, n,
                       tilt_deg=0.0, half_span=None):
    """Flat rows: (depth, mode, rotation, k1, k2). Tilted rows add the
    trailing finger, which meets the surface half_span·sin(tilt) mm later."""
    if len(rows) != n:
        fail(f"{len(rows)} descend rows, expected {n}")
    lag = 0.0 if tilt_deg == 0.0 else half_span * math.sin(math.radians(tilt_deg))
    step = max_depth / (n - 1)
    for i, row in enumerate(rows):
        depth = row[0]
        if not abs(depth - i * step) <= 1e-9 * max(1.0, max_depth):
            fail(f"row {i}: depth {depth!r} off the grid")
        pen = depth - surface_height
        _check_finger(f"row {i} leading", row[1:5], pen, finger)
        if tilt_deg != 0.0:
            _check_finger(f"row {i} trailing", row[5:9], pen - lag, finger)


# ---------------------------------------------------------------------------
# Chain kinematics at the command line
# ---------------------------------------------------------------------------

def check_fk_output(lengths, q_deg, values):
    """values: the `fk` command's key=value lines, parsed to floats."""
    q = [math.radians(d) for d in q_deg]
    x, y, phi = planar_fk(lengths, q)
    tol = 1e-9 * lengths[0]
    for key, want, eps in (("tip_x_mm", x, tol), ("tip_y_mm", y, tol),
                           ("orientation_rad", phi, 1e-12),
                           ("orientation_deg", math.degrees(phi), 1e-9)):
        got = values.get(key)
        if got is None or not abs(got - want) <= eps:
            fail(f"fk {q_deg!r}: {key} = {got!r}, expected {want!r}")


def check_jac_rows(lengths, q_deg, rows):
    """rows: component label -> three floats. Planar chain columns are
    (−Σ_{j≥i} Lj·sin φj, Σ_{j≥i} Lj·cos φj, 0, 0, 0, 1)."""
    q = [math.radians(d) for d in q_deg]
    phis, phi = [], 0.0
    for angle in q:
        phi += angle
        phis.append(phi)
    expected = {
        "vx_mm_s": [-sum(lengths[j] * math.sin(phis[j]) for j in range(i, 3))
                    for i in range(3)],
        "vy_mm_s": [sum(lengths[j] * math.cos(phis[j]) for j in range(i, 3))
                    for i in range(3)],
        "vz_mm_s": [0.0] * 3, "wx_rad_s": [0.0] * 3, "wy_rad_s": [0.0] * 3,
        "wz_rad_s": [1.0] * 3,
    }
    if set(rows) != set(expected):
        fail(f"jac rows {sorted(rows)!r}")
    tol = 1e-9 * lengths[0]
    for label, want in expected.items():
        got = rows[label]
        if len(got) != 3 or any(not abs(g - w) <= tol for g, w in zip(got, want)):
            fail(f"jac {q_deg!r}: {label} = {got!r}, expected {want!r}")
