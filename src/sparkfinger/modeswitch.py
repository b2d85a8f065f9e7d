"""Passive pinch-to-scoop mode switching driven by descent depth.

The finger starts in a pinch posture. Pressing it down against a surface
first engages a mechanical stopper (after dh1 mm of travel), then winds the
distal phalanx linearly from 0 to dtheta_c1 degrees over the next dh2 mm,
after which the scoop posture is complete. No actuator decision is involved:
the sequence is a pure function of penetration depth, which is what makes
the switch passive.

Depths are mm of descent past first contact; rotations are reported in
degrees (matching the dtheta_c1 parameter) while spring deflections are in
radians so torsional moments come out in N·mm.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .mechanism import (BOUNDARY_GRACE, DEFAULT_HALF_SPAN, DEFAULT_SAMPLES,
                        FingerParams, check_finger, check_sample_count)

__all__ = [
    "Mode",
    "SurfaceScenario",
    "DescentState",
    "AsymmetricPose",
    "descend",
    "mode_trace",
    "asymmetric_pose",
    "spring_moments",
]

MAX_TILT = math.pi / 4  # rad; steeper surfaces are outside the envelope


class Mode(str, Enum):
    PINCH_CONTACT = "PinchContact"
    STOPPER_ENGAGED = "StopperEngaged"
    SCOOPING = "Scooping"
    SCOOP_COMPLETE = "ScoopComplete"

    def __str__(self) -> str:  # CSV-friendly
        return self.value


@dataclass(frozen=True)
class SurfaceScenario:
    """Surface being pressed: datum height (mm) and tilt (rad).

    A tilted surface makes the two fingers of a gripper contact at
    different depths."""
    surface_height: float = 0.0
    tilt: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.surface_height):
            raise ValueError(f"surface_height must be finite (got {self.surface_height!r})")
        if not (0.0 <= self.tilt <= MAX_TILT):
            raise ValueError(
                f"tilt {self.tilt:.4g} rad outside the supported [0, pi/4] range")


@dataclass(frozen=True)
class DescentState:
    """Finger state at one depth: stage, distal rotation (deg), and the
    wound-up deflection (rad) both torsion springs share."""
    depth: float
    mode: Mode
    distal_rotation: float
    spring_deflection: float


@dataclass(frozen=True)
class AsymmetricPose:
    """Two-finger state on a tilted surface: the leading finger contacts
    first, the trailing one lags behind it."""
    depth: float
    leading: DescentState
    trailing: DescentState


def descend(params: FingerParams, scenario: SurfaceScenario,
            depth: float) -> DescentState:
    """State of one finger after `depth` mm of descent.

    Penetration past first contact is depth minus the scenario's surface
    height; until the stopper engages the finger keeps its pinch posture.
    """
    if not math.isfinite(depth):
        raise ValueError("depth must be finite")
    pen = depth - scenario.surface_height
    dh1, dh2, full = params.dh1, params.dh2, params.dtheta_c1

    if pen < dh1 - BOUNDARY_GRACE:
        mode, rotation = Mode.PINCH_CONTACT, 0.0
    elif pen <= dh1 + BOUNDARY_GRACE:
        mode, rotation = Mode.STOPPER_ENGAGED, 0.0
    elif pen < dh1 + dh2 - BOUNDARY_GRACE:
        mode = Mode.SCOOPING
        rotation = min(max((pen - dh1) / dh2 * full, 0.0), full)
    else:
        mode, rotation = Mode.SCOOP_COMPLETE, full

    # Both torsion springs wind with the distal rotation once the stopper
    # has engaged; before that neither stores any moment.
    return DescentState(depth=depth, mode=mode, distal_rotation=rotation,
                        spring_deflection=math.radians(rotation))


def _check_span(name: str, value: float):
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and > 0 (got {value!r})")


def mode_trace(params: FingerParams, scenario: SurfaceScenario,
               max_depth: float | None = None, n_samples: int = DEFAULT_SAMPLES,
               half_span: float = DEFAULT_HALF_SPAN):
    """Sample the descent from 0 to max_depth (default surface height +
    dh1 + dh2).

    Returns DescentState rows for a flat surface, AsymmetricPose rows when
    the scenario is tilted; the fingers of a tilted pose meet the surface
    half_span mm apart. n_samples follows check_sample_count; max_depth (or
    its default) and half_span must be finite and > 0. Raises ValueError
    when the finger fails validate_kempe_constraints.
    """
    check_finger(params)
    check_sample_count(n_samples)
    if max_depth is None:
        max_depth = scenario.surface_height + params.dh1 + params.dh2
        _check_span("surface_height + dh1 + dh2 (the default max_depth)", max_depth)
    _check_span("max_depth", max_depth)
    _check_span("half_span", half_span)
    step = max_depth / (n_samples - 1)
    depths = [i * step for i in range(n_samples - 1)] + [max_depth]
    if scenario.tilt == 0.0:
        return [descend(params, scenario, d) for d in depths]
    return [asymmetric_pose(params, d, scenario, half_span) for d in depths]


def asymmetric_pose(params: FingerParams, depth: float,
                    scenario: SurfaceScenario,
                    half_span: float = DEFAULT_HALF_SPAN) -> AsymmetricPose:
    """Two-finger pose on the scenario's surface, tilted by scenario.tilt.

    The leading finger meets the surface at scenario.surface_height mm of
    descent. The fingers meet it half_span mm apart (measured along it), so
    the trailing finger's contact starts half_span*sin(tilt) mm later; each
    finger then follows the ordinary descent sequence at its own
    penetration. half_span must be finite and > 0.
    """
    _check_span("half_span", half_span)
    offset = half_span * math.sin(scenario.tilt)
    return AsymmetricPose(depth=depth,
                          leading=descend(params, scenario, depth),
                          trailing=descend(params, scenario,
                                           max(depth - offset, 0.0)))


def spring_moments(params: FingerParams, state: DescentState) -> tuple[float, float]:
    """Restoring moments (N·mm) of the two torsion springs in `state`."""
    return (params.k1 * state.spring_deflection,
            params.k2 * state.spring_deflection)
