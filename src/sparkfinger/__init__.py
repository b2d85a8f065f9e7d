"""Simulation toolkit for a passively mode-switching straight-line finger.

Modules:

- mechanism: the straight-line finger linkage and its bar-joint position solver
- kinematics: phalanx-chain forward kinematics, Jacobian, constrained motion
- dynamics: closed-form rigid-body terms and an energy-checked integrator
- statics: pinch/scoop contact-force models with a virtual-work oracle
- modeswitch: depth-driven pinch-to-scoop state machine
- config / cli: INI run configuration and the `sparkfinger` command
"""
from .mechanism import (
    FingerParams,
    LinkageTopology,
    NonConvergenceError,
    discover_stroke,
    fingertip_trajectory,
    solve_position,
    spark_preset,
    straightness_metric,
    validate_kempe_constraints,
)

__version__ = "0.1.0"

__all__ = [
    "FingerParams",
    "LinkageTopology",
    "NonConvergenceError",
    "discover_stroke",
    "fingertip_trajectory",
    "solve_position",
    "spark_preset",
    "straightness_metric",
    "validate_kempe_constraints",
    "__version__",
]
