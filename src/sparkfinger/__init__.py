"""Simulation toolkit for a passively mode-switching straight-line finger.

Modules:

- mechanism: the straight-line finger linkage and its bar-joint position solver
- kinematics: phalanx-chain forward kinematics, Jacobian, constrained motion
- dynamics: closed-form rigid-body terms and an energy-checked integrator
- statics: pinch/scoop contact-force models with a virtual-work oracle
- modeswitch: depth-driven pinch-to-scoop state machine
- config / cli: INI run configuration and the `sparkfinger` command

`import sparkfinger` loads no submodule and no numpy: the names in __all__
come from mechanism, which loads when one of them is first read (PEP 562).
"""
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


def __getattr__(name):
    if name in __all__:
        from . import mechanism
        return getattr(mechanism, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
