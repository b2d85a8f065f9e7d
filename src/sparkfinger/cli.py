"""Command-line front end.

Subcommands::

    validate   check the configured finger (every subcommand checks it first)
    traj       sweep the drive rod, write trajectory + straight-line error CSVs
    forces     tabulate pinch or scoop contact forces over an angle sweep
    descend    trace the passive pinch-to-scoop sequence against a surface
    dynamics   integrate free motion and report energy drift
    fk         forward kinematics of the phalanx chain at given joint angles
    jac        geometric Jacobian at given joint angles

Conventions: angles cross this boundary in degrees; one writer formats every
CSV cell, floats as repr-exact '%.17g', with '\\n' endings: runs are byte-identical.
Exit codes: 0 success, 1 domain failure (solver, geometry), 2 usage/config;
main returns each one, argparse's --help and usage errors included.
_given hands the flags' settings, and $SPARKFINGER_OUT for the output
directory, to config.load_config, which resolves and checks every setting
once; handlers read only the RunConfig. A setting out of range that a flag
set, an output directory or a CSV that cannot be written is an `error:`
line naming its source or file, and exit 2. Every subcommand validates the
configured finger first and exits 1 with validate's violation lines.

The process entry is sparkfinger.__main__.run, which calls main.

Start-up loads only mechanism and config; each handler imports the modules
it runs (statics, modeswitch, dynamics, kinematics) when it is called.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import os
import sys

from . import mechanism
from .config import ConfigError, RunConfig, UsageError, load_config

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2

OUT_ENV_VAR = "SPARKFINGER_OUT"


def _fmt(x) -> str:
    """A cell or figure: a number as '%.17g' (-0 as 0), None as "", a str as is."""
    if isinstance(x, str):
        return x
    return "" if x is None else format(float(x) + 0.0, ".17g")


def _say(args, message: str):
    if not args.quiet:
        print(message)


# config key -> flag of each setting a flag can set; a flag's dest is the key's name
_FLAGS = {"[output] directory": "--out", "[output] samples": "--samples",
          "[modeswitch] tilt_deg": "--tilt", "[modeswitch] max_depth": "--max-depth",
          "[dynamics] duration": "--duration", "[dynamics] dt": "--dt",
          "[dynamics] gravity": "--gravity"}


def _given(args) -> dict:
    """For config.load_config: "[section] key" -> (value, source) of each
    setting a flag or (the output directory only) $SPARKFINGER_OUT sets."""
    given = {key: (getattr(args, key.split("] ")[1], None), flag)
             for key, flag in _FLAGS.items()}
    if given["[output] directory"][0] is None:
        given["[output] directory"] = (os.environ.get(OUT_ENV_VAR), f"${OUT_ENV_VAR}")
    return {key: setting for key, setting in given.items() if setting[0] is not None}


def _write_rows(handle, header, rows):
    """CSV to the text stream handle, each cell of rows formatted by _fmt."""
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(map(_fmt, row) for row in rows)


def _write_csv(cfg: RunConfig, name: str, header, rows) -> str:
    """CSV name in cfg's output directory, made first if need be; its path."""
    try:
        os.makedirs(cfg.output_dir, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory {cfg.output_dir!r} (set by "
                         f"{cfg.sources['[output] directory']}): {exc.strerror}") from None
    path = os.path.join(cfg.output_dir, name)
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            _write_rows(handle, header, rows)
    except OSError as exc:
        raise UsageError(f"cannot write {path!r}: {exc.strerror}") from None
    return path


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _triple(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected three comma-separated numbers, got {text!r}")
    return tuple(_finite_float(p) for p in parts)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args, cfg: RunConfig) -> int:
    _say(args, "validate: ok")      # main has already checked the finger
    return EXIT_OK


def cmd_traj(args, cfg: RunConfig) -> int:
    topology = mechanism.spark_preset(cfg.finger)
    trajectory = mechanism.fingertip_trajectory(topology, n_samples=cfg.samples)
    max_dev, rms_dev = mechanism.straightness_metric(trajectory)

    drivers, xs, ys = trajectory.driver, trajectory.tip_x, trajectory.tip_y
    x0, y0 = xs[0], ys[0]
    tip_path = _write_csv(cfg, "trajectory.csv",
                          ["driver_mm", "tip_x_mm", "tip_y_mm", "orientation_rad"],
                          zip(drivers, xs, ys, trajectory.orientation))
    line_path = _write_csv(cfg, "displacement.csv",
                           ["driver_mm", "along_line_mm", "off_line_mm"],
                           [(d, y - y0, x - x0) for d, x, y in zip(drivers, xs, ys)])
    _say(args, f"wrote {tip_path} and {line_path} "
               f"max_dev_mm={_fmt(max_dev)} rms_dev_mm={_fmt(rms_dev)} "
               f"max_residual_mm={_fmt(trajectory.max_residual_mm)}")
    return EXIT_OK


def cmd_forces(args, cfg: RunConfig) -> int:
    from . import statics

    st = cfg.statics
    act = statics.ActuationInput(T=st.T, k=st.k)
    start = 0.0 if args.start is None else args.start
    if args.stop is not None:
        stop = args.stop
    else:
        stop = 90.0 if args.mode == "pinch" else cfg.finger.dtheta_c1
    # the sweep sets the mode's own angle; pinch reads only theta2 and d3
    geom = statics.ContactGeometry(d2=st.d2, d3=st.d3,
                                   theta2=math.radians(st.theta2_deg),
                                   theta3=0.0)

    step = (stop - start) / (cfg.samples - 1)
    if not math.isfinite(step):
        raise UsageError(f"--start {start!r} to --stop {stop!r} is not a finite span")
    degrees = [start + i * step for i in range(cfg.samples - 1)] + [stop]
    rows = statics.force_sweep(args.mode, act, geom, cfg.finger.L2,
                               [math.radians(d) for d in degrees])
    swept = f"{statics.SWEPT_ANGLE[args.mode]}_deg"

    path = _write_csv(cfg, f"forces_{args.mode}.csv",
                      ["sweep_var", "value", "F2_N", "F3_N", "status"],
                      [(swept, deg, row.F2, row.F3, row.status)
                       for deg, row in zip(degrees, rows)])
    failed = sum(1 for row in rows if row.status != "ok")
    _say(args, f"wrote {path} ({len(rows)} rows, {failed} failed)")
    return EXIT_OK


def cmd_descend(args, cfg: RunConfig) -> int:
    from . import modeswitch

    def moment_cells(state):
        m1, m2 = modeswitch.spring_moments(cfg.finger, state)
        return [str(state.mode), state.distal_rotation, m1, m2]

    ms = cfg.modeswitch
    scenario = modeswitch.SurfaceScenario(surface_height=ms.surface_height,
                                          tilt=math.radians(ms.tilt_deg))
    trace = modeswitch.mode_trace(cfg.finger, scenario, ms.max_depth,
                                  cfg.samples, ms.half_span)

    if scenario.tilt == 0.0:
        path = _write_csv(cfg, "descend.csv",
                          ["depth_mm", "mode", "distal_rotation_deg",
                           "k1_moment_Nmm", "k2_moment_Nmm"],
                          [[s.depth, *moment_cells(s)] for s in trace])
        final = f"final_mode={trace[-1].mode}"
    else:
        path = _write_csv(cfg, "descend.csv",
                          ["depth_mm",
                           "mode_leading", "rotation_leading_deg",
                           "k1_leading_Nmm", "k2_leading_Nmm",
                           "mode_trailing", "rotation_trailing_deg",
                           "k1_trailing_Nmm", "k2_trailing_Nmm"],
                          [[p.depth, *moment_cells(p.leading),
                            *moment_cells(p.trailing)] for p in trace])
        final = (f"final_mode_leading={trace[-1].leading.mode} "
                 f"final_mode_trailing={trace[-1].trailing.mode}")
    _say(args, f"wrote {path} {final}")
    return EXIT_OK


def cmd_dynamics(args, cfg: RunConfig) -> int:
    from . import kinematics
    from .dynamics import DynamicsParams, simulate_free

    params = DynamicsParams.from_finger(cfg.finger)
    if not cfg.dynamics.gravity:
        params = dataclasses.replace(params, g=0.0)

    if args.q0 is None:
        q0 = kinematics.reference_angles(cfg.finger).as_array()
    else:
        q0 = [math.radians(v) for v in args.q0]
    qdot0 = ([0.0, 0.0, 0.0] if args.qdot0 is None
             else [math.radians(v) for v in args.qdot0])

    trace = simulate_free(params, q0, qdot0, cfg.dynamics.duration, cfg.dynamics.dt)

    path = _write_csv(cfg, "dynamics.csv",
                      ["t_s", "theta1_rad", "theta2_rad", "theta3_rad",
                       "dtheta1_rads", "dtheta2_rads", "dtheta3_rads",
                       "K", "P", "E_total"],
                      zip(trace.t.tolist(), *trace.q.T.tolist(),
                          *trace.qdot.T.tolist(), trace.kinetic.tolist(),
                          trace.potential.tolist(), trace.energy.tolist()))
    _say(args, f"wrote {path} "
               f"max_rel_energy_drift={_fmt(trace.max_relative_energy_drift())}")
    return EXIT_OK


def cmd_fk(args, cfg: RunConfig) -> int:
    from . import kinematics

    q = [math.radians(v) for v in (args.theta1, args.theta2, args.theta3)]
    fk = kinematics.forward_kinematics(cfg.finger.lengths, q)
    values = {"tip_x_mm": fk.tip_position[0], "tip_y_mm": fk.tip_position[1],
              "orientation_rad": fk.tip_orientation,
              "orientation_deg": math.degrees(fk.tip_orientation)}
    bad = " ".join(f"{name}={v!r}" for name, v in values.items() if not math.isfinite(v))
    if bad:
        raise ValueError(f"not finite at these angles: {bad}")    # main exits 1
    print("\n".join(f"{name}={_fmt(v)}" for name, v in values.items()))
    return EXIT_OK


def cmd_jac(args, cfg: RunConfig) -> int:
    from . import kinematics

    q = [math.radians(v) for v in (args.theta1, args.theta2, args.theta3)]
    vx, vy, wz = kinematics.jacobian(cfg.finger.lengths, q)
    zero = [0.0] * 3    # the planar chain has no vz, ωx or ωy
    _write_rows(sys.stdout,
                ["component", "per_dtheta1", "per_dtheta2", "per_dtheta3"],
                [["vx_mm_s", *vx], ["vy_mm_s", *vy], ["vz_mm_s", *zero],
                 ["wx_rad_s", *zero], ["wy_rad_s", *zero], ["wz_rad_s", *wz]])
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser / entry point
# ---------------------------------------------------------------------------

def _add_common_flags(parser: argparse.ArgumentParser, in_subparser: bool):
    # The same flags live on the root parser and on every subparser so they
    # are accepted on either side of the command word; the subparser copies
    # use SUPPRESS defaults so they never clobber a value parsed by the root.
    absent = argparse.SUPPRESS if in_subparser else None
    parser.add_argument("--config", metavar="FILE", default=absent,
                        help="INI run configuration (defaults used if absent)")
    parser.add_argument("--out", dest="directory", metavar="DIR", default=absent,
                        help=f"output directory (else ${OUT_ENV_VAR}, "
                             "else config, else '.')")
    parser.add_argument("--samples", type=int, metavar="N", default=absent,
                        help="sample count for sweeps and traces "
                             f"(default {mechanism.DEFAULT_SAMPLES}, at most "
                             f"{mechanism.MAX_SAMPLES})")
    parser.add_argument("--quiet", action="store_true",
                        default=argparse.SUPPRESS if in_subparser else False,
                        help="suppress informational output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparkfinger",
        description="Simulation tools for a passively mode-switching "
                    "straight-line robotic finger.")
    _add_common_flags(parser, in_subparser=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_common_flags(common, in_subparser=True)

    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="COMMAND")

    p = sub.add_parser("validate", parents=[common],
                       help="check linkage proportions")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("traj", parents=[common],
                       help="drive-rod sweep of the fingertip path")
    p.set_defaults(handler=cmd_traj)

    p = sub.add_parser("forces", parents=[common], help="contact-force sweep")
    p.add_argument("mode", choices=("pinch", "scoop"))
    p.add_argument("--start", type=_finite_float, metavar="DEG",
                   help="sweep start angle (default 0)")
    p.add_argument("--stop", type=_finite_float, metavar="DEG",
                   help="sweep stop angle (default: 90 pinch, "
                        "full distal travel scoop)")
    p.set_defaults(handler=cmd_forces)

    p = sub.add_parser("descend", parents=[common],
                       help="passive mode-switch trace")
    p.add_argument("--max-depth", type=_finite_float, metavar="MM",
                   help="deepest descent to sample")
    p.add_argument("--tilt", dest="tilt_deg", type=_finite_float, metavar="DEG",
                   help="surface tilt (two-finger columns when nonzero)")
    p.set_defaults(handler=cmd_descend)

    p = sub.add_parser("dynamics", parents=[common],
                       help="free-motion integration")
    p.add_argument("--duration", type=_finite_float, metavar="S")
    p.add_argument("--dt", type=_finite_float, metavar="S")
    p.add_argument("--gravity", action=argparse.BooleanOptionalAction,
                   default=None, help="include gravity (default: config)")
    p.add_argument("--q0", type=_triple, metavar="D1,D2,D3",
                   help="initial joint angles in degrees "
                        "(default: straight-line reference pose)")
    p.add_argument("--qdot0", type=_triple, metavar="D1,D2,D3",
                   help="initial joint rates in deg/s (default 0,0,0)")
    p.set_defaults(handler=cmd_dynamics)

    for name, handler in (("fk", cmd_fk), ("jac", cmd_jac)):
        p = sub.add_parser(name, parents=[common],
                           help=f"{name} at given joint angles")
        p.add_argument("theta1", type=_finite_float, help="degrees")
        p.add_argument("theta2", type=_finite_float, help="degrees")
        p.add_argument("theta3", type=_finite_float, help="degrees")
        p.set_defaults(handler=handler)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:       # argparse: 0 after --help, 2 on a usage error
        return exc.code
    try:
        cfg = load_config(args.config, _given(args))
        report = mechanism.validate_kempe_constraints(cfg.finger)
        if not report.ok:
            for violation in report.violations:
                print(f"violation: {violation}")
            return EXIT_DOMAIN
        return args.handler(args, cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
