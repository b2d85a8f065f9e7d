"""INI run-configuration for the command-line tools.

A config file is optional — every key has a default matching the stock
finger — but anything present is validated strictly: unknown sections or
keys, malformed numbers, and unsupported schema versions are all reported
as ConfigError with the offending location, so a typo never silently runs
with defaults.

Schema (all keys optional)::

    [meta]       schema_version = 1
    [finger]     L1 L2 L3 CJ dh1 dh2 dtheta_c1
                 k1 k2 m1 m2 m3 lc1 lc2 lc3 g
    [dynamics]   duration  dt  gravity
    [statics]    T  k  d2  d3  theta2_deg
    [modeswitch] half_span  tilt_deg  surface_height  max_depth
    [output]     directory  samples

Key names are case-sensitive. Angles in config files are degrees.
"""
from __future__ import annotations

import configparser
import dataclasses
import math
from dataclasses import dataclass

from .dynamics import step_count
from .mechanism import FingerParams, check_sample_count

__all__ = [
    "ConfigError",
    "DynamicsSettings",
    "StaticsSettings",
    "ModeSwitchSettings",
    "RunConfig",
    "load_config",
]

SCHEMA_VERSION = 1


class ConfigError(Exception):
    """Unusable run configuration (missing file, parse error, bad key)."""


@dataclass(frozen=True)
class DynamicsSettings:
    duration: float = 1.0
    dt: float = 1e-4
    gravity: bool = True


@dataclass(frozen=True)
class StaticsSettings:
    T: float = 20.0          # actuator torque, N·mm
    k: float = 50.0          # limiting-spring stiffness, N·mm/rad
    d2: float = 20.0         # contact distance on phalanx 2, mm
    d3: float = 14.4         # contact distance on phalanx 3, mm
    theta2_deg: float = 30.0  # fixed proximal angle for scoop sweeps


@dataclass(frozen=True)
class ModeSwitchSettings:
    half_span: float = 60.0
    tilt_deg: float = 0.0
    surface_height: float = 0.0
    max_depth: float | None = None


@dataclass(frozen=True)
class RunConfig:
    finger: FingerParams
    dynamics: DynamicsSettings
    statics: StaticsSettings
    modeswitch: ModeSwitchSettings
    output_dir: str | None = None
    samples: int | None = None


_FINGER_KEYS = tuple(f.name for f in dataclasses.fields(FingerParams))

_SCHEMA: dict[str, tuple[str, ...]] = {
    "meta": ("schema_version",),
    "finger": _FINGER_KEYS,
    "dynamics": ("duration", "dt", "gravity"),
    "statics": ("T", "k", "d2", "d3", "theta2_deg"),
    "modeswitch": ("half_span", "tilt_deg", "surface_height", "max_depth"),
    "output": ("directory", "samples"),
}

_BOOL_WORDS = {"1": True, "yes": True, "true": True, "on": True,
               "0": False, "no": False, "false": False, "off": False}


def _check_schema(parser: configparser.ConfigParser, path: str):
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")


def _get_float(parser, path, section, key, default):
    raw = parser.get(section, key, fallback=None)
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(
            f"{path}: [{section}] {key} = {raw!r} is not a number") from None
    if not math.isfinite(value):
        raise ConfigError(f"{path}: [{section}] {key} must be finite")
    return value


def _get_bool(parser, path, section, key, default):
    raw = parser.get(section, key, fallback=None)
    if raw is None:
        return default
    try:
        return _BOOL_WORDS[raw.strip().lower()]
    except KeyError:
        raise ConfigError(
            f"{path}: [{section}] {key} = {raw!r} is not a boolean") from None


def load_config(path: str | None = None) -> RunConfig:
    """Build a RunConfig from an INI file, or from pure defaults if
    path is None. Any problem raises ConfigError."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep keys case-sensitive

    if path is not None:
        try:
            with open(path, encoding="utf-8") as handle:
                parser.read_file(handle, source=path)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        except configparser.Error as exc:
            raise ConfigError(f"bad config syntax: {exc}") from None
    else:
        path = "<defaults>"

    _check_schema(parser, path)

    version = _get_float(parser, path, "meta", "schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"{path}: schema_version {version:g} is not supported "
            f"(expected {SCHEMA_VERSION})")

    overrides = {}
    for key in _FINGER_KEYS:
        default = getattr(FingerParams, key)
        value = _get_float(parser, path, "finger", key, default)
        if value != default:
            overrides[key] = value
    try:
        finger = FingerParams(**overrides)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: bad [finger] values: {exc}") from None

    dynamics = DynamicsSettings(
        duration=_get_float(parser, path, "dynamics", "duration", 1.0),
        dt=_get_float(parser, path, "dynamics", "dt", 1e-4),
        gravity=_get_bool(parser, path, "dynamics", "gravity", True),
    )
    try:
        step_count(dynamics.duration, dynamics.dt)
    except ValueError as exc:
        raise ConfigError(f"{path}: [dynamics] {exc}") from None

    statics = StaticsSettings(
        T=_get_float(parser, path, "statics", "T", 20.0),
        k=_get_float(parser, path, "statics", "k", 50.0),
        d2=_get_float(parser, path, "statics", "d2", 20.0),
        d3=_get_float(parser, path, "statics", "d3", 14.4),
        theta2_deg=_get_float(parser, path, "statics", "theta2_deg", 30.0),
    )
    if statics.d2 <= 0 or statics.d3 <= 0:
        raise ConfigError(f"{path}: [statics] d2 and d3 must be > 0")

    max_depth = _get_float(parser, path, "modeswitch", "max_depth", None)
    modeswitch = ModeSwitchSettings(
        half_span=_get_float(parser, path, "modeswitch", "half_span", 60.0),
        tilt_deg=_get_float(parser, path, "modeswitch", "tilt_deg", 0.0),
        surface_height=_get_float(parser, path, "modeswitch",
                                  "surface_height", 0.0),
        max_depth=max_depth,
    )
    if not (0.0 <= modeswitch.tilt_deg <= 45.0):
        raise ConfigError(f"{path}: [modeswitch] tilt_deg must be in [0, 45]")
    if modeswitch.half_span <= 0:
        raise ConfigError(f"{path}: [modeswitch] half_span must be > 0")
    if max_depth is not None and max_depth <= 0:
        raise ConfigError(f"{path}: [modeswitch] max_depth must be > 0")

    output_dir = parser.get("output", "directory", fallback=None)
    samples_raw = _get_float(parser, path, "output", "samples", None)
    samples = None
    if samples_raw is not None:
        samples = int(samples_raw)
        if samples != samples_raw:
            raise ConfigError(f"{path}: [output] samples must be an integer")
        try:
            check_sample_count(samples)
        except ValueError as exc:
            raise ConfigError(f"{path}: [output] {exc}") from None

    return RunConfig(finger=finger, dynamics=dynamics, statics=statics,
                     modeswitch=modeswitch, output_dir=output_dir,
                     samples=samples)
