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

The [finger], [dynamics], [statics] and [modeswitch] keys and defaults are
the fields of FingerParams and the settings classes. Unset, [statics] k is
[finger] k2, d2 is L2/2 and d3 is L3*18/25; on a finger the validator
accepts, a set d2 or d3 must lie in (0, L2] or (0, L3]. Key names are
case-sensitive. Angles in config files are degrees.

check_section is the one range check of [dynamics] (dynamics.step_count:
a whole number of dt steps), [statics] (T and k by statics.ActuationInput,
then the contact distances), [modeswitch] (the tilt envelope of
modeswitch.SurfaceScenario, the spans by its span rule) and [output]
samples: load_config runs it on each of them a file sets, the CLI on each a
flag sets, and only then is dynamics, statics or modeswitch imported; a
section left out holds the defaults, which pass.
RunConfig.sources names where each set key's value came from.
"""
from __future__ import annotations

import configparser
import dataclasses
import math
from dataclasses import dataclass

from .mechanism import (DEFAULT_HALF_SPAN, FingerParams, check_sample_count,
                        validate_kempe_constraints)

__all__ = [
    "ConfigError",
    "DynamicsSettings",
    "StaticsSettings",
    "ModeSwitchSettings",
    "RunConfig",
    "check_section",
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
    """Statics inputs; load_config resolves every unset one from the finger."""
    T: float = 20.0             # actuator torque, N·mm
    k: float | None = None      # distal-spring stiffness N·mm/rad; unset: k2
    d2: float | None = None     # contact distance on phalanx 2, mm; unset: L2/2
    d3: float | None = None     # on phalanx 3, mm; unset: L3*18/25
    theta2_deg: float = 30.0    # fixed proximal angle for scoop sweeps


@dataclass(frozen=True)
class ModeSwitchSettings:
    half_span: float = DEFAULT_HALF_SPAN
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
    # "[section] key" -> where its value came from
    sources: dict[str, str] = dataclasses.field(default_factory=dict)


# sections read field by field into their class, defaults included
_SECTIONS = {
    "finger": FingerParams,
    "dynamics": DynamicsSettings,
    "statics": StaticsSettings,
    "modeswitch": ModeSwitchSettings,
}

_SCHEMA: dict[str, tuple[str, ...]] = {
    "meta": ("schema_version",),
    **{section: tuple(f.name for f in dataclasses.fields(cls))
       for section, cls in _SECTIONS.items()},
    "output": ("directory", "samples"),
}

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
    try:
        return parser.getboolean(section, key, fallback=default)
    except ValueError:
        raise ConfigError(f"{path}: [{section}] {key} = "
                          f"{parser.get(section, key)!r} is not a boolean") from None


def _read_section(parser, path, section):
    """The section's settings class, each key read with its field's default."""
    cls = _SECTIONS[section]
    values = {}
    for field in dataclasses.fields(cls):
        get = _get_bool if isinstance(field.default, bool) else _get_float
        values[field.name] = get(parser, path, section, field.name, field.default)
    return cls(**values)


def check_section(cfg: RunConfig, section: str):
    """ValueError, its message starting with the key at fault, unless cfg's
    "dynamics", "statics", "modeswitch" or "output" settings are in range; a
    finger the validator rejects is the finger gate's to report."""
    if section == "dynamics":
        from .dynamics import step_count
        step_count(cfg.dynamics.duration, cfg.dynamics.dt)
    elif section == "statics" and validate_kempe_constraints(cfg.finger).ok:
        from .statics import ActuationInput
        ActuationInput(cfg.statics.T, cfg.statics.k)
        for key, length in (("d2", "L2"), ("d3", "L3")):
            value, bound = getattr(cfg.statics, key), getattr(cfg.finger, length)
            if not 0.0 < value <= bound:
                raise ValueError(f"{key} must be in (0, {length}] = "
                                 f"(0, {bound!r}] (got {value!r})")
    elif section == "modeswitch":
        from .modeswitch import SurfaceScenario, _check_span
        ms = cfg.modeswitch
        try:
            SurfaceScenario(ms.surface_height, math.radians(ms.tilt_deg))
        except ValueError as exc:
            raise ValueError(f"tilt_deg = {ms.tilt_deg!r}: {exc}") from None
        _check_span("half_span", ms.half_span)
        if ms.max_depth is not None:
            _check_span("max_depth", ms.max_depth)
    elif section == "output" and cfg.samples is not None:
        check_sample_count(cfg.samples)


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

    finger = _read_section(parser, path, "finger")

    dynamics = _read_section(parser, path, "dynamics")
    statics = _read_section(parser, path, "statics")
    statics = dataclasses.replace(     # each unset input from the finger
        statics,
        k=finger.k2 if statics.k is None else statics.k,
        d2=finger.L2 / 2.0 if statics.d2 is None else statics.d2,
        # L3*18/25 is exactly 14.4 at L3 = 20, where 0.72*L3 is not
        d3=finger.L3 * 18.0 / 25.0 if statics.d3 is None else statics.d3)
    modeswitch = _read_section(parser, path, "modeswitch")

    output_dir = parser.get("output", "directory", fallback=None)
    samples = _get_float(parser, path, "output", "samples", None)
    if samples is not None and not samples.is_integer():
        raise ConfigError(f"{path}: [output] samples must be an integer")

    cfg = RunConfig(finger=finger, dynamics=dynamics, statics=statics,
                    modeswitch=modeswitch, output_dir=output_dir,
                    samples=None if samples is None else int(samples),
                    sources={f"[{section}] {key}": f"[{section}] {key} in {path}"
                             for section in parser.sections()
                             for key in parser[section]})
    for section in ("dynamics", "statics", "modeswitch", "output"):
        if parser.has_section(section):
            try:
                check_section(cfg, section)
            except ValueError as exc:
                raise ConfigError(f"{path}: [{section}] {exc}") from None
    return cfg
