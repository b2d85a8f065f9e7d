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
the fields of FingerParams and the settings classes; [output] directory
defaults to "." and samples to DEFAULT_SAMPLES. Unset, [statics] k is
[finger] k2, d2 is L2/2 and d3 is L3*18/25; on a finger the validator
accepts, a set d2 or d3 must lie in (0, L2] or (0, L3]. Key names are
case-sensitive. Angles in config files are degrees.

load_config is the one settings pass: it takes each key from the command
line's settings, else the file, else the default, and names the source of
each in RunConfig.sources. A file value that the command line replaces is
parsed but not range-checked. Each of [dynamics] (dynamics.step_count: a
whole number of dt steps), [statics] (T and k by statics.ActuationInput,
then the contact distances), [modeswitch] (the tilt envelope of
modeswitch.SurfaceScenario, the spans by its span rule) and [output]
samples that the file or the command line sets is then checked once, on
the resolved values, and only then is dynamics, statics or modeswitch
imported; a section left out holds the defaults, which pass.
"""
from __future__ import annotations

import configparser
import dataclasses
import math
from dataclasses import dataclass

from .mechanism import (DEFAULT_HALF_SPAN, DEFAULT_SAMPLES, FingerParams,
                        check_sample_count, validate_kempe_constraints)

__all__ = [
    "ConfigError",
    "UsageError",
    "DynamicsSettings",
    "StaticsSettings",
    "ModeSwitchSettings",
    "RunConfig",
    "load_config",
]

SCHEMA_VERSION = 1


class ConfigError(Exception):
    """Unusable run configuration (missing file, parse error, bad key)."""


class UsageError(ConfigError):
    """A fault the command line had a hand in: the CLI's `error:`, exit 2."""


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
    output_dir: str
    samples: int
    # "[section] key" -> where its value came from: a flag, $SPARKFINGER_OUT,
    # "[section] key in FILE" or "the default"
    sources: dict[str, str]


# sections read field by field into their class
_SECTIONS = {
    "finger": FingerParams,
    "dynamics": DynamicsSettings,
    "statics": StaticsSettings,
    "modeswitch": ModeSwitchSettings,
}

# section -> key -> default; a value is parsed as its default's type
_SCHEMA: dict[str, dict[str, object]] = {
    "meta": {"schema_version": float(SCHEMA_VERSION)},
    **{section: {f.name: f.default for f in dataclasses.fields(cls)}
       for section, cls in _SECTIONS.items()},
    "output": {"directory": ".", "samples": DEFAULT_SAMPLES},
}

# the keys each section's range check reads: [output] directory is checked
# where it is written
_CHECKED = {**{section: tuple(_SCHEMA[section])
               for section in ("dynamics", "statics", "modeswitch")},
            "output": ("samples",)}

_BY_DEFAULT = "the default"


def _check_schema(parser: configparser.ConfigParser, path: str):
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")


def _parse(raw: str, default, where: str):
    """The file's text raw for the key at where, read as default's type."""
    if isinstance(default, str):
        return raw
    if isinstance(default, bool):
        state = configparser.ConfigParser.BOOLEAN_STATES.get(raw.lower())
        if state is None:
            raise ConfigError(f"{where} = {raw!r} is not a boolean")
        return state
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{where} = {raw!r} is not a number") from None
    if not math.isfinite(value):
        raise ConfigError(f"{where} must be finite")
    if isinstance(default, int):
        if not value.is_integer():
            raise ConfigError(f"{where} must be an integer")
        return int(value)
    return value


def _read(parser, path, given, sources, section) -> dict:
    """Each key of section from given, else the file, else its default; the
    source of each into sources. A file value is parsed even where given
    replaces it."""
    values = {}
    for key, default in _SCHEMA[section].items():
        name = f"[{section}] {key}"
        if parser.has_option(section, key):
            by_file = (_parse(parser.get(section, key), default, f"{path}: {name}"),
                       f"{name} in {path}")
        else:
            by_file = (default, _BY_DEFAULT)
        values[key], sources[name] = given.get(name, by_file)
    return values


def _check_section(cfg: RunConfig, section: str):
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
    elif section == "output":
        check_sample_count(cfg.samples)


def load_config(path: str | None = None, given: dict | None = None) -> RunConfig:
    """The RunConfig of the INI file at path (None: no file) and of given,
    the command line's settings as "[section] key" -> (value, source): each
    key from given, else the file, else its default. Any problem raises
    ConfigError; a range fault in a section that given sets is a UsageError
    naming the source of each key of that section the file or given sets."""
    given = given or {}
    # no header can name the empty default section, so a [DEFAULT] in a
    # file is an ordinary section, and refused like any unknown one
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    parser.optionxform = str  # keep keys case-sensitive

    if path is not None:
        try:
            with open(path, encoding="utf-8") as handle:
                parser.read_file(handle, source=path)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        except configparser.Error as exc:
            raise ConfigError(f"bad config syntax: {exc}") from None
    else:
        path = "<defaults>"

    _check_schema(parser, path)

    sources = {}
    version = _read(parser, path, given, sources, "meta")["schema_version"]
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"{path}: schema_version {version:g} is not supported "
            f"(expected {SCHEMA_VERSION})")

    finger, dynamics, statics, modeswitch = (
        cls(**_read(parser, path, given, sources, section))
        for section, cls in _SECTIONS.items())
    statics = dataclasses.replace(     # each unset input from the finger
        statics,
        k=finger.k2 if statics.k is None else statics.k,
        d2=finger.L2 / 2.0 if statics.d2 is None else statics.d2,
        # L3*18/25 is exactly 14.4 at L3 = 20, where 0.72*L3 is not
        d3=finger.L3 * 18.0 / 25.0 if statics.d3 is None else statics.d3)
    output = _read(parser, path, given, sources, "output")

    cfg = RunConfig(finger=finger, dynamics=dynamics, statics=statics,
                    modeswitch=modeswitch, output_dir=output["directory"],
                    samples=output["samples"], sources=sources)
    for section, keys in _CHECKED.items():
        named = [name for name in (f"[{section}] {key}" for key in keys)
                 if sources[name] != _BY_DEFAULT]
        if not named:
            continue
        try:
            _check_section(cfg, section)
        except ValueError as exc:
            if not any(name in given for name in named):
                raise ConfigError(f"{path}: [{section}] {exc}") from None
            raise UsageError(f"[{section}] {exc} (set by "
                             f"{', '.join(sources[name] for name in named)})") from None
    return cfg
