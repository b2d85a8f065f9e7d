"""Tests for INI run-configuration parsing and validation."""
import re
from pathlib import Path

import pytest

from sparkfinger.config import ConfigError, load_config


def write(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_defaults_without_a_file():
    cfg = load_config(None)
    assert cfg.finger.L1 == 80.0
    assert cfg.dynamics.dt == 1e-4
    assert cfg.statics.T == 20.0
    assert cfg.modeswitch.half_span == 60.0
    assert cfg.output_dir is None
    assert cfg.samples is None


def test_overrides_are_applied(tmp_path):
    cfg = load_config(write(tmp_path, """
[meta]
schema_version = 1

[finger]
L1 = 100
k1 = 75

[dynamics]
gravity = off
dt = 2e-4

[statics]
T = 5.5

[output]
directory = results
samples = 25
"""))
    assert cfg.finger.L1 == 100.0
    assert cfg.finger.L2 == 40.0           # untouched default
    assert cfg.finger.k1 == 75.0
    assert cfg.dynamics.gravity is False
    assert cfg.dynamics.dt == 2e-4
    assert cfg.statics.T == 5.5
    assert cfg.output_dir == "results"
    assert cfg.samples == 25


def test_missing_file_is_an_error(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "absent.ini"))


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown section"):
        load_config(write(tmp_path, "[fingers]\nL1 = 80\n"))


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(write(tmp_path, "[finger]\nL9 = 80\n"))


@pytest.mark.parametrize("key", ["CG", "FG", "q1", "q2", "q3"])
def test_removed_finger_keys_are_named(tmp_path, key):
    with pytest.raises(ConfigError, match=rf"unknown key '{key}' in \[finger\]"):
        load_config(write(tmp_path, f"[finger]\n{key} = 40\n"))


def test_keys_are_case_sensitive(tmp_path):
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(write(tmp_path, "[finger]\nl1 = 80\n"))


def test_malformed_number_is_reported_with_location(tmp_path):
    with pytest.raises(ConfigError, match=r"\[finger\] L1"):
        load_config(write(tmp_path, "[finger]\nL1 = eighty\n"))


def test_malformed_syntax_reports_line(tmp_path):
    with pytest.raises(ConfigError, match="line"):
        load_config(write(tmp_path, "L1 = 80\n"))


def test_bad_boolean_rejected(tmp_path):
    with pytest.raises(ConfigError, match="boolean"):
        load_config(write(tmp_path, "[dynamics]\ngravity = maybe\n"))


def test_unsupported_schema_version(tmp_path):
    with pytest.raises(ConfigError, match="schema_version"):
        load_config(write(tmp_path, "[meta]\nschema_version = 2\n"))


def test_timestep_sanity_enforced(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, "[dynamics]\ndt = 0\n"))
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, "[dynamics]\nduration = 1e-6\n"))
    with pytest.raises(ConfigError, match="MAX_STEPS"):
        load_config(write(tmp_path, "[dynamics]\ndt = 1e-12\n"))


def test_tilt_envelope_enforced(tmp_path):
    # the envelope is SurfaceScenario's; math.radians(45.0) is exactly pi/4
    cfg = load_config(write(tmp_path, "[modeswitch]\ntilt_deg = 45\n"))
    assert cfg.modeswitch.tilt_deg == 45.0
    for tilt in ("45.001", "60.0", "-1.0"):
        with pytest.raises(ConfigError,
                           match=rf"\[modeswitch\] tilt_deg = {tilt}: "
                                 r"tilt .* outside the supported \[0, pi/4\]"):
            load_config(write(tmp_path, f"[modeswitch]\ntilt_deg = {tilt}\n"))


def test_samples_must_be_an_integer_at_least_two(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, "[output]\nsamples = 1\n"))
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, "[output]\nsamples = 2.5\n"))


def test_samples_ceiling_enforced(tmp_path):
    assert load_config(write(tmp_path, "[output]\nsamples = 100000\n")).samples == 100000
    with pytest.raises(ConfigError, match=r"\[output\] samples must be in \[2, 100000\]"):
        load_config(write(tmp_path, "[output]\nsamples = 100001\n"))


def test_com_offsets_default_to_the_link_midpoints(tmp_path):
    cfg = load_config(write(tmp_path, "[finger]\nL1 = 32\nL2 = 16\nL3 = 8\nlc3 = 2\n"))
    assert cfg.finger.coms == (16.0, 8.0, 2.0)


SCALED = "[finger]\nL1 = 32\nL2 = 16\nL3 = 8\nCJ = 11.52\n"


def test_statics_defaults_follow_the_finger(tmp_path):
    stock = load_config(None).statics
    assert (stock.k, stock.d2, stock.d3) == (50.0, 20.0, 14.4)
    scaled = load_config(write(tmp_path, SCALED + "k2 = 80\n")).statics
    assert (scaled.k, scaled.d2, scaled.d3) == (80.0, 8.0, 5.76)
    both = load_config(write(tmp_path, SCALED + "[statics]\nk = 7\nd2 = 16\nd3 = 3\n"))
    assert (both.statics.k, both.statics.d2, both.statics.d3) == (7.0, 16.0, 3.0)


@pytest.mark.parametrize("line, message", [
    ("d2 = 20", r"\[statics\] d2 must be in \(0, L2\] = \(0, 16.0\] \(got 20.0\)"),
    ("d3 = 8.5", r"\[statics\] d3 must be in \(0, L3\] = \(0, 8.0\] \(got 8.5\)"),
    ("d2 = 0", r"\[statics\] d2 must be in \(0, L2\]"),
    ("d3 = -1", r"\[statics\] d3 must be in \(0, L3\]"),
])
def test_contact_distances_must_lie_on_their_phalanges(tmp_path, line, message):
    with pytest.raises(ConfigError, match=message):
        load_config(write(tmp_path, SCALED + f"[statics]\n{line}\n"))


def test_the_readme_example_config_loads(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    example = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    cfg = load_config(write(tmp_path, example))
    assert (cfg.statics.k, cfg.statics.d2, cfg.statics.d3) == (50.0, 20.0, 14.4)
    assert cfg.output_dir == "runs"
