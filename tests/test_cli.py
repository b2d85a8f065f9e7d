"""Tests of the command-line interface.

The CLI tests run cli.main in process through run_cli; only the tests of the
process itself start a child interpreter: every test in tests/test_entry.py,
acceptance check c10 (byte-identical reruns across processes) and
test_each_subcommand_loads_only_the_modules_it_runs, which needs fresh
interpreters and checks each against run_cli.
"""
import contextlib
import csv
import dataclasses
import hashlib
import io
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from sparkfinger import cli, config, dynamics, kinematics, mechanism, statics

# a hung child fails its test instead of holding the job
CHILD_TIMEOUT_S = 60


def run_cli(*args: str, env_extra=None) -> subprocess.CompletedProcess:
    """cli.main(args) in this process, with $SPARKFINGER_OUT cleared and
    env_extra set: its exit status and what it wrote to each stream."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        os.environ.pop("SPARKFINGER_OUT", None)
        os.environ.update(env_extra or {})
        code = cli.main(list(args))
    return subprocess.CompletedProcess(args, code, stdout.getvalue(), stderr.getvalue())


def read_rows(path: Path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def written(directory: Path) -> dict:
    """Each file under directory, by its relative path: its bytes."""
    return {str(path.relative_to(directory)): path.read_bytes()
            for path in sorted(directory.rglob("*")) if path.is_file()}


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_default_geometry_passes():
    cp = run_cli("validate")
    assert cp.returncode == 0, cp.stderr
    assert "ok" in cp.stdout


def test_validate_reports_broken_ratio(tmp_path):
    ini = tmp_path / "bad.ini"
    ini.write_text("[finger]\nL3 = 21\n")
    cp = run_cli("--config", str(ini), "validate")
    assert cp.returncode == 1
    assert "4:1" in cp.stdout


@pytest.mark.parametrize("line, named", [
    ("m2 = 0", "violation: m2 must be > 0"),
    ("dtheta_c1 = -30", "violation: dtheta_c1 must be in (0, 90)"),
    ("lc1 = 100", "violation: lc1 must be in [0, L1] = [0, 80.0] (got 100.0)"),
])
def test_validate_names_a_bad_mass_or_distal_rotation(tmp_path, line, named):
    ini = tmp_path / "bad.ini"
    ini.write_text(f"[finger]\n{line}\n")
    cp = run_cli("--config", str(ini), "validate")
    assert cp.returncode == 1
    assert named in cp.stdout


@pytest.mark.parametrize("line, argv, named", [
    ("dh2 = -5", ["descend"], "violation: dh2 must be > 0"),
    ("dh2 = 1e-10", ["descend"], "violation: dh2 must be > 2*BOUNDARY_GRACE"),
    ("dtheta_c1 = -30", ["descend"], "violation: dtheta_c1 must be in (0, 90)"),
    ("dtheta_c1 = -30", ["forces", "scoop"], "violation: dtheta_c1 must be in (0, 90)"),
    ("m2 = 0", ["dynamics", "--duration", "0.001"], "violation: m2 must be > 0"),
    ("L3 = 21", ["traj"], "violation: L1:L3 != 4:1"),
    ("L3 = 21", ["fk", "0", "0", "0"], "violation: L1:L3 != 4:1"),
    # a set d2 is bounded by L2 only on a finger the validator accepts
    ("L2 = -1\n[statics]\nd2 = 5", ["forces", "scoop"],
     "violation: L2 must be > 0 (got -1.0)"),
])
def test_every_subcommand_refuses_an_invalid_finger(tmp_path, line, argv, named):
    ini = tmp_path / "bad.ini"
    ini.write_text(f"[finger]\n{line}\n")
    out = tmp_path / "out"
    cp = run_cli("--config", str(ini), "--out", str(out), *argv)
    assert cp.returncode == 1
    assert named in cp.stdout
    assert cp.stderr == ""
    assert not out.exists()


def test_malformed_config_is_a_usage_error(tmp_path):
    ini = tmp_path / "broken.ini"
    ini.write_text("L1 = 80\n")  # no section header
    cp = run_cli("--config", str(ini), "validate")
    assert cp.returncode == 2
    assert "config error" in cp.stderr


def test_a_config_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_bytes(b"[finger]\nL1 = 80\xff\n")
    assert cli.main(["--config", str(ini), "validate"]) == 2
    assert capsys.readouterr().err == (
        f"config error: cannot read config {ini}: 'utf-8' codec can't decode "
        "byte 0xff in position 16: invalid start byte\n")


def test_unknown_config_key_is_a_usage_error(tmp_path):
    ini = tmp_path / "typo.ini"
    ini.write_text("[finger]\nL1_mm = 80\n")
    cp = run_cli("--config", str(ini), "validate")
    assert cp.returncode == 2


@pytest.mark.parametrize("text", ["[DEFAULT]\nL9 = 5\n", "[DEFAULT]\nL1 = 100\n[finger]\n"],
                         ids=["unknown-key", "finger-key"])
def test_a_default_section_is_an_unknown_section(tmp_path, capsys, text):
    # configparser would read [DEFAULT]'s keys in every section and leave
    # the section itself out of the schema check
    ini = tmp_path / "defaults.ini"
    ini.write_text(text)
    assert cli.main(["--config", str(ini), "validate"]) == 2
    assert capsys.readouterr() == ("", f"config error: {ini}: unknown section [DEFAULT]\n")


@pytest.mark.parametrize("text, message", [
    ("[dynamics]\ndt = 0\n", "[dynamics] dt must be > 0"),
    ("[modeswitch]\ntilt_deg = 60\n", "[modeswitch] tilt_deg = 60.0: tilt 1.047 "
                                      "rad outside the supported [0, pi/4] range"),
    ("[modeswitch]\nhalf_span = -3\n",
     "[modeswitch] half_span must be finite and > 0 (got -3.0)"),
    ("[statics]\nk = -1\n", "[statics] k must be finite and >= 0 (got -1.0)"),
    ("[dynamics]\nduration = 0.0025\ndt = 1e-3\n",
     "[dynamics] duration 0.0025 is not a whole number of dt = 0.001 steps "
     "(duration/dt = 2.5)"),
])
def test_a_set_section_is_checked_by_its_own_module(tmp_path, text, message):
    # validate runs neither module, yet the section a file sets is checked
    ini = tmp_path / "run.ini"
    ini.write_text(text)
    cp = run_cli("--config", str(ini), "validate")
    assert cp.returncode == 2
    assert cp.stdout == ""
    assert cp.stderr == f"config error: {ini}: {message}\n"


# ---------------------------------------------------------------------------
# start-up: each subcommand loads only the modules it runs
# ---------------------------------------------------------------------------

LIST_MODULES = (
    "import sys\n"
    "from sparkfinger import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    "print(*sorted(name for name in sys.modules if name.startswith('sparkfinger.')))\n"
    "sys.exit(code)\n")


@pytest.mark.parametrize("argv, config, runs", [
    (["validate"], None, []),
    (["traj"], None, []),
    (["forces", "pinch"], None, ["statics"]),
    (["forces", "scoop"], None, ["statics"]),
    (["descend"], None, ["modeswitch"]),
    (["descend", "--tilt", "20"], None, ["modeswitch"]),
    (["dynamics", "--duration", "0.002"], None, ["dynamics", "kinematics"]),
    (["fk", "10", "20", "30"], None, ["kinematics"]),
    (["jac", "10", "20", "30"], None, ["kinematics"]),
    (["validate"], "[dynamics]\ndt = 2e-4\n", ["dynamics"]),
    (["validate"], "[modeswitch]\ntilt_deg = 10\n", ["modeswitch"]),
    (["validate"], "[statics]\nk = 7\n", ["statics"]),
], ids=["validate", "traj", "forces pinch", "forces scoop", "descend",
        "descend tilted", "dynamics", "fk", "jac", "validate [dynamics]",
        "validate [modeswitch]", "validate [statics]"])
def test_each_subcommand_loads_only_the_modules_it_runs(tmp_path, argv, config,
                                                        runs):
    if config is not None:
        ini = tmp_path / "run.ini"
        ini.write_text(config)
        argv = ["--config", str(ini), *argv]
    env = os.environ.copy()
    env.pop("SPARKFINGER_OUT", None)
    cp = subprocess.run([sys.executable, "-c", LIST_MODULES, *argv,
                         "--out", str(tmp_path / "out"), "--quiet"],
                        capture_output=True, text=True, env=env,
                        timeout=CHILD_TIMEOUT_S)
    assert cp.returncode == 0, cp.stderr
    *printed, loaded = cp.stdout.splitlines(keepends=True)
    assert loaded.split() == sorted(f"sparkfinger.{name}"
                                    for name in ["cli", "config", "mechanism", *runs])
    # the fresh interpreter pins run_cli: the same status, streams and files
    here = run_cli(*argv, "--out", str(tmp_path / "here"), "--quiet")
    assert (here.returncode, here.stdout, here.stderr) == (cp.returncode,
                                                           "".join(printed), cp.stderr)
    assert written(tmp_path / "here") == written(tmp_path / "out")


# ---------------------------------------------------------------------------
# traj
# ---------------------------------------------------------------------------

def test_traj_writes_both_series_and_a_summary(tmp_path):
    cp = run_cli("traj", "--samples", "40", "--out", str(tmp_path))
    assert cp.returncode == 0, cp.stderr
    assert "max_dev_mm=" in cp.stdout and "rms_dev_mm=" in cp.stdout
    max_dev = float(cp.stdout.split("max_dev_mm=")[1].split()[0])
    assert max_dev <= 8e-5

    rows = read_rows(tmp_path / "trajectory.csv")
    assert rows[0] == ["driver_mm", "tip_x_mm", "tip_y_mm", "orientation_rad"]
    assert len(rows) == 41

    disp = read_rows(tmp_path / "displacement.csv")
    assert disp[0] == ["driver_mm", "along_line_mm", "off_line_mm"]
    # horizontal deviation column stays at solver noise level
    assert all(abs(float(r[2])) <= 8e-5 for r in disp[1:])


def test_traj_two_samples_gives_two_rows(tmp_path):
    cp = run_cli("traj", "--samples", "2", "--out", str(tmp_path), "--quiet")
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout == ""
    assert len(read_rows(tmp_path / "trajectory.csv")) == 3


def test_traj_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("traj", "--samples", "30", "--out", str(a)).returncode == 0
    assert run_cli("traj", "--samples", "30", "--out", str(b)).returncode == 0
    for name in ("trajectory.csv", "displacement.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_sample_count_must_be_sane():
    cp = run_cli("traj", "--samples", "1")
    assert cp.returncode == 2


def test_sample_ceiling_is_shared_by_flag_and_config(tmp_path):
    cp = run_cli("traj", "--samples", "3000000", "--out", str(tmp_path))
    assert cp.returncode == 2
    assert "100000" in cp.stderr
    ini = tmp_path / "many.ini"
    ini.write_text("[output]\nsamples = 100001\n")
    cp = run_cli("--config", str(ini), "traj", "--out", str(tmp_path))
    assert cp.returncode == 2
    assert "100000" in cp.stderr
    assert not (tmp_path / "trajectory.csv").exists()


def test_traj_summary_reports_the_verification(tmp_path):
    cp = run_cli("traj", "--samples", "50", "--out", str(tmp_path))
    assert cp.returncode == 0, cp.stderr
    fields = dict(word.split("=") for word in cp.stdout.split() if "=" in word)
    assert 0.0 <= float(fields["max_residual_mm"]) <= 1e-10


@given(L1=st.floats(min_value=-2.0, max_value=7.0).map(lambda e: 10.0 ** e),
       cj_share=st.floats(min_value=1e-3, max_value=1.0236))
@example(L1=8e5, cj_share=0.36)
@example(L1=8e-3, cj_share=0.36)
@settings(max_examples=30, deadline=None)
def test_traj_keeps_its_guarantees_on_every_accepted_scale(L1, cj_share):
    # in process, for speed: a stock-shaped finger from 0.01 mm to 10 km,
    # its tip arm up to the validator's bound; the sweep accepts each pose
    # on a tolerance relative to the finger's size
    params = mechanism.FingerParams(L1=L1, L2=L1 / 2, L3=L1 / 4, CJ=cj_share * L1)
    assume(mechanism.validate_kempe_constraints(params).ok)
    with tempfile.TemporaryDirectory() as out:
        ini = Path(out) / "finger.ini"
        ini.write_text("[finger]\n" + "".join(
            f"{key} = {getattr(params, key)!r}\n" for key in ("L1", "L2", "L3", "CJ")))
        cp = run_cli("--config", str(ini), "--out", out, "traj")
        assert cp.returncode == 0
        rows = [[float(c) for c in row]
                for row in read_rows(Path(out) / "trajectory.csv")[1:]]
    assert all(math.isfinite(v) for row in rows for v in row)
    xs = [row[1] for row in rows]
    angles = [row[3] for row in rows]
    assert max(abs(x - xs[0]) for x in xs) <= 1e-12 * L1
    assert max(angles) - min(angles) <= 1e-9
    fields = dict(word.split("=") for word in cp.stdout.split() if "=" in word)
    assert float(fields["max_residual_mm"]) <= mechanism.spark_preset(params).tol


# ---------------------------------------------------------------------------
# forces
# ---------------------------------------------------------------------------

def test_pinch_force_table_is_monotone(tmp_path):
    cp = run_cli("forces", "pinch", "--out", str(tmp_path))
    assert cp.returncode == 0, cp.stderr
    rows = read_rows(tmp_path / "forces_pinch.csv")
    assert rows[0] == ["sweep_var", "value", "F2_N", "F3_N", "status"]
    assert all(r[0] == "theta2_deg" and r[2] == "" and r[4] == "ok"
               for r in rows[1:])
    f3 = [float(r[3]) for r in rows[1:]]
    assert f3 == sorted(f3)
    assert f3[0] == 20.0 / (14.4 + 40.0)


def test_scoop_with_spring_disabled_gives_zero_distal_force(tmp_path):
    ini = tmp_path / "nospring.ini"
    ini.write_text("[statics]\nk = 0\n")
    cp = run_cli("--config", str(ini), "forces", "scoop",
                 "--out", str(tmp_path), "--samples", "12")
    assert cp.returncode == 0, cp.stderr
    rows = read_rows(tmp_path / "forces_scoop.csv")
    assert len(rows) == 13
    assert all(float(r[3]) == 0.0 for r in rows[1:])


def test_scoop_distal_force_is_linear_in_the_sweep(tmp_path):
    cp = run_cli("forces", "scoop", "--out", str(tmp_path), "--samples", "20")
    assert cp.returncode == 0, cp.stderr
    rows = read_rows(tmp_path / "forces_scoop.csv")[1:]
    deg = [float(r[1]) for r in rows]
    f3 = [float(r[3]) for r in rows]
    slope = (f3[-1] - f3[0]) / (deg[-1] - deg[0])
    predicted = [f3[0] + slope * (d - deg[0]) for d in deg]
    assert max(abs(a - b) for a, b in zip(f3, predicted)) < 1e-12


def test_scoop_rows_with_a_non_finite_force_are_not_ok(tmp_path, capsys):
    # past about 7e306 degrees of distal deflection the spring term of F2
    # overflows; such a row names the force and carries none
    assert cli.main(["--out", str(tmp_path), "forces", "scoop", "--stop", "1e308"]) == 0
    assert "(100 rows, 83 failed)" in capsys.readouterr().out
    rows = read_rows(tmp_path / "forces_scoop.csv")[1:]
    for row in rows:
        if row[4] == "ok":
            assert all(math.isfinite(float(v)) for v in row[1:4])
        else:
            assert row[2:4] == ["", ""]
            assert row[4].startswith("non-finite force F2 = ")
    assert sum(row[4] != "ok" for row in rows) == 83


@pytest.mark.parametrize("mode, span", [
    ("pinch", ["--start=-1e308", "--stop=1e308"]),
    ("scoop", ["--start=1e308", "--stop=-1e308"]),
])
def test_forces_refuses_a_span_past_the_float_range(tmp_path, capsys, mode, span):
    out = tmp_path / "out"
    assert cli.main(["--out", str(out), "forces", mode, *span]) == 2
    err = capsys.readouterr().err
    assert "--start" in err and "--stop" in err and "not a finite span" in err
    assert not out.exists()


SCALED = "[finger]\nL1 = 32\nL2 = 16\nL3 = 8\nCJ = 11.52\n"


def _scoop_rows(tmp_path, ini_text):
    ini = tmp_path / "run.ini"
    ini.write_text(ini_text)
    cp = run_cli("--config", str(ini), "forces", "scoop", "--samples", "5",
                 "--out", str(tmp_path))
    assert cp.returncode == 0, cp.stderr
    return [[float(r[1]), float(r[2]), float(r[3])]
            for r in read_rows(tmp_path / "forces_scoop.csv")[1:]]


def _expected_scoop(deg, k, d2, d3, L2):
    fr = statics.scoop_forces(
        statics.ActuationInput(T=20.0, k=k),
        statics.ContactGeometry(d2=d2, d3=d3, theta2=math.radians(30.0),
                                theta3=math.radians(deg)), L2)
    return [deg, fr.F2, fr.F3]


def test_scoop_contacts_follow_a_scaled_finger(tmp_path):
    # d2 = L2/2 and d3 = L3*18/25: 8 and 5.76 mm on the 0.4-scale finger
    rows = _scoop_rows(tmp_path, SCALED)
    assert rows == [_expected_scoop(r[0], 50.0, 8.0, 5.76, 16.0) for r in rows]


def test_scoop_spring_defaults_to_the_distal_spring(tmp_path):
    rows = _scoop_rows(tmp_path, "[finger]\nk2 = 80\n")
    assert rows == [_expected_scoop(r[0], 80.0, 20.0, 14.4, 40.0) for r in rows]


def test_contact_past_its_phalanx_is_a_usage_error(tmp_path):
    ini = tmp_path / "far.ini"
    ini.write_text(SCALED + "[statics]\nd2 = 20\n")
    cp = run_cli("--config", str(ini), "forces", "scoop", "--out", str(tmp_path))
    assert cp.returncode == 2
    assert "[statics] d2 must be in (0, L2] = (0, 16.0] (got 20.0)" in cp.stderr

def test_validate_rejects_a_tip_arm_the_chain_cannot_follow(tmp_path):
    ini = tmp_path / "long.ini"
    ini.write_text("[finger]\nCJ = 120\n")
    cp = run_cli("--config", str(ini), "validate")
    assert cp.returncode == 1
    assert "violation: CJ must be <= 81.88358" in cp.stdout


# SHA-256 of the stock CSVs. The statics and mode-switch rows use only
# arithmetic and math functions, and the sweep only arithmetic, numpy's
# correctly rounded sqrt and an atan2 of an exactly vertical segment, so a
# refactor of any of these layers must keep them.
STOCK_DIGESTS = {
    ("forces", "pinch"): {"forces_pinch.csv":
        "e2878f7eabd037eef38250a70301251fea9863a3021e364be5e63fc9e33b53f0"},
    ("forces", "scoop"): {"forces_scoop.csv":
        "134d1035e24fafc4be4263e29f49b19ce1e7c21d5b83e19f54a0db86e03424c1"},
    ("descend",): {"descend.csv":
        "531d4ae49ce82a91641d10dad217aa208bd94128b5c890b666155a6e67f7c27e"},
    ("descend", "--tilt", "20"): {"descend.csv":
        "0649fc90d89b7df732429bb09f8fa302454b62790a64c8b838c15c4a901b984a"},
    ("traj",): {
        "trajectory.csv":
            "807700f853656e4b3658f64cc4c064063038445a3bf151a8182a3449e6361d24",
        "displacement.csv":
            "b1a0f66601355d1dcd13ff4b578555ab2965deb9b3c0d583dc217505a33097ab"},
    ("traj", "--samples", "1000"): {
        "trajectory.csv":
            "cbd1c29dbe54fbe5ce2eb1f8a6e8bdfa9aa1a3816a3e375efeaca3c2746e7bc6",
        "displacement.csv":
            "fb6a3d4a01b8aae0e51eaf30567ca03419a7003f11cd29abf431f3f2a3071a74"},
    ("traj", "--samples", "2"): {
        "trajectory.csv":
            "9b55c7aabbcac020efbab98dcdc171ea070ec3b191dd88667238cdefd1926095",
        "displacement.csv":
            "329568a03da8edd0e39d8585d099720865a31421663536b63a9d05fcd0029ec2"},
}

# the end of each stock sweep's summary line: the residual pins the sweep's
# check to the last bit, which no CSV column shows
STOCK_SUMMARIES = {
    ("traj",):
        "max_dev_mm=0 rms_dev_mm=0 max_residual_mm=2.0636605488325859e-14",
    ("traj", "--samples", "1000"):
        "max_dev_mm=0 rms_dev_mm=0 max_residual_mm=2.3689130599165284e-14",
    ("traj", "--samples", "2"):
        "max_dev_mm=0 rms_dev_mm=0 max_residual_mm=1.7968745262125166e-14",
}


@pytest.mark.parametrize("argv", list(STOCK_DIGESTS), ids=" ".join)
def test_stock_csvs_are_pinned(tmp_path, capsys, argv):
    assert cli.main(["--out", str(tmp_path), *argv]) == 0
    for name, digest in STOCK_DIGESTS[argv].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
    if argv in STOCK_SUMMARIES:
        assert capsys.readouterr().out.rstrip().endswith(STOCK_SUMMARIES[argv])


# ---------------------------------------------------------------------------
# descend
# ---------------------------------------------------------------------------

def test_descend_reaches_scoop_complete(tmp_path):
    cp = run_cli("descend", "--max-depth", "30.4", "--out", str(tmp_path))
    assert cp.returncode == 0, cp.stderr
    rows = read_rows(tmp_path / "descend.csv")
    assert rows[0] == ["depth_mm", "mode", "distal_rotation_deg",
                       "k1_moment_Nmm", "k2_moment_Nmm"]
    assert rows[-1][1] == "ScoopComplete"
    assert float(rows[-1][2]) == 22.8
    assert cp.stdout.strip().endswith("descend.csv final_mode=ScoopComplete")


def test_shallow_descend_stays_in_pinch(tmp_path):
    cp = run_cli("descend", "--max-depth", "10", "--out", str(tmp_path))
    assert cp.returncode == 0, cp.stderr
    rows = read_rows(tmp_path / "descend.csv")[1:]
    assert all(r[1] == "PinchContact" for r in rows)


def test_tilted_descend_emits_per_finger_columns(tmp_path):
    cp = run_cli("descend", "--tilt", "15", "--out", str(tmp_path))
    assert cp.returncode == 0, cp.stderr
    rows = read_rows(tmp_path / "descend.csv")
    assert "mode_leading" in rows[0] and "mode_trailing" in rows[0]
    lead = rows[0].index("mode_leading")
    trail = rows[0].index("mode_trailing")
    assert any(r[lead] != r[trail] for r in rows[1:])


def test_tilted_descend_honours_half_span_and_surface_height(tmp_path):
    ini = tmp_path / "tilt.ini"
    ini.write_text("[modeswitch]\nhalf_span = 30\nsurface_height = 5\n"
                   "tilt_deg = 20\n")
    cp = run_cli("--config", str(ini), "descend", "--samples", "120",
                 "--out", str(tmp_path))
    assert cp.returncode == 0, cp.stderr
    header, *rows = read_rows(tmp_path / "descend.csv")
    lead = header.index("rotation_leading_deg")
    trail = header.index("rotation_trailing_deg")
    lag = 30.0 * math.sin(math.radians(20.0))

    def rotation(pen):  # stock dh1 = 15.8, dh2 = 14.6, dtheta_c1 = 22.8
        return min(max((pen - 15.8) / 14.6, 0.0), 1.0) * 22.8

    assert float(rows[-1][trail]) > 0.0
    # the summary names both fingers: the default depth leaves the
    # trailing one mid-scoop
    assert rows[-1][header.index("mode_trailing")] == "Scooping"
    assert cp.stdout.strip().endswith(
        "final_mode_leading=ScoopComplete final_mode_trailing=Scooping")
    for row in rows:
        pen = float(row[0]) - 5.0
        assert float(row[lead]) == pytest.approx(rotation(pen), abs=1e-9)
        assert float(row[trail]) == pytest.approx(rotation(pen - lag), abs=1e-9)


def test_tilt_outside_envelope_fails():
    # a run setting out of range exits 2, from a flag as from a file
    cp = run_cli("descend", "--tilt", "50")
    assert cp.returncode == 2
    assert "tilt" in cp.stderr
    cp = run_cli("descend", "--max-depth", "-1")
    assert cp.returncode == 2
    assert cp.stderr == ("error: [modeswitch] max_depth must be finite and > 0 "
                         "(got -1.0) (set by --max-depth)\n")


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------

def test_dynamics_trace_and_drift_summary(tmp_path):
    cp = run_cli("dynamics", "--duration", "0.01", "--no-gravity",
                 "--qdot0", "30,-40,10", "--out", str(tmp_path))
    assert cp.returncode == 0, cp.stderr
    assert "max_rel_energy_drift=" in cp.stdout
    drift = float(cp.stdout.split("max_rel_energy_drift=")[1].split()[0])
    assert drift <= 1e-6
    rows = read_rows(tmp_path / "dynamics.csv")
    assert rows[0][:4] == ["t_s", "theta1_rad", "theta2_rad", "theta3_rad"]
    assert len(rows) == 102  # header + 101 states for 0.01 s at 1e-4 s


@pytest.mark.parametrize("argv, gravity, q0, qdot0", [
    ((), True, None, (0.0, 0.0, 0.0)),
    (("--no-gravity", "--q0", "10,20,30", "--qdot0", "30,-40,10"), False,
     (10.0, 20.0, 30.0), (30.0, -40.0, 10.0)),
], ids=["defaults", "no-gravity"])
def test_dynamics_csv_cells_are_the_trace_floats(tmp_path, capsys, argv, gravity,
                                                 q0, qdot0):
    # no digest can pin dynamics.csv (its last digits follow the CPU's
    # ufuncs), so each cell is read back against the trace computed here
    assert cli.main(["--out", str(tmp_path), "--quiet", "dynamics",
                     "--duration", "0.003", *argv]) == 0
    finger = mechanism.FingerParams()
    params = dynamics.DynamicsParams.from_finger(finger)
    if not gravity:
        params = dataclasses.replace(params, g=0.0)
    q0 = (kinematics.reference_angles(finger).as_array() if q0 is None
          else [math.radians(v) for v in q0])
    trace = dynamics.simulate_free(params, q0, [math.radians(v) for v in qdot0],
                                   0.003, 1e-4)
    columns = np.column_stack([trace.t, trace.q, trace.qdot, trace.kinetic,
                               trace.potential, trace.energy])
    header, *rows = read_rows(tmp_path / "dynamics.csv")
    assert header == ["t_s", "theta1_rad", "theta2_rad", "theta3_rad",
                      "dtheta1_rads", "dtheta2_rads", "dtheta3_rads",
                      "K", "P", "E_total"]
    assert [[float(cell) for cell in row] for row in rows] == columns.tolist()
    assert "-0" not in {cell for row in rows for cell in row}


def test_dynamics_equilibrium_is_constant(tmp_path):
    cp = run_cli("dynamics", "--duration", "0.005", "--no-gravity",
                 "--q0", "10,20,30", "--out", str(tmp_path))
    assert cp.returncode == 0, cp.stderr
    rows = read_rows(tmp_path / "dynamics.csv")[1:]
    assert all(r[1:7] == rows[0][1:7] for r in rows)


def test_dynamics_blow_up_fails_naming_the_step(tmp_path):
    out = tmp_path / "out"
    cp = run_cli("dynamics", "--duration", "0.001", "--qdot0=1e200,0,0",
                 "--out", str(out))
    assert cp.returncode == 1
    assert "integration failed at step 1 of 10" in cp.stderr
    assert "Traceback" not in cp.stderr
    assert "Warning" not in cp.stderr
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (("--dt", "0"), "dt must be > 0"),
    (("--duration", "1e-5"), "duration must be >= dt"),
    (("--dt", "1e-12"), "MAX_STEPS"),
    (("--duration", "0.0025", "--dt", "1e-3"),
     "duration 0.0025 is not a whole number of dt = 0.001 steps"),
])
def test_dynamics_timestep_is_checked_before_integrating(tmp_path, args,
                                                         message):
    out = tmp_path / "out"
    cp = run_cli("dynamics", *args, "--out", str(out))
    assert cp.returncode == 2
    assert message in cp.stderr
    assert "Traceback" not in cp.stderr
    assert not out.exists()


# ---------------------------------------------------------------------------
# fk / jac
# ---------------------------------------------------------------------------

def test_fk_prints_tip_pose():
    cp = run_cli("fk", "90", "-90", "0")
    assert cp.returncode == 0, cp.stderr
    values = dict(line.split("=") for line in cp.stdout.strip().splitlines())
    assert float(values["tip_x_mm"]) == 60.0 or \
        abs(float(values["tip_x_mm"]) - 60.0) < 1e-12
    assert abs(float(values["tip_y_mm"]) - 80.0) < 1e-12
    assert float(values["orientation_deg"]) == 0.0


def test_fk_refuses_to_print_a_non_finite_value(capsys):
    # three angles of 1e308 degrees sum to an orientation past the float range
    assert cli.main(["fk", "1e308", "1e308", "1e308"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: not finite at these angles: orientation_deg=inf\n"


def test_jac_prints_six_component_rows():
    cp = run_cli("jac", "0", "0", "0")
    assert cp.returncode == 0, cp.stderr
    lines = cp.stdout.strip().splitlines()
    assert lines[0] == "component,per_dtheta1,per_dtheta2,per_dtheta3"
    assert len(lines) == 7
    vy = lines[2].split(",")
    assert vy[0] == "vy_mm_s"
    assert [float(v) for v in vy[1:]] == [140.0, 60.0, 20.0]


def test_jac_planar_rows_are_exact_at_a_bent_pose():
    cp = run_cli("jac", "30", "-45", "120")
    assert cp.returncode == 0, cp.stderr
    rows = {r[0]: r[1:] for r in csv.reader(cp.stdout.splitlines()[1:])}
    assert list(rows) == ["vx_mm_s", "vy_mm_s", "vz_mm_s",
                          "wx_rad_s", "wy_rad_s", "wz_rad_s"]
    for label in ("vz_mm_s", "wx_rad_s", "wy_rad_s"):
        assert rows[label] == ["0", "0", "0"]
    assert rows["wz_rad_s"] == ["1", "1", "1"]
    # the distal column is the distal link swung about its joint
    phi = math.radians(30 - 45 + 120)
    assert float(rows["vx_mm_s"][2]) == pytest.approx(-20 * math.sin(phi), abs=1e-12)
    assert float(rows["vy_mm_s"][2]) == pytest.approx(20 * math.cos(phi), abs=1e-12)


@pytest.mark.parametrize("args", [
    ("fk", "nan", "0", "0"),
    ("jac", "inf", "0", "0"),
    ("forces", "pinch", "--start", "nan"),
    ("dynamics", "--q0", "nan,0,0"),
    ("descend", "--tilt", "nan"),
])
def test_non_finite_numbers_are_usage_errors(tmp_path, args):
    out = tmp_path / "out"
    cp = run_cli(*args, "--out", str(out))
    assert cp.returncode == 2
    assert "finite" in cp.stderr
    assert "Traceback" not in cp.stderr
    assert not out.exists()


def test_help_runs_clean():
    cp = run_cli("--help")
    assert cp.returncode == 0
    for name in ("validate", "traj", "forces", "descend", "dynamics"):
        assert name in cp.stdout


@pytest.mark.parametrize("argv", [["fk", "1", "2"], ["no-such-command"]], ids=" ".join)
def test_main_returns_the_status_of_a_usage_error(argv):
    # argparse's SystemExit does not leave main; --help's 0 is test_help_runs_clean's
    cp = run_cli(*argv)
    assert (cp.returncode, cp.stdout) == (2, "")
    assert cp.stderr.startswith("usage: sparkfinger")


# ---------------------------------------------------------------------------
# settings resolution
# ---------------------------------------------------------------------------

def test_env_var_supplies_output_directory(tmp_path):
    target = tmp_path / "from_env"
    cp = run_cli("forces", "pinch", "--quiet",
                 env_extra={"SPARKFINGER_OUT": str(target)})
    assert cp.returncode == 0, cp.stderr
    assert (target / "forces_pinch.csv").exists()


def test_out_flag_beats_env_var(tmp_path):
    flag_dir = tmp_path / "from_flag"
    env_dir = tmp_path / "from_env"
    cp = run_cli("forces", "pinch", "--out", str(flag_dir), "--quiet",
                 env_extra={"SPARKFINGER_OUT": str(env_dir)})
    assert cp.returncode == 0, cp.stderr
    assert (flag_dir / "forces_pinch.csv").exists()
    assert not env_dir.exists()


def test_config_directory_is_the_fallback(tmp_path):
    ini = tmp_path / "run.ini"
    out = tmp_path / "from_config"
    ini.write_text(f"[output]\ndirectory = {out}\n")
    cp = run_cli("--config", str(ini), "forces", "pinch", "--quiet")
    assert cp.returncode == 0, cp.stderr
    assert (out / "forces_pinch.csv").exists()


@pytest.mark.parametrize("setting", ["--out", "env", "config", "file"])
def test_an_unusable_output_directory_is_a_usage_error(tmp_path, setting):
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    ini = tmp_path / "run.ini"
    ini.write_text("[output]\ndirectory =\n")
    argv, env_extra, named = {
        "--out": (["--out", ""], None, "'' (set by --out)"),
        "env": ([], {"SPARKFINGER_OUT": ""}, "'' (set by $SPARKFINGER_OUT)"),
        "config": (["--config", str(ini)], None,
                   f"'' (set by [output] directory in {ini})"),
        "file": (["--out", str(a_file)], None, f"{str(a_file)!r} (set by --out)"),
    }[setting]
    cp = run_cli(*argv, "traj", env_extra=env_extra)
    assert cp.returncode == 2
    assert cp.stderr.startswith(f"error: cannot create output directory {named}: ")
    assert cp.stderr.count("\n") == 1
    assert "Traceback" not in cp.stderr


@pytest.mark.parametrize("argv, name", [
    (["traj"], "trajectory.csv"),
    (["traj"], "displacement.csv"),
    (["forces", "scoop"], "forces_scoop.csv"),
    (["descend"], "descend.csv"),
], ids=["traj trajectory", "traj displacement", "forces", "descend"])
def test_a_csv_that_cannot_be_written_is_a_usage_error(tmp_path, argv, name):
    blocked = tmp_path / name
    blocked.mkdir()
    cp = run_cli("--out", str(tmp_path), "--samples", "5", *argv)
    assert cp.returncode == 2
    assert cp.stderr == f"error: cannot write {str(blocked)!r}: Is a directory\n"


# (command, config key, flag, flag value, file value, default); the flag's
# value, the file's and the default all differ
PRECEDENCE = [
    (["traj"], "[output] samples", ["--samples", "7"], 7, 9, mechanism.DEFAULT_SAMPLES),
    (["descend"], "[modeswitch] tilt_deg", ["--tilt", "20"], 20.0, 10.0, 0.0),
    (["descend"], "[modeswitch] max_depth", ["--max-depth", "40"], 40.0, 35.0, None),
    (["dynamics"], "[dynamics] duration", ["--duration", "0.5"], 0.5, 0.25, 1.0),
    (["dynamics"], "[dynamics] dt", ["--dt", "2e-4"], 2e-4, 5e-4, 1e-4),
    (["dynamics"], "[dynamics] gravity", ["--gravity"], True, False, True),
]


def resolved(argv, ini=None):
    """The resolved setting of each config key, and its recorded source."""
    args = cli.build_parser().parse_args(argv)
    cfg = config.load_config(ini, cli._given(args))
    values = {"[output] directory": cfg.output_dir, "[output] samples": cfg.samples,
              **{f"[{section}] {field.name}": getattr(getattr(cfg, section), field.name)
                 for section in ("modeswitch", "dynamics")
                 for field in dataclasses.fields(getattr(cfg, section))}}
    return {key: (value, cfg.sources.get(key)) for key, value in values.items()}


@pytest.mark.parametrize("command, key, flag, by_flag, by_file, default", PRECEDENCE,
                         ids=[case[1] for case in PRECEDENCE])
def test_a_flag_beats_the_file_and_the_file_beats_the_default(
        tmp_path, monkeypatch, command, key, flag, by_flag, by_file, default):
    monkeypatch.delenv("SPARKFINGER_OUT", raising=False)
    section, name = key[1:].split("] ")
    ini = tmp_path / "run.ini"
    ini.write_text(f"[{section}]\n{name} = {by_file!r}\n")
    assert resolved(command)[key] == (default, "the default")
    assert resolved(command, str(ini))[key] == (by_file, f"{key} in {ini}")
    assert resolved([*command, *flag], str(ini))[key] == (by_flag, flag[0])
    assert resolved([*command, *flag])[key] == (by_flag, flag[0])


def test_output_directory_precedence(tmp_path, monkeypatch):
    # --out, then $SPARKFINGER_OUT, then [output] directory, then "."
    ini = tmp_path / "run.ini"
    ini.write_text("[output]\ndirectory = from_file\n")
    key = "[output] directory"
    monkeypatch.delenv("SPARKFINGER_OUT", raising=False)
    assert resolved(["traj"])[key] == (".", "the default")
    assert resolved(["traj"], str(ini))[key] == ("from_file", f"{key} in {ini}")
    monkeypatch.setenv("SPARKFINGER_OUT", "from_env")
    assert resolved(["traj"], str(ini))[key] == ("from_env", "$SPARKFINGER_OUT")
    assert resolved(["traj", "--out", "from_flag"], str(ini))[key] == ("from_flag", "--out")


@pytest.mark.parametrize("text, argv, name, rows", [
    ("[dynamics]\nduration = 0.00025\n", ["dynamics", "--dt", "5e-5"], "dynamics.csv", 6),
    ("[dynamics]\nduration = 0.00005\n", ["dynamics", "--dt", "1e-5"], "dynamics.csv", 6),
    ("[modeswitch]\ntilt_deg = 60\n", ["descend", "--tilt", "10"], "descend.csv", 100),
    ("[output]\nsamples = 1\n", ["traj", "--samples", "5"], "trajectory.csv", 5),
], ids=["duration with --dt 5e-5", "duration with --dt 1e-5", "tilt_deg", "samples"])
def test_a_file_value_a_flag_replaces_is_not_range_checked(tmp_path, capsys, text,
                                                           argv, name, rows):
    # each section is checked once, on the values the run resolves
    ini = tmp_path / "run.ini"
    ini.write_text(text)
    out = tmp_path / "out"
    assert cli.main(["--config", str(ini), "--out", str(out), "--quiet", *argv]) == 0
    assert capsys.readouterr().err == ""
    assert len(read_rows(out / name)) == rows + 1


def test_a_section_set_from_both_places_names_both_sources(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[dynamics]\nduration = 0.00025\n")
    out = tmp_path / "out"
    assert cli.main(["--config", str(ini), "--out", str(out),
                     "dynamics", "--dt", "3e-5"]) == 2
    assert capsys.readouterr().err == (
        "error: [dynamics] duration 0.00025 is not a whole number of dt = 3e-05 "
        "steps (duration/dt = 8.333333333333334) "
        f"(set by [dynamics] duration in {ini}, --dt)\n")
    assert not out.exists()
    # set by the file alone, the section is the file's fault
    assert cli.main(["--config", str(ini), "validate"]) == 2
    assert capsys.readouterr().err == (
        f"config error: {ini}: [dynamics] duration 0.00025 is not a whole number "
        "of dt = 0.0001 steps (duration/dt = 2.5)\n")


# one case per config key: the value to set alone in a file, and a command
# whose stdout, exit code or output files that value changes
LIVE = {
    ("meta", "schema_version"): ("2", ["validate"]),
    **{("finger", key): ("81", ["validate"]) for key in ("L1", "L2", "L3")},
    ("finger", "CJ"): ("29", ["traj"]),
    **{("finger", key): ("10", ["descend"]) for key in ("dh1", "dh2", "dtheta_c1",
                                                          "k1", "k2")},
    **{("finger", key): ("5", ["dynamics", "--duration", "0.002"])
       for key in ("m1", "m2", "m3", "lc1", "lc2", "lc3", "g")},
    ("dynamics", "duration"): ("0.002", ["dynamics", "--dt", "1e-3"]),
    ("dynamics", "dt"): ("2e-4", ["dynamics", "--duration", "0.002"]),
    ("dynamics", "gravity"): ("off", ["dynamics", "--duration", "0.002"]),
    **{("statics", key): ("10", ["forces", "scoop"])
       for key in ("T", "k", "d2", "d3", "theta2_deg")},
    # the two fingers' contacts are half_span apart: at the default depth
    # 50 and 60 mm give the same rows, at 70 mm they do not
    ("modeswitch", "half_span"): ("50", ["descend", "--tilt", "20", "--max-depth", "70"]),
    ("modeswitch", "tilt_deg"): ("20", ["descend"]),
    ("modeswitch", "surface_height"): ("5", ["descend"]),
    ("modeswitch", "max_depth"): ("20", ["descend"]),
    ("output", "directory"): ("elsewhere", ["traj"]),
    ("output", "samples"): ("7", ["traj"]),
}


def run_in(workdir: Path, argv):
    """Exit code, stdout, and each file the run leaves under workdir."""
    workdir.mkdir()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        cp = run_cli(*argv)
    finally:
        os.chdir(cwd)
    return cp.returncode, cp.stdout, written(workdir)


@pytest.mark.parametrize("section, key", [
    (section, key) for section, keys in config._SCHEMA.items() for key in keys])
def test_every_config_key_is_live(tmp_path, section, key):
    assert (section, key) in LIVE, f"no case shows that [{section}] {key} is read"
    value, argv = LIVE[section, key]
    ini = tmp_path / "run.ini"
    ini.write_text(f"[{section}]\n{key} = {value}\n")
    assert (run_in(tmp_path / "with", ["--config", str(ini), *argv])
            != run_in(tmp_path / "without", argv))


# ---------------------------------------------------------------------------
# scale covariance
# ---------------------------------------------------------------------------

def scale_power(name):
    """The power of the length scale that a cell or figure called name
    carries: lengths and lengths per joint rate 1, forces -1, energies 2."""
    if name in ("K", "P", "E_total"):
        return 2
    if name.endswith(("_mm", "_mm_s")):
        return 1
    return -1 if name.endswith("_N") else 0


def run_scaled(workdir: Path, finger, scale, argv):
    """Exit code and (name, cell) of every figure that one in-process run on
    finger scaled by scale prints or writes."""
    ini = workdir / "run.ini"
    ini.write_text(
        "[finger]\n" + "".join(f"{key} = {getattr(finger, key) * scale!r}\n"
                              for key in ("L1", "L2", "L3", "CJ", "dh1", "dh2", "g"))
        + f"[modeswitch]\nhalf_span = {60.0 * scale!r}\n"
        + f"surface_height = {5.0 * scale!r}\n")
    out = workdir / "out"
    cp = run_cli("--config", str(ini), "--out", str(out), "--samples", "9", *argv)
    if argv[0] == "jac":
        cells = [(label, cell) for label, *row in
                 csv.reader(cp.stdout.splitlines()[1:]) for cell in row]
    else:
        cells = [tuple(word.partition("=")[::2]) for word in cp.stdout.split()]
    for path in sorted(out.glob("*.csv")):
        header, *rows = read_rows(path)
        cells += [(name, cell) for row in rows for name, cell in zip(header, row)]
    shutil.rmtree(out, ignore_errors=True)
    return cp.returncode, cells


@given(L1=st.floats(min_value=-2.0, max_value=7.0).map(lambda e: 10.0 ** e),
       cj_share=st.floats(min_value=1e-3, max_value=1.0236),
       k=st.integers(min_value=-30, max_value=30))
@example(L1=80.0, cj_share=0.36, k=-30)
@example(L1=3.8609703994821922, cj_share=1.0, k=-2)     # libm's x**2 broke it
@example(L1=1e-2, cj_share=0.36, k=-30)
@example(L1=1e7, cj_share=0.36, k=30)
@settings(max_examples=30, deadline=None)
def test_every_handler_is_exactly_scale_covariant(L1, cj_share, k):
    # a finger f and s*f, s = 2**k, with dh1, dh2, g and the surface's
    # half_span and height scaled too: a power of two scales a binary float
    # exactly, so each cell of s*f is its unit's power of s times f's, bit
    # for bit, and every angle, mode and moment is the same
    s = 2.0 ** k
    finger = mechanism.FingerParams(L1=L1, L2=L1 / 2, L3=L1 / 4, CJ=cj_share * L1)
    runs = [["traj"], ["forces", "scoop"], ["forces", "pinch"],
            ["dynamics", "--duration", "0.005"], ["fk", "10", "20", "30"],
            ["jac", "10", "20", "30"]]
    # the mode boundaries keep an absolute BOUNDARY_GRACE of 1e-9 mm, which
    # below s = 2**-20 is no longer small beside the scaled dh1 and dh2
    if k >= -20:
        runs += [["descend"], ["descend", "--tilt", "20"]]
    with tempfile.TemporaryDirectory() as tmp:
        verdicts = [run_scaled(Path(tmp), finger, scale, ["validate"])[0]
                    for scale in (1.0, s)]
        assert verdicts[0] == verdicts[1]
        assume(verdicts[0] == 0)
        for argv in runs:
            (code, cells), (scaled_code, scaled) = (
                run_scaled(Path(tmp), finger, scale, argv) for scale in (1.0, s))
            assert code == scaled_code == 0
            assert [name for name, _ in scaled] == [name for name, _ in cells]
            for (name, cell), (_, scaled_cell) in zip(cells, scaled):
                try:
                    value = float(cell)
                except ValueError:      # a word, a mode, a status, an empty force
                    assert scaled_cell == cell, (argv, name)
                else:
                    assert float(scaled_cell) == value * s ** scale_power(name), (
                        argv, name)


# ---------------------------------------------------------------------------
# README examples
# ---------------------------------------------------------------------------

def readme_examples():
    """One param (argv, expected stdout lines) per `$ sparkfinger …` line
    of the README's Examples block."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Examples\n\n```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for chunk in block.strip().split("\n\n"):
        command, *output = chunk.splitlines()
        assert command.startswith("$ sparkfinger "), command
        argv = command[len("$ sparkfinger "):].split()
        examples.append(pytest.param(argv, output, id=" ".join(argv)))
    return examples


# these two pass through numpy ufuncs whose last bits may vary by CPU, so
# only their documented bounds hold exactly: the stock finger's solver
# tolerance and acceptance check c05's drift bound
README_BOUNDS = {
    "max_residual_mm": mechanism.spark_preset().tol,
    "max_rel_energy_drift": 1e-6,
}


def cut_bounded_values(line):
    """The line with each bounded value cut out, and those values."""
    words, values = [], []
    for word in line.split(" "):
        key, _, value = word.partition("=")
        if key in README_BOUNDS:
            values.append((key, float(value)))
            word = key + "="
        words.append(word)
    return " ".join(words), values


def test_readme_library_quick_start_runs(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quick start\n\n```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "readme_quick_start"}
    exec(compile(block, "README.md", "exec"), namespace)
    assert len(capsys.readouterr().out.splitlines()) == 3
    assert namespace["topology"].finger == mechanism.FingerParams()
    assert namespace["pose"].residual_norm <= namespace["topology"].tol
    assert len(namespace["path"]) == 500
    assert namespace["trace"].max_relative_energy_drift() <= 1e-6
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, expected", readme_examples())
def test_readme_examples_print_what_the_readme_shows(tmp_path, monkeypatch,
                                                     capsys, argv, expected):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SPARKFINGER_OUT", raising=False)
    assert cli.main(argv) == 0
    got = [cut_bounded_values(line)
           for line in capsys.readouterr().out.splitlines()]
    assert [text for text, _ in got] == [cut_bounded_values(line)[0]
                                         for line in expected]
    for _, values in got:
        for key, value in values:
            assert 0.0 <= value <= README_BOUNDS[key], key
