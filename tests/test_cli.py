"""End-to-end tests of the command-line interface.

Each test runs the installed module in a subprocess, the same way a user
would, and checks files, stdout and exit codes.
"""
import contextlib
import csv
import hashlib
import io
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from sparkfinger import cli, mechanism, statics


def run_cli(*args: str, env_extra=None) -> subprocess.CompletedProcess:
    env = os.environ.copy()
    env.pop("SPARKFINGER_OUT", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "sparkfinger", *args],
                          capture_output=True, text=True, env=env)


def read_rows(path: Path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


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


def test_unknown_config_key_is_a_usage_error(tmp_path):
    ini = tmp_path / "typo.ini"
    ini.write_text("[finger]\nL1_mm = 80\n")
    cp = run_cli("--config", str(ini), "validate")
    assert cp.returncode == 2


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
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(["--config", str(ini), "--out", out, "traj"])
        assert code == 0
        rows = [[float(c) for c in row]
                for row in read_rows(Path(out) / "trajectory.csv")[1:]]
    assert all(math.isfinite(v) for row in rows for v in row)
    xs = [row[1] for row in rows]
    angles = [row[3] for row in rows]
    assert max(abs(x - xs[0]) for x in xs) <= 1e-12 * L1
    assert max(angles) - min(angles) <= 1e-9
    fields = dict(word.split("=") for word in stdout.getvalue().split() if "=" in word)
    assert float(fields["max_residual_mm"]) <= mechanism.spark_preset(params)._system.tol


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
    cp = run_cli("descend", "--tilt", "50")
    assert cp.returncode == 1
    assert "tilt" in cp.stderr


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


# ---------------------------------------------------------------------------
# output resolution
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
    "max_residual_mm": mechanism.spark_preset()._system.tol,
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
