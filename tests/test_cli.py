import os
import re
import subprocess
import sys

import numpy as np
import pytest

import blimpdyn
from blimpdyn import validation
from blimpdyn.cli import main
from blimpdyn.frames import EulerAngles, State
from blimpdyn.paramio import load_bundled
from blimpdyn.simulate import integrate, read_schedule


def _read_lines(path):
    return path.read_text().splitlines()


def test_params_check(capsys):
    assert main(["params-check"]) == 0
    out = capsys.readouterr().out
    assert "net mass" in out
    assert "6.850 g" in out


def test_polar(tmp_path, capsys):
    assert main(["polar", "--out", str(tmp_path)]) == 0
    lines = _read_lines(tmp_path / "polar.csv")
    assert lines[0] == "alpha_deg,C_L,C_D,LD"
    assert lines[-1].startswith("# max_LD=")
    assert len(lines) == 1 + 161 + 1  # header + 0..16 deg by 0.1 + footer
    assert (tmp_path / "run-manifest.txt").exists()


def test_trim_sweep(tmp_path, capsys):
    assert main(["trim", "--out", str(tmp_path)]) == 0
    lines = _read_lines(tmp_path / "trim.csv")
    header = lines[0].split(",")
    assert header == ["dr_x_cm", "Fl_gf", "Fr_gf", "theta_deg", "phi_deg",
                      "psidot_dps", "V_mps", "alpha_deg", "beta_deg", "R_m",
                      "residual", "status"]
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == 11
    assert all(r[-1] == "ok" for r in rows)
    assert all(float(r[-2]) < 1e-9 for r in rows)


def test_spiral_sweep(tmp_path, capsys):
    assert main(["spiral", "--out", str(tmp_path)]) == 0
    rows = [ln.split(",") for ln in _read_lines(tmp_path / "spiral.csv")[1:]]
    assert len(rows) == 36
    assert all(r[-1] == "ok" for r in rows)
    # Every cell turns: finite radius, nonzero heading rate.
    assert all(np.isfinite(float(r[9])) for r in rows)
    assert all(abs(float(r[5])) > 1.0 for r in rows)


def test_simulate(tmp_path, capsys):
    sched = tmp_path / "sched.csv"
    sched.write_text(
        "t_start,t_end,Fl_gf,Fr_gf,mm_cmd,mm_target_cm\n"
        "0,2,2,2,hold,0\n"
    )
    assert main(["simulate", "--schedule", str(sched),
                 "--out", str(tmp_path), "--T", "2", "--dt", "0.01"]) == 0
    lines = _read_lines(tmp_path / "sim.csv")
    assert lines[0].startswith("t,x,y,z,phi,theta,psi,")
    assert lines[-1] == "# status=ok"
    assert len(lines) == 1 + 201 + 1
    manifest = (tmp_path / "run-manifest.txt").read_text()
    assert "sched.csv" in manifest


@pytest.mark.parametrize("row", [
    "0,2,-1,2,goto,20",     # negative thrust and a target 20 cm out on a 6 cm rail
    "0,2,2,-0.5,hold,0",
    "0,2,nan,2,hold,0",
    "0,2,inf,2,hold,0",
    "0,2,2,2,goto,-7",
    "nan,1,2,2,hold,0",     # a nan start time never compares, so it was accepted
    "0,inf,2,2,hold,0",
])
def test_simulate_rejects_out_of_range_schedule(tmp_path, capsys, row):
    sched = tmp_path / "sched.csv"
    sched.write_text("t_start,t_end,Fl_gf,Fr_gf,mm_cmd,mm_target_cm\n" + row + "\n")
    assert main(["simulate", "--schedule", str(sched), "--out", str(tmp_path / "out"),
                 "--T", "2"]) == 2
    assert not (tmp_path / "out" / "sim.csv").exists()


@pytest.mark.parametrize("row, covers", [("1,2,0,0,hold,0", "[1, 2]"),
                                         ("0,1,0,0,hold,0", "[0, 1]")])
def test_simulate_rejects_schedule_that_does_not_cover_the_run(tmp_path, capsys, row, covers):
    """Neither schedule covers [0, 3]: one starts after 0, the other ends
    before T."""
    sched = tmp_path / "sched.csv"
    sched.write_text("t_start,t_end,Fl_gf,Fr_gf,mm_cmd,mm_target_cm\n" + row + "\n")
    assert main(["simulate", "--schedule", str(sched), "--out", str(tmp_path / "out"),
                 "--T", "3"]) == 2
    assert f"schedule covers {covers} s, but the run needs [0, 3] s" in capsys.readouterr().err
    assert not (tmp_path / "out" / "sim.csv").exists()


@pytest.mark.parametrize("row, message", [
    ("0,2,2,2,hold", "line 2: 5 fields, expected 6"),
    ("0,2,2,2,hold,0,9", "line 2: 7 fields, expected 6"),
    ("0,2,x,2,hold,0", "line 2: Fl_gf must be a number, got 'x'"),
    ("0,x,2,2,hold,0", "line 2: t_end must be a number, got 'x'"),
])
def test_simulate_rejects_malformed_schedule_row(tmp_path, capsys, row, message):
    sched = tmp_path / "sched.csv"
    sched.write_text("t_start,t_end,Fl_gf,Fr_gf,mm_cmd,mm_target_cm\n" + row + "\n")
    assert main(["simulate", "--schedule", str(sched), "--out", str(tmp_path / "out"),
                 "--T", "2"]) == 2
    err = capsys.readouterr().err
    assert f"{sched}: {message}" in err and "Traceback" not in err
    assert not (tmp_path / "out" / "sim.csv").exists()


def test_simulate_body_matches_per_row_formatting(tmp_path, capsys):
    """sim.csv's body, formatted in one pass, is byte for byte the rows
    formatted one at a time from Python floats, inf radii included."""
    sched = tmp_path / "sched.csv"
    sched.write_text("t_start,t_end,Fl_gf,Fr_gf,mm_cmd,mm_target_cm\n"
                     "0,0.2,2,2,hold,0\n0.2,0.3,1.4,2.6,goto,2\n")
    assert main(["simulate", "--schedule", str(sched), "--out", str(tmp_path),
                 "--T", "0.3", "--dt", "0.01"]) == 0
    params, model = load_bundled()
    state0 = State(p=np.zeros(3), e=EulerAngles(0.0, 0.0, 0.0), v=np.zeros(3), w=np.zeros(3),
                   rbar=params.rbar0, rbardot=np.zeros(3))
    traj = integrate(state0, read_schedule(str(sched)), params, model, dt=0.01, T=0.3)
    assert np.isinf(traj.R).any() and np.isfinite(traj.R).any()
    row_fmt = ",".join(["%.9g"] * 19)
    rows = [row_fmt % (t, *y, *rest) for t, y, *rest in zip(
        traj.t.tolist(), traj.states[:, :13].tolist(), traj.alpha.tolist(), traj.beta.tolist(),
        traj.V.tolist(), traj.R.tolist(), traj.Vz.tolist())]
    text = (tmp_path / "sim.csv").read_text()
    assert text.split("\n", 1)[1] == "".join(row + "\n" for row in rows) + "# status=ok\n"
    assert ",inf," in text


@pytest.mark.parametrize("thrusts", ["-1,2", "2,-0.5", "2,nan", "inf,2"])
def test_identify_rejects_out_of_range_manifest_thrust(tmp_path, capsys, thrusts):
    (tmp_path / "trial.csv").write_text("t,x,y,z,phi,theta,psi\n")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("trial_id,file,kind,dr_x_cm,Fl_gf,Fr_gf\n"
                        f"t0,trial.csv,straight,0,{thrusts}\n")
    assert main(["identify", "--manifest", str(manifest), "--out", str(tmp_path / "out")]) == 2
    assert "thrusts must be finite and non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("dr_x_cm", ["inf", "nan", "50", "-6.5"])
def test_identify_rejects_off_rail_manifest_dr_x(tmp_path, capsys, dr_x_cm):
    (tmp_path / "trial.csv").write_text("t,x,y,z,phi,theta,psi\n")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("trial_id,file,kind,dr_x_cm,Fl_gf,Fr_gf\n"
                        f"t0,trial.csv,straight,{dr_x_cm},2,2\n")
    assert main(["identify", "--manifest", str(manifest), "--out", str(tmp_path / "out")]) == 2
    assert "manifest row 2: dr_x_cm must be finite and within the rail limit" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("row, message", [
    ("t0,trial.csv,straight,0,2", "manifest row 2: 5 fields, expected 6"),
    ("t0,trial.csv,straight,0,2,2,9", "manifest row 2: 7 fields, expected 6"),
    ("t0,trial.csv,straight,x,2,2", "manifest row 2: dr_x_cm must be a number, got 'x'"),
    ("t0,trial.csv,straight,0,x,2", "manifest row 2: Fl_gf must be a number, got 'x'"),
    ("t0,trial.csv,straight,0,2,x", "manifest row 2: Fr_gf must be a number, got 'x'"),
])
def test_identify_rejects_malformed_manifest_row(tmp_path, capsys, row, message):
    (tmp_path / "trial.csv").write_text("t,x,y,z,phi,theta,psi\n")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("trial_id,file,kind,dr_x_cm,Fl_gf,Fr_gf\n" + row + "\n")
    assert main(["identify", "--manifest", str(manifest), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_trim_with_identified_aero(tmp_path, capsys):
    """identify -> trim --aero round trip: the fitted [aero]-only file takes
    its reference area from the vehicle parameters, the area the fit used."""
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    manifest = validation._synthetic_trial_set(str(inputs))
    assert main(["identify", "--manifest", manifest, "--out", str(tmp_path / "id")]) == 0
    fitted = tmp_path / "id" / "aero_fit.ini"
    assert "[geometry]" not in fitted.read_text()
    assert main(["trim", "--aero", str(fitted), "--out", str(tmp_path / "trim")]) == 0


def test_simulate_missing_schedule(tmp_path, capsys):
    assert main(["simulate", "--out", str(tmp_path)]) == 2
    assert "schedule" in capsys.readouterr().err


def test_identify_missing_manifest(tmp_path, capsys):
    assert main(["identify", "--out", str(tmp_path)]) == 2


def test_missing_file_exit_code(tmp_path, capsys):
    assert main(["simulate", "--schedule", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path)]) == 2
    assert main(["trim", "--params", str(tmp_path / "nope.ini"),
                 "--out", str(tmp_path)]) == 2


def _spoiled_bundle(tmp_path, key, value):
    """Copy of the stock vehicle file with `key` set to `value`."""
    text = open(blimpdyn.paramio.bundled_path("vehicle.ini")).read()
    spoiled, n = re.subn(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
    assert n == 1
    path = tmp_path / "spoiled.ini"
    path.write_text(spoiled)
    return str(path)


@pytest.mark.parametrize("key,value,field", [
    ("buoyancy_n", "nan", "B"),
    ("air_density_kgm3", "inf", "rho"),
    ("inertia_xz", "nan", "inertia"),
])
def test_params_check_rejects_non_finite_parameters(tmp_path, capsys, key, value, field):
    assert main(["params-check", "--params", _spoiled_bundle(tmp_path, key, value)]) == 2
    assert f"{field} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("cd0", "nan"), ("k1", "nan"), ("cl_a", "-inf"),
                                       ("beta_limit_deg", "nan")])
def test_trim_rejects_non_finite_aero_coefficients(tmp_path, capsys, key, value):
    field = "beta_limit" if key == "beta_limit_deg" else key
    assert main(["trim", "--aero", _spoiled_bundle(tmp_path, key, value),
                 "--out", str(tmp_path / "out")]) == 2
    assert f"{field} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out" / "trim.csv").exists()


@pytest.mark.parametrize("T", ["inf", "nan"])
def test_simulate_rejects_non_finite_horizon(tmp_path, capsys, T):
    sched = tmp_path / "sched.csv"
    sched.write_text("t_start,t_end,Fl_gf,Fr_gf,mm_cmd,mm_target_cm\n0,2,2,2,hold,0\n")
    assert main(["simulate", "--schedule", str(sched), "--out", str(tmp_path / "out"),
                 "--T", T]) == 2
    assert "T must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "out" / "sim.csv").exists()


def test_linearize(tmp_path, capsys):
    assert main(["linearize", "--out", str(tmp_path)]) == 0
    lines = _read_lines(tmp_path / "eigenvalues.csv")
    assert lines[0] == "index,real,imag"
    assert "# hurwitz=true" in lines
    slowest_line = [ln for ln in lines if ln.startswith("# slowest_real=")][0]
    slowest = float(slowest_line.split("=")[1])
    assert abs(slowest - (-0.37)) <= 0.10
    assert len([ln for ln in lines if not ln.startswith("#")]) == 1 + 8


def test_linearize_wingless(tmp_path, capsys):
    assert main(["linearize", "--wingless", "--out", str(tmp_path)]) == 0
    lines = _read_lines(tmp_path / "eigenvalues.csv")
    slowest_line = [ln for ln in lines if ln.startswith("# slowest_real=")][0]
    assert abs(float(slowest_line.split("=")[1]) - (-0.06)) <= 0.05


def test_unknown_verb_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["fly"])


def test_line_endings_are_lf(tmp_path, capsys):
    main(["polar", "--out", str(tmp_path)])
    data = (tmp_path / "polar.csv").read_bytes()
    assert b"\r" not in data


def test_import_loads_no_scipy():
    """Importing the package and its CLI loads no scipy module: the package
    runs on numpy and the standard library alone (scipy's import alone
    would be about half the start-up of every verb)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(blimpdyn.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = ("import sys, blimpdyn, blimpdyn.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_numpy_is_the_only_runtime_dependency():
    """pyproject.toml lists numpy as the one runtime dependency; scipy is
    only in the test extra, for the tests' reference implementations."""
    tomllib = pytest.importorskip("tomllib")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group(0) for dep in project["dependencies"]]
    assert names == ["numpy"]
    assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["test"])
