import csv
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference_matrix import aero_angles, loads_to_body, reference_rhs, wind_to_body
from reference_sysid import (
    prior_check_span,
    prior_extract_steady,
    prior_fit,
    prior_read_trial_csv,
    prior_smooth_velocity,
    reference_extract_steady,
    reference_invert_aero,
    reference_smooth_velocity,
    reference_write_trial,
)

from blimpdyn import aero, sysid
from blimpdyn.aero import AeroModel, aero_loads
from blimpdyn.equilibria import solve_spiral, solve_straight
from blimpdyn.frames import (
    GF_TO_N,
    AeroAngles,
    EulerAngles,
    State,
    rotation_body_to_inertial,
)
from blimpdyn.simulate import InputSchedule, Segment, integrate
from blimpdyn.sysid import (
    CHANNELS,
    InsufficientSpan,
    NotSteady,
    RankDeficient,
    SchemaError,
    SteadyObservation,
    TrialRecord,
    UnitError,
    _invert_loads,
    _median,
    _read_trial_csv,
    _smooth_velocity,
    average_by_setting,
    extract_steady,
    fit,
    invert_aero,
    load_trials,
    mirror_augment,
    observation_from_solution,
    trajectory_to_trial,
    write_trial,
)

F2 = 2.0 * GF_TO_N
TRIAL_HEADER = "t,x,y,z,phi,theta,psi"
MANIFEST = "trial_id,file,kind,dr_x_cm,Fl_gf,Fr_gf\nt0,trial.csv,straight,0,2,2\n"


def _load_trial_text(tmp_path, text):
    """Write `text` as trial.csv with a one-row manifest and load it."""
    (tmp_path / "trial.csv").write_text(text)
    (tmp_path / "manifest.csv").write_text(MANIFEST)
    return load_trials(str(tmp_path / "manifest.csv"))


def _reference_trial_parse(path):
    """The streaming csv + float() parse of a trial body, the reference
    for the array reader."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        data = np.array([[float(v) for v in row] for row in reader])
    return data[:, 0], data[:, 1:4], data[:, 4:7]


@pytest.fixture(scope="module")
def grid_obs(params, model):
    """Noise-free observations over the full survey grid."""
    obs = []
    for drx_cm in range(-5, 6):
        dr_x = drx_cm * 1e-2
        sol = solve_spiral(dr_x, F2, F2, params, model)
        obs.append(observation_from_solution(sol, dr_x, F2, F2, params))
    for drx_cm in (-1, 0, 1, 2, 3, 4):
        for diff in (-3.2, -3.7, -4.2, -4.3, -4.4, -4.9):
            Fl = 0.5 * (7.0 + diff) * GF_TO_N
            Fr = 0.5 * (7.0 - diff) * GF_TO_N
            dr_x = drx_cm * 1e-2
            sol = solve_spiral(dr_x, Fl, Fr, params, model)
            obs.append(observation_from_solution(sol, dr_x, Fl, Fr, params))
    return obs


@pytest.fixture(scope="module")
def steady_trial(params, model):
    """A 6 s simulated spiral trial started at its equilibrium."""
    Fl = 0.5 * (7.0 + 4.4) * GF_TO_N
    Fr = 0.5 * (7.0 - 4.4) * GF_TO_N
    sol = solve_spiral(0.0, Fl, Fr, params, model)
    traj = integrate(sol.state(params.rbar0), InputSchedule.constant(Fl, Fr, 6.0),
                     params, model, T=6.0)
    rec = trajectory_to_trial(traj, "t00", "spiral", 0.0, Fl, Fr)
    return sol, rec


def _helix_record(sol, rng, psi0, pos_sigma, angle_sigma, dr_x, Fl, Fr, dt=0.005, T=6.0):
    """A motion-capture log of the steady helix `sol` from heading `psi0`:
    constant roll, pitch and body velocity, yaw advancing at psidot
    (wrapped to (-pi, pi]), plus Gaussian noise of `pos_sigma` [m] and
    `angle_sigma` [rad]."""
    t = np.arange(int(round(T / dt)) + 1) * dt
    psi = psi0 + sol.psidot * t
    R0 = rotation_body_to_inertial(EulerAngles(sol.phi, sol.theta, 0.0))
    vx, vy, vz = R0 @ sol.v_b
    c, s, c0, s0 = np.cos(psi), np.sin(psi), np.cos(psi0), np.sin(psi0)
    if abs(sol.psidot) > 1e-12:
        x = (vx * (s - s0) + vy * (c - c0)) / sol.psidot
        y = (vx * (c0 - c) + vy * (s - s0)) / sol.psidot
    else:
        x, y = (vx * c0 - vy * s0) * t, (vx * s0 + vy * c0) * t
    pos = np.column_stack([x, y, vz * t]) + pos_sigma * rng.standard_normal((t.size, 3))
    euler = np.column_stack([np.full(t.size, sol.phi), np.full(t.size, sol.theta), psi])
    euler += angle_sigma * rng.standard_normal(euler.shape)
    euler[:, 2] = (euler[:, 2] + np.pi) % (2.0 * np.pi) - np.pi
    return TrialRecord(trial_id="h", kind=sol.kind, dr_x=dr_x, Fl=Fl, Fr=Fr, t=t, pos=pos,
                       euler=euler)


@pytest.fixture(scope="module")
def helix_settings(params, model):
    """A straight and a spiral equilibrium with their (dr_x, Fl, Fr)."""
    Fl, Fr = 0.5 * (7.0 + 4.4) * GF_TO_N, 0.5 * (7.0 - 4.4) * GF_TO_N
    return {
        "straight": (solve_straight(0.01, F2, params, model), 0.01, F2, F2),
        "spiral": (solve_spiral(0.02, Fl, Fr, params, model), 0.02, Fl, Fr),
    }


@pytest.fixture(scope="module")
def transient_trial(params, model):
    """A 6 s flight from rest whose thrust steps up 1.5 s before the end."""
    s0 = State(p=np.zeros(3), e=EulerAngles(0.0, 0.0, 0.0), v=np.zeros(3), w=np.zeros(3),
               rbar=params.rbar0, rbardot=np.zeros(3))
    sched = InputSchedule((Segment(0.0, 4.5, F2, F2), Segment(4.5, 6.0, 5 * F2, 0.0)))
    traj = integrate(s0, sched, params, model, T=6.0)
    return trajectory_to_trial(traj, "t01", "spiral", 0.0, 4 * F2, F2)


def _outcome(extract, rec, window, params):
    try:
        return extract(rec, window, params)
    except ValueError as exc:
        return exc


def _assert_same_bits(got, ref):
    """`got` and `ref` are the same exception, or equal field by field with
    every number bit for bit (dataclasses of floats, arrays and dicts)."""
    if isinstance(ref, Exception):
        assert type(got) is type(ref) and str(got) == str(ref), (got, ref)
        return
    assert not isinstance(got, Exception), got
    for name in ref.__dataclass_fields__:
        a, b = getattr(got, name), getattr(ref, name)
        if name == "model":
            a, b = a.as_vector(), b.as_vector()
        if isinstance(b, dict):
            assert list(a) == list(b), name
            a, b = list(a.values()), list(b.values())
        if isinstance(b, str):
            assert a == b, name
            continue
        a, b = np.asarray(a), np.asarray(b)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


@pytest.fixture(scope="module")
def campaign_settings(params, model):
    """The identification campaign of the benchmark: six equal-thrust trims
    along the rail and six spirals, each an equilibrium with its (dr_x, Fl,
    Fr)."""
    out = []
    for drx_cm in (-5, -3, -1, 1, 3, 5):
        out.append((solve_straight(drx_cm * 1e-2, F2, params, model), drx_cm * 1e-2, F2, F2))
    for drx_cm, diff in zip(range(-1, 5), (-3.2, -4.4, -3.2, -4.4, -4.4, -3.2)):
        Fl, Fr = 0.5 * (7.0 + diff) * GF_TO_N, 0.5 * (7.0 - diff) * GF_TO_N
        out.append((solve_spiral(drx_cm * 1e-2, Fl, Fr, params, model), drx_cm * 1e-2, Fl, Fr))
    return out


@pytest.fixture(scope="module")
def grid_loads(params, grid_obs):
    """Inverted loads of the grid observations, one (6,) row each."""
    return np.array([invert_aero(o, params).as_array() for o in grid_obs])


def _force_positive_damping(loads, observations, model, channel):
    """Loads whose unconstrained damping on `channel` is -k_true > 0."""
    j = ("M1", "M2", "M3").index(channel)
    rate = np.array([o.w_b[j] for o in observations])
    out = np.array(loads, dtype=float)
    out[:, 3 + j] -= 2.0 * model.as_vector()[18 + j] * rate
    return out


# The per-observation, per-channel fit: the reference for the stacked fit.
_REFERENCE_BASIS = {
    "D": (lambda a, b: (1.0, a * a, b * b), None),
    "S": (lambda a, b: (1.0, a * a, b), None),
    "L": (lambda a, b: (1.0, a, b * b), None),
    "M1": (lambda a, b: (1.0, a, b), 0),
    "M2": (lambda a, b: (1.0, a, b ** 4), 1),
    "M3": (lambda a, b: (1.0, a, b), 2),
}


def _reference_regression(channel, observations, loads, params, a_ref):
    basis, rate_idx = _REFERENCE_BASIS[channel]
    ci = CHANNELS.index(channel)
    X = np.empty((len(observations), 3 if rate_idx is None else 4))
    y = np.empty(len(observations))
    for k, obs in enumerate(observations):
        q = 0.5 * params.rho * obs.V * obs.V * a_ref
        row = [q * bf for bf in basis(obs.alpha, obs.beta)]
        if rate_idx is not None:
            row.append(obs.w_b[rate_idx])
        X[k] = row
        y[k] = loads[k][ci]
    floor = max(1e-3 * float(np.median(np.abs(y))), 1e-12)
    w = 1.0 / np.maximum(np.abs(y), floor)
    return X * w[:, None], y * w


def _reference_lstsq(X, y):
    Q, R = np.linalg.qr(X)
    return np.linalg.solve(R, Q.T @ y)


def _reference_solve(observations, loads, params, a_ref):
    out = {}
    for ch in CHANNELS:
        X, y = _reference_regression(ch, observations, loads, params, a_ref)
        out[ch] = (X, y, _reference_lstsq(X, y), float(np.linalg.cond(X)))
    return out


def _reference_fit(observations, params, loads):
    """Model vector, per-channel rms and condition, excluded indices and
    the first solve's outlier scores, channel by channel and one row per
    observation, with the rms from `aero_loads` of the fitted model."""
    a_ref = params.A_ref
    idx = list(range(len(observations)))
    solved = _reference_solve(observations, loads, params, a_ref)
    scores = np.zeros(len(idx))
    for X, y, coef, _ in solved.values():
        r = np.abs(y - X @ coef)
        mad = np.median(np.abs(r - np.median(r)))
        scores = np.maximum(scores, r / max(3.0 * mad, 1e-4))
    n_max = int(0.2 * len(idx))
    drop = [int(k) for k in np.argsort(-scores)[:n_max] if scores[k] > 1.0]
    if drop:
        idx = [i for i in idx if i not in set(drop)]
        try:
            prior_check_span([observations[i] for i in idx])
        except InsufficientSpan:
            idx, drop = list(range(len(observations))), []
        else:
            solved = _reference_solve([observations[i] for i in idx],
                                      [loads[i] for i in idx], params, a_ref)
    coefs = {}
    for ch, (X, y, coef, _) in solved.items():
        if ch in ("M1", "M2", "M3") and coef[3] > 0.0:
            coef = np.append(_reference_lstsq(X[:, :3], y), 0.0)
        coefs[ch] = coef
    x = np.concatenate([coefs[ch][:3] for ch in CHANNELS]
                       + [coefs[ch][3:] for ch in ("M1", "M2", "M3")])
    fitted = AeroModel(*x, a_ref=a_ref)
    pred = np.array([aero_loads(fitted, AeroAngles(o.alpha, o.beta, o.V), o.w_b,
                                params.rho).as_array() for o in (observations[i] for i in idx)])
    rms = np.sqrt(np.mean((pred - np.array([loads[i] for i in idx])) ** 2, axis=0))
    cond = np.array([solved[ch][3] for ch in CHANNELS])
    return x, rms, cond, tuple(sorted(drop)), scores


class TestTrialIO:
    def test_round_trip(self, tmp_path, steady_trial):
        _, rec = steady_trial
        trial = tmp_path / "trial.csv"
        write_trial(str(trial), rec.t, rec.pos, rec.euler)
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(
            "trial_id,file,kind,dr_x_cm,Fl_gf,Fr_gf\n"
            "t00,trial.csv,spiral,0,5.7,1.3\n"
        )
        loaded = load_trials(str(manifest))
        assert len(loaded) == 1
        assert loaded[0].kind == "spiral"
        assert np.isclose(loaded[0].Fl, 5.7 * GF_TO_N)
        assert np.allclose(loaded[0].pos, rec.pos, atol=1e-8)

    def test_bad_manifest_header(self, tmp_path):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("id,path\n1,x.csv\n")
        with pytest.raises(SchemaError):
            load_trials(str(manifest))

    def test_missing_trial_file(self, tmp_path):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(
            "trial_id,file,kind,dr_x_cm,Fl_gf,Fr_gf\nt0,gone.csv,straight,0,2,2\n"
        )
        with pytest.raises(SchemaError):
            load_trials(str(manifest))

    def test_degrees_rejected(self, tmp_path):
        trial = tmp_path / "trial.csv"
        rows = ["t,x,y,z,phi,theta,psi"]
        for k in range(40):
            rows.append(f"{0.1 * k},0,0,0,0,45,0")  # 45 "rad" is clearly degrees
        trial.write_text("\n".join(rows) + "\n")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(
            "trial_id,file,kind,dr_x_cm,Fl_gf,Fr_gf\nt0,trial.csv,straight,0,2,2\n"
        )
        with pytest.raises(UnitError):
            load_trials(str(manifest))

    @pytest.mark.parametrize("bad_row, message", [
        ("0.2,0,0,0,0,0", "line 4: 6 fields, expected 7"),
        ("0.2,0,0,x,0,0,0", "line 4: non-numeric value 'x'"),
    ])
    def test_malformed_row_names_file_and_line(self, tmp_path, bad_row, message):
        rows = ["t,x,y,z,phi,theta,psi"] + [f"{0.1 * k},0,0,0,0,0,0" for k in range(40)]
        rows[3] = bad_row
        trial = tmp_path / "trial.csv"
        trial.write_text("\n".join(rows) + "\n")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(
            "trial_id,file,kind,dr_x_cm,Fl_gf,Fr_gf\nt0,trial.csv,straight,0,2,2\n"
        )
        with pytest.raises(SchemaError, match=f"trial.csv: {message}"):
            load_trials(str(manifest))

    def test_trailing_blank_line_ignored(self, tmp_path):
        rows = [TRIAL_HEADER] + [f"{0.1 * k},0,0,0,0,{0.01 * k},0" for k in range(40)]
        plain = _load_trial_text(tmp_path, "\n".join(rows) + "\n")[0]
        blank = _load_trial_text(tmp_path, "\n".join(rows) + "\n\n")[0]
        for a, b in ((plain.t, blank.t), (plain.pos, blank.pos), (plain.euler, blank.euler)):
            np.testing.assert_array_equal(b, a)

    def test_blank_line_then_short_row_names_its_line(self, tmp_path):
        rows = [TRIAL_HEADER] + [f"{0.1 * k},0,0,0,0,0,0" for k in range(40)]
        rows[3:5] = ["", "0.3,0,0,0,0,0"]
        with pytest.raises(SchemaError, match="trial.csv: line 5: 6 fields, expected 7"):
            _load_trial_text(tmp_path, "\n".join(rows) + "\n")

    def test_header_only_rejected_without_warning(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SchemaError, match="malformed trial data"):
                _load_trial_text(tmp_path, TRIAL_HEADER + "\n")

    @pytest.mark.parametrize("comment, message", [
        ("# exported by the mocap rig", "line 4: 1 fields, expected 7"),
        ("#0.2,0,0,0,0,0,0", "line 4: non-numeric value '#0.2'"),
    ])
    def test_comment_line_rejected(self, tmp_path, comment, message):
        rows = [TRIAL_HEADER] + [f"{0.1 * k},0,0,0,0,0,0" for k in range(40)]
        rows[3] = comment
        with pytest.raises(SchemaError, match=f"trial.csv: {message}"):
            _load_trial_text(tmp_path, "\n".join(rows) + "\n")

    def test_quoted_numbers_parse_as_reference(self, tmp_path):
        rows = [TRIAL_HEADER] + [f"{0.1 * k},0,0,0,0,0,0" for k in range(40)]
        rows[3] = '"0.2","1e-3"," 0.25",0,"-0.5",0,"3.0"'
        (tmp_path / "trial.csv").write_text("\n".join(rows) + "\n")
        got = _read_trial_csv(str(tmp_path / "trial.csv"))
        ref = _reference_trial_parse(str(tmp_path / "trial.csv"))
        assert got[1][2].tolist() == [1e-3, 0.25, 0.0]
        for a, b in zip(got, ref):
            np.testing.assert_array_equal(a, b)

    def test_written_log_parses_bitwise_as_reference(self, tmp_path, steady_trial):
        _, rec = steady_trial
        path = str(tmp_path / "trial.csv")
        write_trial(path, rec.t, rec.pos, rec.euler)
        for a, b in zip(_read_trial_csv(path), _reference_trial_parse(path)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @given(
        n=st.integers(0, 5),
        times=st.sampled_from(["float", "integer-valued", "int64"]),
        values=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_writer_bytes_match_reference(self, tmp_path_factory, n, times, values):
        """The one-pass writer gives the bytes of the per-cell csv.writer
        reference, on signed zeros, infinities, nan, subnormals, extremes
        and integer-valued times (float or int64 arrays)."""
        cell = st.floats() | st.sampled_from([
            -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310, 1e300, -1e300, 1e-300, -1e-300,
            0.1, 123456789.0, 1234567891.0])
        if times == "float":
            t = np.array(values.draw(st.lists(cell, min_size=n, max_size=n)), dtype=float)
        else:
            t = np.array(values.draw(st.lists(st.integers(-2**40, 2**40), min_size=n,
                                              max_size=n)),
                         dtype=np.int64 if times == "int64" else float)
        pos, euler = (np.array(values.draw(st.lists(cell, min_size=3 * n, max_size=3 * n)),
                               dtype=float).reshape(n, 3) for _ in range(2))
        d = tmp_path_factory.mktemp("writer", numbered=True)
        write_trial(str(d / "got.csv"), t, pos, euler)
        reference_write_trial(str(d / "ref.csv"), t, pos, euler)
        assert (d / "got.csv").read_bytes() == (d / "ref.csv").read_bytes()

    @pytest.mark.parametrize("t, pos, euler", [
        ((5,), (6, 3), (5, 3)),
        ((5,), (5, 2), (5, 3)),
        ((5,), (5, 3), (4, 3)),
        ((5, 1), (5, 3), (5, 3)),
        ((5,), (15,), (5, 3)),
    ])
    def test_writer_rejects_mismatched_shapes(self, tmp_path, t, pos, euler):
        path = tmp_path / "trial.csv"
        with pytest.raises(ValueError, match="shape"):
            write_trial(str(path), np.zeros(t), np.zeros(pos), np.zeros(euler))
        assert not path.exists()

    @pytest.mark.parametrize("row, cell", [(3, 1), (3, 0), (40, 6), (41, 2)])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_value_names_its_line(self, tmp_path, row, cell, value):
        rows = [TRIAL_HEADER] + [f"{0.1 * k},0,0,0,0,0,0" for k in range(41)]
        fields = rows[row].split(",")
        fields[cell] = value
        rows[row] = ",".join(fields)
        rows.insert(2, "")  # counted as a line of the file, skipped as a row
        with pytest.raises(SchemaError,
                           match=f"trial.csv: line {row + 2}: non-finite value '{value}'"):
            _load_trial_text(tmp_path, "\n".join(rows) + "\n")

    @pytest.mark.parametrize("dr_x_cm", ["6", "-6", "6.00000000005"])
    def test_manifest_dr_x_at_rail_limit_accepted(self, tmp_path, dr_x_cm):
        rows = [TRIAL_HEADER] + [f"{0.1 * k},0,0,0,0,0,0" for k in range(41)]
        (tmp_path / "trial.csv").write_text("\n".join(rows) + "\n")
        (tmp_path / "manifest.csv").write_text(MANIFEST.replace(",0,2,2", f",{dr_x_cm},2,2"))
        (rec,) = load_trials(str(tmp_path / "manifest.csv"))
        assert rec.dr_x == float(dr_x_cm) * 1e-2

    def test_non_monotonic_time_rejected(self, tmp_path):
        trial = tmp_path / "trial.csv"
        trial.write_text(
            "t,x,y,z,phi,theta,psi\n0,0,0,0,0,0,0\n2,0,0,0,0,0,0\n1,0,0,0,0,0,0\n"
        )
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(
            "trial_id,file,kind,dr_x_cm,Fl_gf,Fr_gf\nt0,trial.csv,straight,0,2,2\n"
        )
        with pytest.raises(SchemaError):
            load_trials(str(manifest))

    @pytest.mark.parametrize("row, message", [
        ("t1,trial.csv,straight,0,2", "manifest row 3: 5 fields, expected 6"),
        ("t1,trial.csv,straight,0,2,2,9", "manifest row 3: 7 fields, expected 6"),
        ("t1,trial.csv,straight,x,2,2", "manifest row 3: dr_x_cm must be a number, got 'x'"),
        ("t1,trial.csv,straight,0,,2", "manifest row 3: Fl_gf must be a number, got ''"),
        ("t1,trial.csv,straight,0,2,2 gf", "manifest row 3: Fr_gf must be a number, got '2 gf'"),
    ])
    def test_malformed_manifest_row_named(self, tmp_path, row, message):
        """A manifest row of the wrong length or with a non-numeric number
        field raises SchemaError naming the row (counted as before, blank
        lines skipped) and the field."""
        rows = [TRIAL_HEADER] + [f"{0.1 * k},0,0,0,0,0,0" for k in range(41)]
        (tmp_path / "trial.csv").write_text("\n".join(rows) + "\n")
        (tmp_path / "manifest.csv").write_text(MANIFEST + "\n" + row + "\n")
        with pytest.raises(SchemaError, match=f"^{message}$"):
            load_trials(str(tmp_path / "manifest.csv"))

    def test_line_endings_parse_alike(self, tmp_path, steady_trial):
        """CRLF and CR copies of a written log parse bit for bit as the LF
        log, also by the handle-fed prior reader; a bad row in a CRLF log is
        still named by its line."""
        _, rec = steady_trial
        lf = tmp_path / "lf.csv"
        write_trial(str(lf), rec.t, rec.pos, rec.euler)
        text = lf.read_bytes()
        ref = _read_trial_csv(str(lf))
        for name, ending in (("crlf.csv", b"\r\n"), ("cr.csv", b"\r")):
            path = tmp_path / name
            path.write_bytes(text.replace(b"\n", ending))
            for got in (_read_trial_csv(str(path)), prior_read_trial_csv(str(path))):
                for a, b in zip(got, ref):
                    assert a.shape == b.shape and a.tobytes() == b.tobytes()
        lines = text.split(b"\n")
        lines[7] = b"0.2,0,0,0,0,0"
        (tmp_path / "bad.csv").write_bytes(b"\r\n".join(lines))
        with pytest.raises(SchemaError, match="bad.csv: line 8: 6 fields, expected 7"):
            _read_trial_csv(str(tmp_path / "bad.csv"))

    def test_loadtxt_reads_each_log_by_path(self, tmp_path, steady_trial, monkeypatch):
        """load_trials hands np.loadtxt each log's path, a str, once per
        log, never an open file, which numpy would read line by line."""
        _, rec = steady_trial
        for name in ("a.csv", "b.csv"):
            write_trial(str(tmp_path / name), rec.t, rec.pos, rec.euler)
        (tmp_path / "manifest.csv").write_text(
            "trial_id,file,kind,dr_x_cm,Fl_gf,Fr_gf\n"
            "t0,a.csv,spiral,0,5.7,1.3\nt1,b.csv,spiral,0,5.7,1.3\n")
        calls = []
        loadtxt = np.loadtxt

        def recording_loadtxt(fname, *args, **kwargs):
            calls.append(fname)
            return loadtxt(fname, *args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", recording_loadtxt)
        assert len(load_trials(str(tmp_path / "manifest.csv"))) == 2
        assert calls == [str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]
        assert all(type(c) is str for c in calls)

    @pytest.mark.parametrize("n, edit", [
        (41, {}),
        (41, {5: "0.4,0,0,0,0,0,0"}),                              # time not increasing
        (41, {9: "0.8,21,0,0,0,0,0"}),                             # |position| > 20 m
        (41, {9: "0.8,0,0,0,0,0,-3.2"}),                           # |angle| > pi
        (41, {9: "0.8,nan,0,0,0,0,0"}),
        (41, {40: "3.9,0,0,inf,0,0,0"}),
        (41, {3: "0.2,0,0,0,0,0"}),                                # six fields
        (41, {3: '"0.2","1e-3"," 0.25",0,"-0.5",0,"3.0"'}),        # quoted cells
        (41, {2: ""}),                                             # blank line
        (20, {}),                                                  # 1.9 s long
    ])
    def test_read_matches_prior(self, tmp_path, n, edit):
        """The path reader gives the prior handle reader's arrays bit for
        bit, or its exception and message, on valid, quoted, short,
        non-monotonic, out-of-unit and non-finite logs."""
        rows = [TRIAL_HEADER] + [f"{0.1 * k},{0.01 * k},0,0,0,{0.001 * k},0" for k in range(n)]
        for k, row in edit.items():
            rows[k] = row
        path = str(tmp_path / "trial.csv")
        (tmp_path / "trial.csv").write_text("\n".join(rows) + "\n")
        outcomes = []
        for read in (_read_trial_csv, prior_read_trial_csv):
            try:
                outcomes.append([a.tobytes() for a in read(path)])
            except ValueError as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1]


class TestExtractSteady:
    def test_recovers_equilibrium(self, params, steady_trial):
        sol, rec = steady_trial
        obs = extract_steady(rec, 2.0, params)
        assert np.isclose(obs.V, sol.V, rtol=0.01)
        assert np.isclose(obs.theta, sol.theta, atol=0.01)
        assert np.isclose(obs.phi, sol.phi, atol=0.01)
        assert np.isclose(obs.psidot, sol.psidot, rtol=0.01)
        assert np.isclose(obs.alpha, sol.alpha, atol=0.02)
        assert np.isclose(obs.beta, sol.beta, atol=0.02)

    def test_matches_per_sample_formulas(self, params, steady_trial):
        """The array extraction of airspeed and aerodynamic angles equals a
        per-sample loop over EulerAngles, the rotation matrix and
        aero_angles, on a helix log with motion-capture noise."""
        from dataclasses import replace

        _, rec = steady_trial
        rng = np.random.default_rng(3)
        rec = replace(rec, pos=rec.pos + 3e-4 * rng.standard_normal(rec.pos.shape),
                      euler=rec.euler + np.radians(0.1) * rng.standard_normal(rec.euler.shape))
        window = 2.0
        obs = extract_steady(rec, window, params)

        vel = _smooth_velocity(np.diff(rec.t), rec.pos, 0)
        ref = np.empty((rec.t.size, 3))
        for k in range(rec.t.size):
            a = aero_angles(rotation_body_to_inertial(EulerAngles(*rec.euler[k])).T @ vel[k])
            ref[k] = a.V, a.alpha, a.beta
        wlen = max(2, int(round(window / float(np.median(np.diff(rec.t))))))
        V, alpha, beta = ref[-wlen:].mean(axis=0)
        np.testing.assert_allclose([obs.V, obs.alpha, obs.beta], [V, alpha, beta],
                                   rtol=1e-12, atol=0)

    def test_final_window_longer_than_half_the_record(self, params, helix_settings):
        """The final window is the last `wlen` samples, also where it starts
        before the half of the record: the 4 s window of the CLI on a 6 s
        log (1201 samples, 800 in the window) covers samples 401 to 1200.
        A pitch disturbance there, in the first half, fails the steadiness
        test and a small one moves the average; one before sample 401 does
        neither."""
        from dataclasses import replace

        sol, dr_x, Fl, Fr = helix_settings["straight"]
        rec = _helix_record(sol, np.random.default_rng(0), 0.0, 0.0, 0.0, dr_x, Fl, Fr)
        n, wlen = rec.t.size, 800
        assert (n, n // 2) == (1201, 600)

        def pitched(lo, hi, deg):
            euler = rec.euler.copy()
            euler[lo:hi, 1] += np.radians(deg)
            return replace(rec, euler=euler)

        with pytest.raises(NotSteady, match="pitch"):
            extract_steady(pitched(n - wlen, n // 2, 10.0), 4.0, params)
        before = extract_steady(pitched(100, n - wlen, 10.0), 4.0, params)
        assert before.theta == np.mean(rec.euler[n - wlen:, 1])
        small = pitched(n - wlen, n - wlen + 50, 0.5)
        obs = extract_steady(small, 4.0, params)
        np.testing.assert_allclose(obs.theta, np.mean(small.euler[n - wlen:, 1]),
                                   rtol=1e-14, atol=0)
        assert obs.theta > np.mean(small.euler[n // 2:, 1]) + 1e-4

    def test_transient_rejected(self, params, transient_trial):
        # A thrust step near the end keeps the tail of the record transient.
        with pytest.raises(NotSteady):
            extract_steady(transient_trial, 2.0, params)

    @given(
        n=st.integers(3, 60) | st.just(1201),
        jitter=st.booleans(),
        offset=st.sampled_from([0.0, 1.0, 1e3]),
        seed=st.integers(0, 2**32 - 1),
        head=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_smooth_velocity_matches_savgol(self, n, jitter, offset, seed, head):
        """The prebuilt Savitzky-Golay operator reproduces savgol_filter
        (mode "interp", edges included) followed by np.gradient, within
        1e-12 of the scale of a difference quotient of the positions, on
        the rows from any `head` up to n // 2 on."""
        rng = np.random.default_rng(seed)
        dt = 0.005
        t = dt * (np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.5, n - 1))])
                  if jitter else np.arange(n))
        pos = offset + rng.standard_normal((n, 3))
        head = head.draw(st.integers(0, n // 2))
        ref = reference_smooth_velocity(t, pos)[head:]
        got = _smooth_velocity(np.diff(t), pos, head)
        scale = np.max(np.abs(pos)) / np.min(np.diff(t))
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * scale

    @given(
        case=st.sampled_from(["straight", "spiral", "transient"]),
        pos_sigma=st.sampled_from([0.0, 3e-4]) | st.floats(0.0, 0.03),
        angle_sigma=st.sampled_from([0.0, np.radians(0.1)]) | st.floats(0.0, 0.04),
        window=st.sampled_from([1.0, 2.0, 4.0]),
        psi0=st.floats(-np.pi, np.pi),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_reference_extraction(self, params, helix_settings, transient_trial,
                                          case, pos_sigma, angle_sigma, window, psi0, seed):
        """On noisy helix logs from any heading (so the yaw wraps inside the
        averaging window in some), perturbed until they fail the steadiness
        test, and on a transient flight, the extraction gives the reference
        observation within 1e-12 relative (angles and rates also within
        1e-12 absolute) or raises the reference's error.  The 4 s window
        (the CLI's) is longer than the trailing half of a 6 s log."""
        from dataclasses import replace

        rng = np.random.default_rng(seed)
        if case == "transient":
            rec = transient_trial
            rec = replace(rec, pos=rec.pos + pos_sigma * rng.standard_normal(rec.pos.shape),
                          euler=rec.euler + angle_sigma * rng.standard_normal(rec.euler.shape))
        else:
            sol, dr_x, Fl, Fr = helix_settings[case]
            rec = _helix_record(sol, rng, psi0, pos_sigma, angle_sigma, dr_x, Fl, Fr)
        ref = _outcome(reference_extract_steady, rec, window, params)
        got = _outcome(extract_steady, rec, window, params)
        if isinstance(ref, Exception):
            assert type(got) is type(ref) and str(got) == str(ref)
            return
        assert not isinstance(got, Exception), got
        for name in ("theta", "phi", "psidot", "alpha", "beta", "w_b"):
            np.testing.assert_allclose(getattr(got, name), getattr(ref, name),
                                       rtol=1e-12, atol=1e-12, err_msg=name)
        np.testing.assert_allclose(got.V, ref.V, rtol=1e-12, atol=0)
        assert (got.Fl, got.Fr, got.kind, got.mirrored) == (ref.Fl, ref.Fr, ref.kind, ref.mirrored)
        np.testing.assert_array_equal(got.rbar, ref.rbar)

    def test_short_record_rejected(self, params, steady_trial):
        _, rec = steady_trial
        with pytest.raises(ValueError):
            extract_steady(rec, 10.0, params)

    @given(
        pos_sigma=st.sampled_from([0.0, 3e-4]) | st.floats(0.0, 0.01),
        angle_sigma=st.sampled_from([0.0, np.radians(0.1)]) | st.floats(0.0, 0.02),
        window=st.sampled_from([1.0, 2.0, 4.0]),
        psi0=st.floats(-np.pi, np.pi),
        seed=st.integers(0, 2**32 - 1),
        outlier=st.none() | st.integers(0, 17),
        damped=st.none() | st.sampled_from(("M1", "M2", "M3")),
    )
    @settings(max_examples=40, deadline=None)
    def test_campaign_matches_prior_bitwise(self, params, model, campaign_settings, pos_sigma,
                                            angle_sigma, window, psi0, seed, outlier, damped):
        """On noisy steady-helix campaigns, the tail-only extraction gives
        the prior extraction's observations bit for bit, and the fit the
        prior fit's model, rms, condition numbers, exclusions and final rms,
        with its own load inversion, and with an outlier row and an active
        damping bound in the loads."""
        rng = np.random.default_rng(seed)
        obs = []
        for k, (sol, dr_x, Fl, Fr) in enumerate(campaign_settings):
            rec = _helix_record(sol, rng, psi0 + k, pos_sigma, angle_sigma, dr_x, Fl, Fr)
            got = _outcome(extract_steady, rec, window, params)
            _assert_same_bits(got, _outcome(prior_extract_steady, rec, window, params))
            if not isinstance(got, Exception):
                obs.append(got)
        obs = mirror_augment(obs)
        loads = _invert_loads(obs, params) if len(obs) >= 12 else np.zeros((len(obs), 6))
        if damped is not None:
            loads = _force_positive_damping(loads, obs, model, damped)
        if outlier is not None and outlier < len(obs):
            loads[outlier] *= 3.0
        for kwargs in ({}, {"loads": list(loads)}):
            outcomes = []
            for f in (fit, prior_fit):
                try:
                    outcomes.append(f(obs, params, **kwargs))
                except (InsufficientSpan, RankDeficient) as exc:
                    outcomes.append(exc)
            _assert_same_bits(*outcomes)

    @given(
        n=st.integers(3, 40),
        spacing=st.sampled_from(["jitter", "uniform", "ragged"]),
        slack=st.floats(0.0, 1.5),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_short_records_match_prior_bitwise(self, params, n, spacing, slack, seed):
        """On short records with non-uniform, exactly uniform or ragged
        sample times, and a window that reaches back into the edge-fit rows
        of the smoother (or, with ragged times, to the first sample), the
        tail velocities are the prior ones and the extraction gives the
        prior extraction's observation or exception, bit for bit."""
        rng = np.random.default_rng(seed)
        if spacing == "uniform":
            # Exactly uniform, and not a power of two, so that np.gradient's
            # uniform form rounds differently from its general one.
            dt = np.full(n - 1, 0.75)
        elif spacing == "jitter":
            dt = 0.3 * rng.uniform(0.95, 1.05, n - 1)
        else:
            dt = np.where(rng.random(n - 1) < 0.6, 1e-3, 1.0)
        t = 10.0 + np.concatenate([[0.0], np.cumsum(dt)])
        v = np.array([1.0, 0.1, 0.2])
        pos = t[:, None] * v + 1e-4 * rng.standard_normal((n, 3))
        euler = np.array([0.05, 0.1, -3.1]) + 1e-3 * rng.standard_normal((n, 3))
        rec = TrialRecord(trial_id="s", kind="spiral", dr_x=0.01, Fl=0.02, Fr=0.03, t=t,
                          pos=pos, euler=euler)
        window = max(t[-1] - t[0] - 1.0 - slack, 0.0)
        head = max(0, min(n // 2, n - max(2, int(round(window / float(np.median(dt)))))))
        got = _smooth_velocity(np.diff(t), pos, head)
        ref = prior_smooth_velocity(t, pos)[head:]
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
        _assert_same_bits(_outcome(extract_steady, rec, window, params),
                          _outcome(prior_extract_steady, rec, window, params))


class TestInvertAero:
    def test_matches_model_loads_on_spiral(self, params, model, grid_obs):
        obs = grid_obs[20]
        inv = invert_aero(obs, params)
        pred = aero_loads(model, AeroAngles(obs.alpha, obs.beta, obs.V),
                          obs.w_b, params.rho)
        assert np.allclose(inv.as_array(), pred.as_array(), atol=1e-8)

    def test_straight_lateral_loads_vanish(self, sym_bundle):
        p, m = sym_bundle
        sol = solve_straight(0.0, F2, p, m)
        obs = observation_from_solution(sol, 0.0, F2, F2, p)
        inv = invert_aero(obs, p)
        assert abs(inv.S) < 1e-10
        assert abs(inv.M1) < 1e-10
        assert abs(inv.M3) < 1e-10


    @given(
        x=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.8, 0.8), st.floats(-1.0, 1.0),
                    st.floats(0.05, 2.0), st.floats(-0.4, 0.4), st.floats(-0.4, 0.4)),
        thrust=st.tuples(st.floats(0.0, 0.05), st.floats(0.0, 0.05)),
        dr_x=st.floats(-0.06, 0.06),
    )
    @settings(max_examples=100, deadline=None)
    def test_cancels_matrix_balance(self, params, model, x, thrust, dr_x):
        """Resolved back into body axes, the inverted loads cancel the
        non-aero generalized force of the matrix reference."""
        theta, phi, psidot, V, alpha, beta = x
        Fl, Fr = thrust
        rbar = params.rbar0 + np.array([dr_x, 0.0, 0.0])
        a = AeroAngles(alpha, beta, V)
        w_b = psidot * np.array([-np.sin(theta), np.sin(phi) * np.cos(theta),
                                 np.cos(phi) * np.cos(theta)])
        obs = SteadyObservation(theta=theta, phi=phi, psidot=psidot, V=V, alpha=alpha,
                                beta=beta, w_b=w_b, Fl=Fl, Fr=Fr, rbar=rbar, kind="spiral")
        s = State(p=np.zeros(3), e=EulerAngles(phi, theta, 0.0),
                  v=wind_to_body(a) @ np.array([V, 0.0, 0.0]), w=w_b,
                  rbar=rbar, rbardot=np.zeros(3))
        ref = -reference_rhs(s, Fl, Fr, np.zeros(3), params, model, aero=False)[:6]
        F, T = loads_to_body(a, invert_aero(obs, params))
        got = np.concatenate([F, T])
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-10 * np.max(np.abs(ref)))

    @given(
        xs=st.lists(
            st.tuples(st.floats(-0.5, 0.5), st.floats(-0.8, 0.8), st.floats(-1.0, 1.0),
                      st.floats(0.0, 2.0), st.floats(-0.4, 0.4), st.floats(-1.5, 1.5),
                      st.floats(0.0, 0.05), st.floats(0.0, 0.05), st.floats(-0.06, 0.06)),
            min_size=1, max_size=12),
        faults=st.lists(st.tuples(
            st.integers(0, 11),
            st.sampled_from([("V", -1e-3), ("V", -1.0), ("beta", np.pi / 2 + 1e-9),
                             ("beta", -2.0), ("phi", np.nan), ("theta", np.inf)])),
            max_size=2),
    )
    @settings(max_examples=150, deadline=None)
    def test_array_inversion_matches_per_observation(self, params, xs, faults):
        """`fit`'s one-pass inversion over arrays equals `invert_aero` per
        observation, and both equal the rotation-matrix reference, within
        1e-12 of the largest force (moment) of the observation; an
        observation outside the `AeroAngles`/`EulerAngles` domain raises
        the reference's ValueError, that of the first such observation."""
        from dataclasses import replace

        obs = []
        for theta, phi, psidot, V, alpha, beta, Fl, Fr, dr_x in xs:
            w_b = psidot * np.array([-np.sin(theta), np.sin(phi) * np.cos(theta),
                                     np.cos(phi) * np.cos(theta)])
            obs.append(SteadyObservation(
                theta=theta, phi=phi, psidot=psidot, V=V, alpha=alpha, beta=beta, w_b=w_b,
                Fl=Fl, Fr=Fr, rbar=params.rbar0 + np.array([dr_x, 0.0, 0.0]), kind="spiral"))
        for k, (field, value) in faults:
            obs[k % len(obs)] = replace(obs[k % len(obs)], **{field: value})
        try:
            ref = np.array([reference_invert_aero(o, params).as_array() for o in obs])
        except ValueError as exc:
            for path in (_invert_loads, lambda o, p: [invert_aero(x, p) for x in o]):
                with pytest.raises(ValueError) as raised:
                    path(obs, params)
                assert type(raised.value) is type(exc) and str(raised.value) == str(exc)
            return
        scale = np.empty_like(ref)
        scale[:, :3] = np.max(np.abs(ref[:, :3]), axis=1, keepdims=True)
        scale[:, 3:] = np.max(np.abs(ref[:, 3:]), axis=1, keepdims=True)
        single = np.array([invert_aero(o, params).as_array() for o in obs])
        for got in (single, _invert_loads(obs, params)):
            assert got.shape == ref.shape
            assert np.all(np.abs(got - ref) <= 1e-12 * scale), np.max(np.abs(got - ref) / scale)


class TestMirrorAugment:
    def test_counts(self, grid_obs):
        out = mirror_augment(grid_obs)
        assert len(out) == 47 + 36  # straights are their own mirror

    def test_involution_fields(self, grid_obs):
        obs = grid_obs[15]
        mirrored = mirror_augment([obs])[1]
        twice = mirror_augment([mirrored])
        assert len(twice) == 1  # already mirrored, not duplicated again
        assert mirrored.theta == obs.theta
        assert mirrored.V == obs.V
        assert mirrored.alpha == obs.alpha
        assert mirrored.phi == -obs.phi
        assert mirrored.psidot == -obs.psidot
        assert mirrored.beta == -obs.beta
        assert mirrored.Fl == obs.Fr and mirrored.Fr == obs.Fl

    def test_mirrored_loads_parity(self, sym_bundle):
        p, m = sym_bundle
        Fl = 0.5 * (7.0 + 4.4) * GF_TO_N
        Fr = 0.5 * (7.0 - 4.4) * GF_TO_N
        sol = solve_spiral(0.01, Fl, Fr, p, m)
        obs = observation_from_solution(sol, 0.01, Fl, Fr, p)
        mirrored = mirror_augment([obs])[1]
        a = invert_aero(obs, p).as_array()
        b = invert_aero(mirrored, p).as_array()
        parity = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])  # D S L M1 M2 M3
        assert np.allclose(b, parity * a, atol=1e-10)


class TestFit:
    def test_round_trip_noise_free(self, params, model, grid_obs):
        result = fit(grid_obs, params)
        rel = np.abs(result.model.as_vector() - model.as_vector()) / np.abs(
            model.as_vector()
        )
        assert np.max(rel) <= 1e-6
        assert result.excluded == ()

    def test_outlier_excluded(self, params, model, grid_obs):
        loads = [invert_aero(o, params).as_array() for o in grid_obs]
        loads[10] = loads[10] * 3.0  # corrupt one trial
        result = fit(grid_obs, params, loads=loads)
        assert 10 in result.excluded
        rel = np.abs(result.model.as_vector() - model.as_vector()) / np.abs(
            model.as_vector()
        )
        assert np.max(rel) <= 1e-5

    @pytest.mark.parametrize("channel", ["M1", "M2", "M3"])
    def test_damping_bound_active(self, params, model, grid_obs, channel):
        """Loads whose unconstrained damping is positive fit k = 0 exactly,
        with the polynomial coefficients of the bounded least-squares
        optimum on the kept observations."""
        from scipy.optimize import lsq_linear

        from blimpdyn.sysid import _regressors, _weights

        j = ("M1", "M2", "M3").index(channel)
        ci = CHANNELS.index(channel)
        loads = np.array([invert_aero(o, params).as_array() for o in grid_obs])
        loads[10] *= 3.0  # one outlier, so the bound is met after a drop
        baseline = fit(grid_obs, params, loads=list(loads))
        loads = _force_positive_damping(loads, grid_obs, model, channel)
        result = fit(grid_obs, params, loads=list(loads))

        assert result.excluded == baseline.excluded and 10 in result.excluded
        x = result.model.as_vector()
        assert x[18 + j] == 0.0
        kept = [i for i in range(len(grid_obs)) if i not in result.excluded]
        w = _weights(loads[kept])[:, ci]
        x_kept = np.array([(o.alpha, o.beta, o.V, *o.w_b) for o in (grid_obs[i] for i in kept)])
        X = _regressors(x_kept, params)[1][j] * w[:, None]
        y = loads[kept, ci] * w
        ref = lsq_linear(X, y, bounds=([-np.inf] * 4, [np.inf] * 3 + [0.0]), method="bvls")
        assert ref.x[3] == 0.0
        np.testing.assert_allclose(x[9 + 3 * j:12 + 3 * j], ref.x[:3], rtol=1e-9)

    @given(
        noise=st.floats(0.0, 0.05),
        seed=st.integers(0, 2**32 - 1),
        outlier=st.none() | st.integers(0, 46),
        damped=st.none() | st.sampled_from(("M1", "M2", "M3")),
        quiet=st.none() | st.tuples(st.integers(0, 46), st.integers(0, 5)),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_fit(self, params, model, grid_obs, grid_loads,
                                   noise, seed, outlier, damped, quiet):
        """The stacked fit equals the per-observation, per-channel fit on
        the grid under load noise, an outlier row, an active damping bound
        and a near-zero load that the weight floor catches."""
        loads = grid_loads.copy()
        if damped is not None:
            loads = _force_positive_damping(loads, grid_obs, model, damped)
        if outlier is not None:
            loads[outlier] *= 3.0
        if quiet is not None:
            loads[quiet] *= 1e-5
        loads *= 1.0 + noise * np.random.default_rng(seed).standard_normal(loads.shape)
        x_ref, rms_ref, cond_ref, excluded_ref, scores = _reference_fit(grid_obs, params, loads)
        # A score at the threshold, or a tie at the drop cap, is decided by
        # the last bits of the residuals.
        assume(np.all(np.abs(scores - 1.0) > 1e-9))
        ranked = np.sort(scores)[::-1]
        n_max = int(0.2 * len(scores))
        assume(ranked[n_max] <= 1.0 or ranked[n_max - 1] - ranked[n_max] > 1e-9 * ranked[n_max])

        result = fit(grid_obs, params, loads=list(loads))
        assert result.excluded == excluded_ref
        np.testing.assert_allclose([result.condition[ch] for ch in CHANNELS], cond_ref,
                                   rtol=1e-12, atol=0)
        # A coefficient the noise drives near zero also gets an absolute
        # tolerance of 1e-12 of the largest coefficient in its group of three.
        scale = np.repeat(np.max(np.abs(x_ref.reshape(7, 3)), axis=1), 3)
        x = result.model.as_vector()
        assert np.all(np.abs(x - x_ref) <= 1e-10 * np.abs(x_ref) + 1e-12 * scale), (x, x_ref)
        # Clean fits leave rms at the round-off of the loads, so the rms
        # also gets an absolute tolerance of 1e-10 of each channel's RMS load.
        rms = np.array([result.rms[ch] for ch in CHANNELS])
        load_rms = np.sqrt(np.mean(loads ** 2, axis=0))
        assert np.all(np.abs(rms - rms_ref) <= 1e-10 * (np.abs(rms_ref) + load_rms)), (rms, rms_ref)

    def test_fit_evaluates_no_aero_model(self, params, grid_obs, monkeypatch):
        """The per-channel rms comes from the designs, not from evaluating
        the fitted model at every observation."""
        def forbidden(*args, **kwargs):
            raise AssertionError("fit evaluated the aerodynamic model")

        monkeypatch.setattr(aero, "aero_loads", forbidden)
        monkeypatch.setattr(aero, "bind", forbidden)
        assert fit(grid_obs, params).excluded == ()

    @pytest.mark.parametrize("damped", [None, "M2"])
    def test_stacked_solve_count(self, params, model, grid_obs, grid_loads, monkeypatch,
                                 damped):
        """One batched SVD per stack and solve (forces and moments, before
        and after the outlier pass), which also gives the condition numbers,
        plus one per active damping bound; the per-channel fit made 12 QR
        and 12 SVD calls."""
        loads = grid_loads.copy()
        if damped is not None:
            loads = _force_positive_damping(loads, grid_obs, model, damped)
        loads[10] *= 3.0
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        result = fit(grid_obs, params, loads=list(loads))
        assert 10 in result.excluded
        n, kept = len(grid_obs), len(grid_obs) - len(result.excluded)
        stacks = [(3, n, 3), (3, n, 4), (3, kept, 3), (3, kept, 4)]
        if damped is not None:
            assert result.model.as_vector()[18 + ("M1", "M2", "M3").index(damped)] == 0.0
            stacks.append((kept, 3))
        assert calls == stacks

    def test_fit_inverts_without_invert_aero(self, params, grid_obs, grid_loads, monkeypatch):
        """Without `loads`, fit inverts all observations in one pass over
        arrays and never calls the per-observation `invert_aero`; the fit
        equals the one on the per-observation loads."""
        def forbidden(*args, **kwargs):
            raise AssertionError("fit inverted the observations one at a time")

        expected = fit(grid_obs, params, loads=list(grid_loads))
        monkeypatch.setattr(sysid, "invert_aero", forbidden)
        result = fit(grid_obs, params)
        assert result.excluded == expected.excluded == ()
        np.testing.assert_allclose(result.model.as_vector(), expected.model.as_vector(),
                                   rtol=1e-9, atol=0)

    @given(
        n=st.integers(1, 60),
        kind=st.sampled_from(["spread", "ties", "special"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_sort_median_is_np_median(self, n, kind, seed):
        """The channel medians from one sort equal np.median(axis=0) bit for
        bit, for odd and even counts, tied values, and columns holding NaN
        or infinities (with a warning where numpy warns: inf - inf)."""
        rng = np.random.default_rng(seed)
        if kind == "spread":
            a = rng.standard_normal((n, 6)) * 10.0 ** rng.integers(-5, 6)
        elif kind == "ties":
            a = rng.integers(-3, 4, (n, 6)).astype(float)
        else:
            a = rng.choice([np.nan, np.inf, -np.inf, -1.0, 0.0, 2.5], size=(n, 6),
                           p=[0.1, 0.2, 0.2, 0.2, 0.1, 0.2])
        with warnings.catch_warnings(record=True) as ours:
            warnings.simplefilter("always")
            got = _median(a)
        with warnings.catch_warnings(record=True) as numpy_s:
            warnings.simplefilter("always")
            ref = np.median(a, axis=0)
        assert got.tobytes() == ref.tobytes()
        assert [w.category for w in ours] == [w.category for w in numpy_s]

    def test_insufficient_count(self, params, grid_obs):
        with pytest.raises(InsufficientSpan):
            fit(grid_obs[:8], params)

    def test_insufficient_alpha_span(self, params, grid_obs):
        clones = [grid_obs[20]] * 15
        with pytest.raises(InsufficientSpan):
            fit(clones, params)

    def test_rank_deficiency_detected(self, params, grid_obs):
        """beta == alpha everywhere makes the drag regressors collinear."""
        from dataclasses import replace

        degenerate = [replace(o, beta=o.alpha) for o in grid_obs[:16]]
        loads = [invert_aero(o, params).as_array() for o in degenerate]
        with pytest.raises(RankDeficient):
            fit(degenerate, params, loads=loads)

    def test_loads_alignment_checked(self, params, grid_obs):
        with pytest.raises(ValueError):
            fit(grid_obs, params, loads=[np.zeros(6)] * 3)


def test_average_by_setting(grid_obs):
    doubled = grid_obs + [grid_obs[0], grid_obs[5]]
    averaged = average_by_setting(doubled)
    assert len(averaged) == len(grid_obs)
    collapsed = average_by_setting([grid_obs[0], grid_obs[0]])
    assert len(collapsed) == 1
    assert collapsed[0].V == grid_obs[0].V
