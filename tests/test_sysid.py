import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blimpdyn.aero import aero_loads, loads_to_body
from blimpdyn.equilibria import solve_spiral, solve_straight
from blimpdyn.frames import GF_TO_N, AeroAngles, EulerAngles, State, wind_to_body
from blimpdyn.simulate import InputSchedule, integrate
from blimpdyn.sysid import (
    InsufficientSpan,
    NotSteady,
    RankDeficient,
    SchemaError,
    SteadyObservation,
    UnitError,
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

        from blimpdyn.frames import aero_angles, rotation_body_to_inertial
        from blimpdyn.sysid import _smooth_velocity

        _, rec = steady_trial
        rng = np.random.default_rng(3)
        rec = replace(rec, pos=rec.pos + 3e-4 * rng.standard_normal(rec.pos.shape),
                      euler=rec.euler + np.radians(0.1) * rng.standard_normal(rec.euler.shape))
        window = 2.0
        obs = extract_steady(rec, window, params)

        vel = _smooth_velocity(rec.t, rec.pos)
        ref = np.empty((rec.t.size, 3))
        for k in range(rec.t.size):
            a = aero_angles(rotation_body_to_inertial(EulerAngles(*rec.euler[k])).T @ vel[k])
            ref[k] = a.V, a.alpha, a.beta
        wlen = max(2, int(round(window / float(np.median(np.diff(rec.t))))))
        V, alpha, beta = ref[-wlen:].mean(axis=0)
        np.testing.assert_allclose([obs.V, obs.alpha, obs.beta], [V, alpha, beta],
                                   rtol=1e-12, atol=0)

    def test_transient_rejected(self, params, model):
        from blimpdyn.frames import EulerAngles, State

        from blimpdyn.simulate import Segment

        s0 = State(p=np.zeros(3), e=EulerAngles(0.0, 0.0, 0.0),
                   v=np.zeros(3), w=np.zeros(3),
                   rbar=params.rbar0, rbardot=np.zeros(3))
        # A thrust step near the end keeps the tail of the record transient.
        sched = InputSchedule((
            Segment(0.0, 4.5, F2, F2),
            Segment(4.5, 6.0, 5 * F2, 0.0),
        ))
        traj = integrate(s0, sched, params, model, T=6.0)
        rec = trajectory_to_trial(traj, "t01", "spiral", 0.0, 4 * F2, F2)
        with pytest.raises(NotSteady):
            extract_steady(rec, 2.0, params)

    def test_short_record_rejected(self, params, steady_trial):
        _, rec = steady_trial
        with pytest.raises(ValueError):
            extract_steady(rec, 10.0, params)


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
    def test_cancels_matrix_balance(self, params, model, reference_rhs, x, thrust, dr_x):
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

        from blimpdyn.sysid import CHANNELS, _channel_regression

        j = ("M1", "M2", "M3").index(channel)
        ci = CHANNELS.index(channel)
        loads = np.array([invert_aero(o, params).as_array() for o in grid_obs])
        loads[10] *= 3.0  # one outlier, so the bound is met after a drop
        baseline = fit(grid_obs, params, loads=list(loads))
        k_true = model.as_vector()[18 + j]
        rate = np.array([o.w_b[j] for o in grid_obs])
        loads[:, ci] -= 2.0 * k_true * rate  # unconstrained damping -k_true > 0
        result = fit(grid_obs, params, loads=list(loads))

        assert result.excluded == baseline.excluded and 10 in result.excluded
        x = result.model.as_vector()
        assert x[18 + j] == 0.0
        kept = [i for i in range(len(grid_obs)) if i not in result.excluded]
        X, y = _channel_regression(channel, [grid_obs[i] for i in kept], loads[kept],
                                   params, params.A_ref)
        ref = lsq_linear(X, y, bounds=([-np.inf] * 4, [np.inf] * 3 + [0.0]), method="bvls")
        assert ref.x[3] == 0.0
        np.testing.assert_allclose(x[9 + 3 * j:12 + 3 * j], ref.x[:3], rtol=1e-9)

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
