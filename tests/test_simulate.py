import numpy as np
import pytest
from scipy.signal import medfilt

from blimpdyn.equilibria import solve_spiral, solve_straight, turning_radius
from blimpdyn.frames import GF_TO_N, EulerAngles, State, aero_angles, rotation_body_to_inertial
from blimpdyn.simulate import (
    MM_AMAX,
    MM_VMAX,
    PSIDOT_MIN,
    DegenerateDescent,
    InputSchedule,
    Segment,
    glide_metrics,
    integrate,
    plan_goto_profile,
    read_schedule,
    turning_radius_series,
)

F2 = 2.0 * GF_TO_N


def _rest_state(params, theta=0.0):
    return State(
        p=np.zeros(3), e=EulerAngles(0.0, theta, 0.0),
        v=np.zeros(3), w=np.zeros(3),
        rbar=params.rbar0, rbardot=np.zeros(3),
    )


class TestSchedule:
    def test_constant(self):
        sched = InputSchedule.constant(0.02, 0.03, 10.0)
        seg = sched.segment_at(5.0)
        assert seg.Fl == 0.02 and seg.Fr == 0.03

    def test_contiguity_enforced(self):
        with pytest.raises(ValueError):
            InputSchedule((Segment(0, 1, 0.02, 0.02), Segment(2, 3, 0.02, 0.02)))

    def test_positive_duration(self):
        with pytest.raises(ValueError):
            Segment(1.0, 1.0, 0.02, 0.02)

    def test_unknown_command(self):
        with pytest.raises(ValueError):
            Segment(0.0, 1.0, 0.02, 0.02, mm_cmd="teleport")

    def test_read_schedule(self, tmp_path):
        path = tmp_path / "sched.csv"
        path.write_text(
            "t_start,t_end,Fl_gf,Fr_gf,mm_cmd,mm_target_cm\n"
            "0,5,2,2,hold,0\n"
            "5,10,1.4,2.6,goto,2\n"
        )
        sched = read_schedule(str(path))
        assert len(sched.segments) == 2
        assert np.isclose(sched.segments[0].Fl, 2.0 * GF_TO_N)
        assert sched.segments[1].mm_cmd == "goto"
        assert np.isclose(sched.segments[1].mm_target, 0.02)

    def test_read_schedule_bad_header(self, tmp_path):
        path = tmp_path / "sched.csv"
        path.write_text("start,end\n0,1\n")
        with pytest.raises(ValueError):
            read_schedule(str(path))


class TestGotoProfile:
    @pytest.mark.parametrize("delta", [0.03, -0.03, 0.001, 0.06, -0.0004])
    def test_profile_reaches_target_exactly(self, delta):
        dt = 0.005
        acc = plan_goto_profile(delta, dt)
        v = np.cumsum(acc) * dt
        x = np.cumsum(v) * dt
        assert np.isclose(x[-1], delta, atol=1e-15)
        assert abs(v[-1]) < 1e-15
        assert np.max(np.abs(v)) <= MM_VMAX * (1.0 + 1e-9)
        assert np.max(np.abs(acc)) <= MM_AMAX * (1.0 + 1e-9)

    def test_zero_delta_empty(self):
        assert plan_goto_profile(0.0, 0.005).size == 0


def test_equilibrium_hold(params, model):
    sol = solve_spiral(0.0, F2, F2, params, model)
    traj = integrate(sol.state(params.rbar0), InputSchedule.constant(F2, F2, 5.0),
                     params, model, T=5.0)
    assert traj.status == "ok"
    drift = np.max(np.abs(traj.states[-1][6:12] - traj.states[0][6:12]))
    assert drift < 1e-8


def test_goto_moves_mass_to_target(params, model):
    sched = InputSchedule((
        Segment(0.0, 3.0, F2, F2, mm_cmd="goto", mm_target=0.02),
        Segment(3.0, 5.0, F2, F2, mm_cmd="hold"),
    ))
    sol = solve_straight(0.0, F2, params, model)
    traj = integrate(sol.state(params.rbar0), sched, params, model, T=5.0)
    assert traj.status == "ok"
    assert np.isclose(traj.states[-1][12], params.rbar0[0] + 0.02, atol=1e-12)
    assert np.allclose(traj.states[-1][15:18], 0.0, atol=1e-12)


def test_planar_invariance(sym_bundle):
    """y-symmetric start with a symmetric schedule keeps the motion in the
    x-O-z plane."""
    p, m = sym_bundle
    traj = integrate(_rest_state(p, theta=0.1),
                     InputSchedule.constant(F2, F2, 10.0), p, m, T=10.0)
    assert traj.status == "ok"
    assert np.max(np.abs(traj.states[:, 1])) < 1e-8   # y
    assert np.max(np.abs(traj.states[:, 3])) < 1e-8   # phi
    assert np.max(np.abs(traj.states[:, 5])) < 1e-8   # psi


def test_determinism(params, model):
    sched = InputSchedule.constant(F2, 1.5 * F2, 3.0)
    s0 = _rest_state(params)
    a = integrate(s0, sched, params, model, T=3.0)
    b = integrate(s0, sched, params, model, T=3.0)
    assert np.array_equal(a.states, b.states)


def test_gimbal_lock_returns_partial(params, model):
    s0 = State(
        p=np.zeros(3), e=EulerAngles(0.0, 1.56, 0.0),
        v=np.array([0.0, 0.0, -1.0]), w=np.array([0.0, 2.0, 0.0]),
        rbar=params.rbar0, rbardot=np.zeros(3),
    )
    traj = integrate(s0, InputSchedule.constant(F2, F2, 5.0), params, model, T=5.0)
    assert traj.status == "gimbal_lock"
    assert traj.t[-1] < 5.0


def test_dt_validation(params, model):
    with pytest.raises(ValueError):
        integrate(_rest_state(params), InputSchedule.constant(F2, F2, 1.0),
                  params, model, dt=0.2, T=1.0)
    with pytest.raises(ValueError):
        integrate(_rest_state(params), InputSchedule.constant(F2, F2, 1.0),
                  params, model, T=-1.0)


def test_turning_radius_series_matches_equilibrium(params, model):
    Fl = 0.5 * (7.0 + 4.4) * GF_TO_N
    Fr = 0.5 * (7.0 - 4.4) * GF_TO_N
    sol = solve_spiral(0.0, Fl, Fr, params, model)
    traj = integrate(sol.state(params.rbar0), InputSchedule.constant(Fl, Fr, 5.0),
                     params, model, T=5.0)
    mask = traj.t >= 2.0
    assert np.isclose(np.median(traj.R[mask]), turning_radius(sol), rtol=0.02)


def test_turning_radius_series_straight_is_inf(params, model):
    sol = solve_straight(0.0, F2, params, model)
    p, m = params.symmetrized(), model.symmetrized()
    sol = solve_straight(0.0, F2, p, m)
    traj = integrate(sol.state(p.rbar0), InputSchedule.constant(F2, F2, 3.0),
                     p, m, T=3.0)
    assert np.all(np.isinf(traj.R))


def test_turning_radius_window_validation(params, model):
    sol = solve_straight(0.0, F2, params, model)
    traj = integrate(sol.state(params.rbar0), InputSchedule.constant(F2, F2, 2.0),
                     params, model, T=2.0)
    with pytest.raises(ValueError):
        turning_radius_series(traj, window=traj.dt)


def test_glide_metrics_on_unpowered_glide(params, model):
    sol = solve_straight(0.0, F2, params, model)
    traj = integrate(sol.state(params.rbar0), InputSchedule.constant(0.0, 0.0, 8.0),
                     params, model, T=8.0)
    forward, descent, ratio = glide_metrics(traj)
    assert forward.shape == traj.t.shape
    assert ratio > 0
    assert np.mean(descent[len(descent) // 2:]) > 0


def test_glide_metrics_degenerate_on_climb(params, model):
    # The stock powered trim climbs slightly; descent rate is negative.
    sol = solve_straight(0.0, F2, params, model)
    traj = integrate(sol.state(params.rbar0), InputSchedule.constant(F2, F2, 3.0),
                     params, model, T=3.0)
    with pytest.raises(DegenerateDescent):
        glide_metrics(traj)


def test_rk4_convergence_order(params, model):
    s0 = _rest_state(params, theta=0.1)
    sched = InputSchedule.constant(F2, 1.2 * F2, 2.0)
    finals = {
        dt: integrate(s0, sched, params, model, dt=dt, T=2.0).states[-1]
        for dt in (0.02, 0.01, 0.005)
    }
    e1 = np.linalg.norm(finals[0.02] - finals[0.01])
    e2 = np.linalg.norm(finals[0.01] - finals[0.005])
    order = np.log2(e1 / e2)
    assert 3.5 <= order <= 4.5


def _per_sample_analysis(traj, window):
    """Trajectory series computed one sample at a time from State objects:
    the reference for the vectorized analysis."""
    cols = {name: [] for name in ("V", "alpha", "beta", "Vz", "psidot", "hs")}
    for y in traj.states:
        s = State.from_vector(y)
        a = aero_angles(s.v)
        v_in = rotation_body_to_inertial(s.e) @ s.v
        cols["V"].append(a.V)
        cols["alpha"].append(a.alpha)
        cols["beta"].append(a.beta)
        cols["Vz"].append(v_in[2])
        cols["psidot"].append((np.sin(s.e.phi) * s.w[1] + np.cos(s.e.phi) * s.w[2])
                              / np.cos(s.e.theta))
        cols["hs"].append(np.hypot(v_in[0], v_in[1]))
    ref = {k: np.array(v) for k, v in cols.items()}
    psidot = ref["psidot"]
    R = np.where(np.abs(psidot) < PSIDOT_MIN, np.inf,
                 ref["hs"] / np.maximum(np.abs(psidot), PSIDOT_MIN))
    ksz = int(round(window / traj.dt)) | 1
    big = 1e12
    Rs = medfilt(np.where(np.isfinite(R), R, big), ksz)
    ref["R"] = np.where(Rs > big / 2, np.inf, Rs)
    return ref


@pytest.mark.parametrize("start", ["spiral", "rest"])
def test_trajectory_analysis_matches_per_sample_formulas(params, model, start):
    """The vectorized series of integrate, turning_radius_series and
    glide_metrics equal the per-sample State/aero_angles/rotation formulas;
    the flight from rest starts at zero airspeed."""
    if start == "spiral":
        Fl, Fr = 1.5 * GF_TO_N, 0.5 * GF_TO_N
        sol = solve_spiral(0.0, Fl, Fr, params, model)
        s0 = sol.state(params.rbar0)
    else:
        Fl = Fr = 0.0
        s0 = _rest_state(params)
    traj = integrate(s0, InputSchedule.constant(Fl, Fr, 3.0), params, model, T=3.0)
    assert traj.status == "ok"
    ref = _per_sample_analysis(traj, 1.0)
    if start == "rest":
        assert ref["V"][0] == 0.0 and traj.alpha[0] == 0.0 and traj.beta[0] == 0.0
    for name in ("V", "alpha", "beta", "Vz", "psidot", "R"):
        np.testing.assert_allclose(getattr(traj, name), ref[name], rtol=1e-12, atol=1e-12,
                                   err_msg=name)
    np.testing.assert_allclose(turning_radius_series(traj, 0.5),
                               _per_sample_analysis(traj, 0.5)["R"], rtol=1e-12, atol=1e-12)
    forward, descent, ratio = glide_metrics(traj)
    np.testing.assert_allclose(forward, ref["hs"], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(descent, ref["Vz"], rtol=1e-12, atol=1e-12)
    k0 = len(traj) // 2
    assert np.isclose(ratio, np.mean(ref["hs"][k0:]) / np.mean(ref["Vz"][k0:]),
                      rtol=1e-12, atol=0.0)
