import math
import re

import numpy as np
import pytest
from reference_kernel import reference_integrate
from reference_matrix import aero_angles
from scipy.signal import medfilt

from blimpdyn import dynamics, simulate
from blimpdyn.equilibria import solve_spiral, solve_straight, turning_radius
from blimpdyn.frames import (
    GF_TO_N,
    RAIL_LIMIT,
    EulerAngles,
    State,
    rotation_body_to_inertial,
    rotation_matrices,
)
from blimpdyn.paramio import SchemaError
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
        assert sched.segments == (Segment(0.0, 10.0, 0.02, 0.03),)

    def test_segment_switch(self, params, model):
        """A two-segment schedule flies the first segment exactly as if it
        were alone, then the second from the state reached at the switch."""
        Fl2, Fr2 = 1.4 * GF_TO_N, 2.6 * GF_TO_N
        s0 = _rest_state(params, theta=0.1)
        sched = InputSchedule((Segment(0.0, 1.0, F2, F2), Segment(1.0, 2.0, Fl2, Fr2)))
        both = integrate(s0, sched, params, model, dt=0.005, T=2.0)
        first = integrate(s0, InputSchedule.constant(F2, F2, 1.0), params, model,
                          dt=0.005, T=1.0)
        k = len(first) - 1
        assert np.array_equal(both.states[: k + 1], first.states)
        second = integrate(State.from_vector(both.states[k]),
                           InputSchedule.constant(Fl2, Fr2, 1.0), params, model,
                           dt=0.005, T=1.0)
        assert len(second) == len(both) - k
        np.testing.assert_allclose(second.states, both.states[k:], rtol=0, atol=1e-12)

    def test_contiguity_enforced(self):
        with pytest.raises(ValueError):
            InputSchedule((Segment(0, 1, 0.02, 0.02), Segment(2, 3, 0.02, 0.02)))

    def test_positive_duration(self):
        """A segment needs finite times and a positive duration: nan never
        compares, so a nan time must be rejected by name."""
        with pytest.raises(ValueError, match="positive duration"):
            Segment(1.0, 1.0, 0.02, 0.02)
        for t_start, t_end in ((math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan),
                               (0.0, math.inf), (-math.inf, 1.0), (-math.inf, math.inf)):
            with pytest.raises(ValueError, match="times must be finite"):
                Segment(t_start, t_end, 0.02, 0.02)

    def test_unknown_command(self):
        with pytest.raises(ValueError):
            Segment(0.0, 1.0, 0.02, 0.02, mm_cmd="teleport")

    def test_goto_target_within_rail(self):
        """The goto target may reach the rail limit solve_straight checks,
        but not pass it."""
        for target in (RAIL_LIMIT, -RAIL_LIMIT):
            Segment(0.0, 1.0, 0.02, 0.02, mm_cmd="goto", mm_target=target)
        for target in (RAIL_LIMIT + 1e-6, -0.2):
            with pytest.raises(ValueError, match="rail limit"):
                Segment(0.0, 1.0, 0.02, 0.02, mm_cmd="goto", mm_target=target)

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

    @pytest.mark.parametrize("row, message", [
        ("0,5,2,2,hold", "line 3: 5 fields, expected 6"),
        ("0,5,2,2,hold,0,9", "line 3: 7 fields, expected 6"),
        ("0", "line 3: 1 fields, expected 6"),
        ("x,5,2,2,hold,0", "line 3: t_start must be a number, got 'x'"),
        ("0,5,2,x,hold,0", "line 3: Fr_gf must be a number, got 'x'"),
        ("0,5,2,2,hold,", "line 3: mm_target_cm must be a number, got ''"),
        ("nan,5,2,2,hold,0", "line 3: segment times must be finite"),
        ("0,5,2,2,teleport,0", "line 3: unknown moving-mass command 'teleport'"),
    ])
    def test_read_schedule_names_a_malformed_row(self, tmp_path, row, message):
        """A row of the wrong length, a cell that is no number and a row
        `Segment` rejects each raise ValueError naming the file and the
        line (blank lines count as lines), and the field of a bad number."""
        path = tmp_path / "sched.csv"
        path.write_text("t_start,t_end,Fl_gf,Fr_gf,mm_cmd,mm_target_cm\n\n" + row + "\n")
        with pytest.raises(ValueError) as exc:
            read_schedule(str(path))
        assert str(exc.value) == f"{path}: {message}"

    @pytest.mark.parametrize("rows, line, message", [
        ("0,5,2,2,hold,0\n\n6,10,2,2,hold,0\n", 4,
         "segment 1 starts at 6 s, where the one before ends at 5 s"),
        ("0,5,2,2,hold,0\n5,10,2,2,hold,0\n2,4,2,2,hold,0\n", 4,
         "segment 2 starts at 2 s, where the one before ends at 10 s"),
    ], ids=["gap", "unsorted"])
    def test_read_schedule_names_the_row_that_starts_late(self, tmp_path, rows, line, message):
        """A row that does not start where the row before it ends (the
        contiguity rule of `InputSchedule`) is named by its line in the
        file, blank lines counted."""
        path = tmp_path / "sched.csv"
        path.write_text("t_start,t_end,Fl_gf,Fr_gf,mm_cmd,mm_target_cm\n" + rows)
        with pytest.raises(SchemaError) as exc:
            read_schedule(str(path))
        assert str(exc.value) == (f"{path}: line {line}: {message}: "
                                  "segments must be contiguous and sorted")

    def test_read_schedule_skips_blank_lines(self, tmp_path):
        path = tmp_path / "sched.csv"
        path.write_text("t_start,t_end,Fl_gf,Fr_gf,mm_cmd,mm_target_cm\n\n"
                        "0,5,2,2,hold,0\n\n5,10,1.4,2.6,goto,2\n\n")
        assert read_schedule(str(path)) == InputSchedule((
            Segment(0.0, 5.0, 2.0 * GF_TO_N, 2.0 * GF_TO_N),
            Segment(5.0, 10.0, 1.4 * GF_TO_N, 2.6 * GF_TO_N, "goto", 0.02)))


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
    traj = integrate(sol.state(sol.rbar), InputSchedule.constant(F2, F2, 5.0),
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
    traj = integrate(sol.state(sol.rbar), sched, params, model, T=5.0)
    assert traj.status == "ok"
    assert np.isclose(traj.states[-1][12], params.rbar0[0] + 0.02, atol=1e-12)
    assert np.allclose(traj.states[-1][15:18], 0.0, atol=1e-12)


def test_hold_lets_an_unfinished_goto_finish(params, model):
    """A hold is no new command: a goto whose segment ends before its
    profile does runs the profile to its end, and the mass stops on the
    goto's target instead of coasting along the rail."""
    sched = InputSchedule((
        Segment(0.0, 0.5, F2, F2, mm_cmd="goto", mm_target=0.05),
        Segment(0.5, 6.0, F2, F2, mm_cmd="hold"),
    ))
    traj = integrate(_rest_state(params), sched, params, model, T=6.0)
    assert traj.status == "ok"
    assert np.isclose(traj.states[-1][12], params.rbar0[0] + 0.05, atol=1e-12)
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
    assert traj.stop_step == len(traj) - 1 == 0


@pytest.mark.filterwarnings("error")
def test_non_finite_euler_angles_return_partial(params, model):
    """An RK4 stage whose Euler angles overflow to NaN ends the run with
    status "non_finite" and the states up to the failed step, whose
    airspeed is analysed without an overflow warning."""
    s0 = State(
        p=np.zeros(3), e=EulerAngles(0.0, 0.1, 0.0),
        v=np.array([1e160, 0.0, 0.0]), w=np.array([0.0, 1e-3, 0.0]),
        rbar=params.rbar0, rbardot=np.zeros(3),
    )
    traj = integrate(s0, InputSchedule.constant(0.02, 0.02, 0.1), params, model,
                     dt=0.005, T=0.1)
    assert traj.status == "non_finite"
    assert traj.t[-1] < 0.1
    assert len(traj) == traj.states.shape[0]
    assert traj.stop_step == len(traj) - 1 == 0
    assert np.all(np.isfinite(traj.states[:, 3:6]))
    assert np.all(np.isfinite(traj.V))


def _overflow_run():
    """A run whose stage states are finite but whose RK4 combine step
    overflows: at a 1e-300 s step, 1e307 N of thrust gives accelerations
    near 1e308 whose weighted sum k1 + 2 k2 + 2 k3 + k4 is inf in the
    velocity, while the Euler angles stay finite."""
    return InputSchedule.constant(1e307, 1e307, 5e-300), 1e-300, 5e-300


@pytest.mark.filterwarnings("error")
def test_combine_overflow_returns_partial(params, model):
    """A velocity that overflows in the combine step, not in an RK4 stage,
    ends the run by the post-step finiteness check: status "non_finite"
    at the step the unbound reference loop stops at, and no warning."""
    sched, dt, T = _overflow_run()
    traj = integrate(_rest_state(params, theta=0.1), sched, params, model, dt=dt, T=T)
    ref_states, ref_status, ref_step = reference_integrate(
        _rest_state(params, theta=0.1), sched, params, model, dt, T)
    assert traj.status == ref_status == "non_finite"
    assert traj.stop_step == ref_step == 0
    assert np.array_equal(traj.states, ref_states)
    assert np.all(np.isfinite(traj.states))


def _reference_cases(params, model):
    gf = GF_TO_N
    maneuver = InputSchedule((
        Segment(0.0, 0.3, 2.0 * gf, 2.0 * gf),
        Segment(0.3, 1.0, 1.4 * gf, 2.6 * gf, mm_cmd="goto", mm_target=0.02),
    ))
    pitching = State(
        p=np.zeros(3), e=EulerAngles(0.0, 1.3, 0.0),
        v=np.array([0.0, 0.0, -1.0]), w=np.array([0.0, 6.0, 0.0]),
        rbar=params.rbar0, rbardot=np.zeros(3),
    )
    euler_nan = State(
        p=np.zeros(3), e=EulerAngles(0.0, 0.1, 0.0),
        v=np.array([1e160, 0.0, 0.0]), w=np.array([0.0, 1e-3, 0.0]),
        rbar=params.rbar0, rbardot=np.zeros(3),
    )
    goto_then_hold = InputSchedule((
        Segment(0.0, 0.5, 2.0 * gf, 2.0 * gf, mm_cmd="goto", mm_target=0.05),
        Segment(0.5, 1.5, 1.4 * gf, 2.6 * gf),
    ))
    # Holds from the steady 2 gf glide: rbar never moves, so every stage
    # reuses the kernel's entry for it.
    trim = solve_straight(0.0, F2, params, model)
    glide = trim.state(trim.rbar)
    hold = InputSchedule((
        Segment(0.0, 0.5, 2.0 * gf, 2.0 * gf),
        Segment(0.5, 1.5, 1.4 * gf, 2.6 * gf),
    ))
    overflow, dt_o, T_o = _overflow_run()
    # The sim_maneuver shape: five back-to-back 0.6 s gotos from rest, each
    # after the first starting while the mass still moves, under changing
    # thrusts.
    gotos = InputSchedule(tuple(
        Segment(round(0.6 * i, 1), round(0.6 * (i + 1), 1), fl * gf, fr * gf, "goto", target)
        for i, (fl, fr, target) in enumerate([(1.2, 1.8, 0.03), (2.0, 2.0, -0.015),
                                               (0.9, 0.4, 0.05), (1.5, 2.5, -0.05),
                                               (2.2, 0.7, 0.0)])))
    # The last segment flown runs past T, and the one after it starts
    # after T: it holds no step, its goto is never planned.
    ends_late = InputSchedule((
        Segment(0.0, 0.3, 2.0 * gf, 2.0 * gf, mm_cmd="goto", mm_target=0.03),
        Segment(0.3, 1.2, 1.4 * gf, 2.6 * gf),
        Segment(1.2, 2.0, 2.6 * gf, 1.4 * gf, mm_cmd="goto", mm_target=-0.05),
    ))
    # A segment shorter than dt that holds one step (its goto is planned
    # there and runs on through the next hold), and one that holds no step
    # (its goto is never planned); the first ends within the 1e-9 s
    # tolerance after a grid time, so the second starts at that step.
    short = InputSchedule((
        Segment(0.0, 0.3 + 5e-10, 2.0 * gf, 2.0 * gf),
        Segment(0.3 + 5e-10, 0.302, 1.4 * gf, 2.6 * gf, mm_cmd="goto", mm_target=0.03),
        Segment(0.302, 0.501, 2.0 * gf, 2.0 * gf),
        Segment(0.501, 0.503, 0.0, 0.0, mm_cmd="goto", mm_target=-0.05),
        Segment(0.503, 1.0, 2.6 * gf, 1.4 * gf),
    ))
    # Gimbal lock raised by the second stage (at step 2) and by the third
    # (at step 0); "gimbal_lock" raises it in the fourth.
    def pitched(theta, v, q):
        return State(p=np.zeros(3), e=EulerAngles(0.0, theta, 0.0), v=np.array(v),
                     w=np.array([0.0, q, 0.0]), rbar=params.rbar0, rbardot=np.zeros(3))
    lock2 = pitched(1.5, [0.0, 0.0, -1.0], 6.0)
    lock3 = pitched(1.56729, [3.0, 0.0, 1.0], 1.0)
    return {
        "maneuver": (_rest_state(params), maneuver, 0.005, 1.0, False),
        "goto_then_hold": (_rest_state(params), goto_then_hold, 0.005, 1.5, False),
        "maneuver_legacy": (_rest_state(params), maneuver, 0.005, 1.0, True),
        "hold_from_glide": (glide, hold, 0.005, 1.5, False),
        "hold_legacy": (glide, hold, 0.005, 1.5, True),
        "gimbal_lock": (pitching, InputSchedule.constant(F2, F2, 1.0), 0.005, 1.0, False),
        "euler_nan": (euler_nan, InputSchedule.constant(0.02, 0.02, 0.1), 0.005, 0.1, False),
        "combine_overflow": (_rest_state(params, theta=0.1), overflow, dt_o, T_o, False),
        "five_gotos": (_rest_state(params), gotos, 0.005, 3.0, False),
        "five_gotos_legacy": (_rest_state(params), gotos, 0.005, 3.0, True),
        "ends_after_T": (_rest_state(params), ends_late, 0.005, 1.0, False),
        "short_segments": (_rest_state(params), short, 0.005, 1.0, False),
        "gimbal_lock_stage2": (lock2, InputSchedule.constant(F2, F2, 0.05), 0.005, 0.05, False),
        "gimbal_lock_stage3": (lock3, InputSchedule.constant(F2, F2, 0.05), 0.005, 0.05, False),
    }


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("case", ["maneuver", "maneuver_legacy", "goto_then_hold",
                                  "hold_from_glide", "hold_legacy", "gimbal_lock", "euler_nan",
                                  "combine_overflow", "five_gotos", "five_gotos_legacy",
                                  "ends_after_T", "short_segments", "gimbal_lock_stage2",
                                  "gimbal_lock_stage3"])
def test_integrate_matches_unbound_reference(params, model, case):
    """The float RK4 on the bound kernel reproduces RK4 on numpy vectors
    through the unbound reference kernel bit for bit: the states, the
    status and the step at which a failed run stopped.  (The 1e160 m/s
    start of "euler_nan" overflows the airspeed norm of the analysis.)"""
    s0, sched, dt, T, legacy = _reference_cases(params, model)[case]
    traj = integrate(s0, sched, params, model, dt=dt, T=T, legacy=legacy)
    ref_states, ref_status, ref_step = reference_integrate(s0, sched, params, model, dt, T,
                                                           legacy)
    assert (traj.status, traj.stop_step) == (ref_status, ref_step)
    assert traj.states.tobytes() == ref_states.tobytes()
    if case == "gimbal_lock":
        assert traj.stop_step > 5


# The RK4 stage that raises in each failing reference case: a failed step
# evaluates the derivative up to that stage.
_FAILED_STAGE = {"gimbal_lock": 4, "gimbal_lock_stage2": 2, "gimbal_lock_stage3": 3,
                 "euler_nan": 3, "combine_overflow": 4}


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("case", ["maneuver", "five_gotos", "short_segments", "ends_after_T",
                                  *_FAILED_STAGE])
def test_integrate_evaluates_the_derivative_four_times_per_step(params, model, monkeypatch,
                                                               case):
    """Each completed step evaluates the derivative exactly four times; a
    failed step stops at the stage that raised (or after the fourth, when
    the combined state is not finite)."""
    calls = []
    real_bind = dynamics.bind

    def counting_bind(*args, **kwargs):
        kernel = real_bind(*args, **kwargs)
        return kernel._replace(deriv=lambda *a: calls.append(1) or kernel.deriv(*a))

    monkeypatch.setattr(dynamics, "bind", counting_bind)
    s0, sched, dt, T, legacy = _reference_cases(params, model)[case]
    traj = integrate(s0, sched, params, model, dt=dt, T=T, legacy=legacy)
    failed_stage = _FAILED_STAGE.get(case, 0)
    assert (traj.status == "ok") == (traj.stop_step is None) == (not failed_stage)
    assert len(calls) == 4 * (len(traj) - 1) + failed_stage


@pytest.mark.parametrize("segments, T, covers", [
    (((1.0, 2.0),), 3.0, "[1, 2]"),                 # starts after 0
    (((0.0, 1.0),), 3.0, "[0, 1]"),                 # ends before T
    (((0.0, 0.3), (0.3, 0.7)), 1.0, "[0, 0.7]"),
    (((-0.5, 2.0),), 1.0, "[-0.5, 2]"),
])
def test_integrate_rejects_a_schedule_that_does_not_cover_the_run(params, model, segments, T,
                                                                    covers):
    sched = InputSchedule(tuple(Segment(a, b, 0.02, 0.02) for a, b in segments))
    with pytest.raises(ValueError, match=re.escape(f"schedule covers {covers} s, "
                                                   f"but the run needs [0, {T:g}] s")):
        integrate(_rest_state(params), sched, params, model, dt=0.01, T=T)


def test_integrate_accepts_a_schedule_within_the_time_slack(params, model):
    """The cover check allows the segment walk's 1e-9 s slack at both ends."""
    sched = InputSchedule((Segment(5e-10, 1.0 - 5e-10, 0.02, 0.02),))
    traj = integrate(_rest_state(params), sched, params, model, dt=0.01, T=1.0)
    assert traj.status == "ok" and len(traj) == 101


@pytest.mark.parametrize("T, dt", [(1.0, 0.03), (1.0, 0.007), (0.001, 0.005)])
def test_integrate_rejects_a_horizon_that_is_not_whole_steps(params, model, T, dt):
    """A run of a fractional number of steps would end short of T (at 0.99 s
    for T = 1 s, dt = 0.03 s) with status ok; it is refused, T and dt named."""
    sched = InputSchedule.constant(0.02, 0.02, T)
    with pytest.raises(ValueError, match=re.escape(
            f"T = {T:g} s is not a whole number of steps of dt = {dt:g} s")):
        integrate(_rest_state(params), sched, params, model, dt=dt, T=T)


def test_integrate_accepts_a_horizon_within_the_time_slack(params, model):
    """The whole-step check allows the same 1e-9 s slack as the cover check."""
    sched = InputSchedule.constant(0.02, 0.02, 1.0)
    traj = integrate(_rest_state(params), sched, params, model, dt=0.01, T=1.0 - 5e-10)
    assert traj.status == "ok" and len(traj) == 101


def test_integrate_binds_the_kernel_once(params, model, monkeypatch):
    """One run binds the vehicle exactly once."""
    binds = []
    real_bind = dynamics.bind
    monkeypatch.setattr(dynamics, "bind", lambda *a, **k: binds.append(1) or real_bind(*a, **k))
    s0, sched, dt, T, legacy = _reference_cases(params, model)["maneuver"]
    traj = integrate(s0, sched, params, model, dt=dt, T=T, legacy=legacy)
    assert traj.status == "ok" and traj.stop_step is None
    assert len(binds) == 1


@pytest.fixture
def analysis_calls(monkeypatch):
    """Counts of the calls of `simulate.rotation_matrices` and of
    `simulate._radius_series` made while the test runs."""
    calls = {"rotation_matrices": 0, "_radius_series": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(simulate, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(simulate, name, counted)
    return calls


def _descending_glide(params, model):
    F = 0.75 * GF_TO_N                                  # 1.5 gf in all: a descending glide
    trim = solve_straight(0.0, F, params, model)
    traj = integrate(trim.state(trim.rbar), InputSchedule.constant(F, F, 3.0), params, model,
                     dt=0.01, T=3.0)
    assert traj.status == "ok"
    return traj


def test_integrate_derives_no_series(params, model, analysis_calls):
    """`integrate` alone neither rotates a velocity nor smooths a radius."""
    _descending_glide(params, model)
    assert analysis_calls == {"rotation_matrices": 0, "_radius_series": 0}


def test_a_run_rotates_its_velocity_once(params, model, analysis_calls):
    """The inertial velocity of every sample is built by one call of
    `rotation_matrices`, on the first read of `v_inertial`;
    `turning_radius_series`, `glide_metrics` and `R` read it and rotate
    nothing."""
    traj = _descending_glide(params, model)
    assert analysis_calls["rotation_matrices"] == 0
    traj.v_inertial
    assert analysis_calls["rotation_matrices"] == 1
    turning_radius_series(traj, 0.5)
    glide_metrics(traj)
    traj.R
    assert analysis_calls["rotation_matrices"] == 1
    assert traj.Vz.base is traj.v_inertial and traj.Vz.tolist() == traj.v_inertial[:, 2].tolist()


def test_a_hold_operation_rotates_and_smooths_once(params, model, analysis_calls):
    """The analysis of a benchmark hold operation, `turning_radius_series`
    at 1 s and then `glide_metrics`, rotates the velocity once and runs the
    running median once: the run's own `R` is never smoothed."""
    traj = _descending_glide(params, model)
    turning_radius_series(traj, 1.0)
    glide_metrics(traj)
    assert analysis_calls == {"rotation_matrices": 1, "_radius_series": 1}


def test_a_replaced_record_derives_the_series_of_its_own_states(params, model):
    """`dataclasses.replace` with another run's states and times gives a
    record whose every series is that run's, bit for bit, also after the
    first record's series were read."""
    from dataclasses import replace

    series = ("alpha", "beta", "V", "v_inertial", "Vz", "psidot", "R")
    glide = _descending_glide(params, model)
    Fl, Fr = 1.5 * GF_TO_N, 0.5 * GF_TO_N
    sol = solve_spiral(0.0, Fl, Fr, params, model)
    other = integrate(sol.state(sol.rbar), InputSchedule.constant(Fl, Fr, 3.0), params, model,
                      dt=0.01, T=3.0)
    assert other.status == "ok" and len(other) == len(glide)
    for name in series:
        assert getattr(glide, name).tobytes() != getattr(other, name).tobytes(), name
    got = replace(glide, states=other.states, t=other.t)
    for name in series:
        assert getattr(got, name).tobytes() == getattr(other, name).tobytes(), name


def test_state_at_keeps_an_in_range_roll(params, model):
    """Each sample's state has the roll of the state array bit for bit."""
    sol = solve_spiral(0.0, 1.3 * GF_TO_N, 2.7 * GF_TO_N, params, model)
    traj = integrate(sol.state(sol.rbar), InputSchedule.constant(sol.Fl, sol.Fr, 1.0), params,
                     model, dt=0.01, T=1.0)
    assert traj.status == "ok" and traj.states[0, 3] == sol.phi
    for k in range(len(traj)):
        assert -math.pi < traj.states[k, 3] <= math.pi
        assert traj.state_at(k).e.phi == traj.states[k, 3]


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
    traj = integrate(sol.state(sol.rbar), InputSchedule.constant(Fl, Fr, 5.0),
                     params, model, T=5.0)
    mask = traj.t >= 2.0
    assert np.isclose(np.median(traj.R[mask]), turning_radius(sol), rtol=0.02)


def test_turning_radius_series_straight_is_inf(params, model):
    sol = solve_straight(0.0, F2, params, model)
    p, m = params.symmetrized(), model.symmetrized()
    sol = solve_straight(0.0, F2, p, m)
    traj = integrate(sol.state(sol.rbar), InputSchedule.constant(F2, F2, 3.0),
                     p, m, T=3.0)
    assert np.all(np.isinf(traj.R))


@pytest.mark.parametrize("T, window", [(3.0, 1.0), (0.3, 0.3), (0.05, 0.05)])
def test_turning_radius_series_at_the_run_window_is_traj_R(params, model, T, window):
    """At the window `integrate` smooths R over (the run, at least 10 dt and
    at most 1 s), `turning_radius_series` returns `traj.R` bit for bit."""
    Fl, Fr = 1.5 * GF_TO_N, 0.5 * GF_TO_N
    sol = solve_spiral(0.0, Fl, Fr, params, model)
    traj = integrate(sol.state(sol.rbar), InputSchedule.constant(Fl, Fr, T),
                     params, model, T=T)
    assert np.isfinite(traj.R).all()
    assert turning_radius_series(traj, window).tobytes() == traj.R.tobytes()


def test_turning_radius_window_validation(params, model):
    sol = solve_straight(0.0, F2, params, model)
    traj = integrate(sol.state(sol.rbar), InputSchedule.constant(F2, F2, 2.0),
                     params, model, T=2.0)
    with pytest.raises(ValueError):
        turning_radius_series(traj, window=traj.dt)


@pytest.mark.parametrize("window", [math.inf, -math.inf, math.nan])
def test_turning_radius_rejects_a_non_finite_window(params, model, window):
    sol = solve_straight(0.0, F2, params, model)
    traj = integrate(sol.state(sol.rbar), InputSchedule.constant(F2, F2, 1.0),
                     params, model, T=1.0)
    with pytest.raises(ValueError, match=re.escape(
            f"window must be finite and at least 10 dt, got {window!r}")):
        turning_radius_series(traj, window)


def test_glide_metrics_on_unpowered_glide(params, model):
    sol = solve_straight(0.0, F2, params, model)
    traj = integrate(sol.state(sol.rbar), InputSchedule.constant(0.0, 0.0, 8.0),
                     params, model, T=8.0)
    forward, descent, ratio = glide_metrics(traj)
    assert forward.shape == traj.t.shape
    assert ratio > 0
    assert np.mean(descent[len(descent) // 2:]) > 0


def test_glide_metrics_degenerate_on_climb(params, model):
    # The stock powered trim climbs slightly; descent rate is negative.
    sol = solve_straight(0.0, F2, params, model)
    traj = integrate(sol.state(sol.rbar), InputSchedule.constant(F2, F2, 3.0),
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
        s0 = sol.state(sol.rbar)
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


def _inertial_velocity(states):
    """R(e) v of each sample of an (n, 18) state array, rotated here."""
    return np.einsum("nij,nj->ni", rotation_matrices(states[:, 3:6]), states[:, 6:9])


def _medfilt_turning_radius_series(traj, window):
    """`turning_radius_series` of the states' own inertial velocity, smoothed
    by scipy.signal.medfilt, NaN radii counted as inf: the reference for the
    zero-padded numpy running median."""
    n = len(traj)
    hs = np.hypot(*_inertial_velocity(traj.states)[:, :2].T)
    slow = np.abs(traj.psidot) < PSIDOT_MIN
    R = np.where(slow, np.inf, hs / np.maximum(np.abs(traj.psidot), PSIDOT_MIN))
    ksz = int(round(window / traj.dt))
    if ksz % 2 == 0:
        ksz += 1
    ksz = min(ksz, n if n % 2 == 1 else n - 1)
    if ksz >= 3:
        R = medfilt(np.where(np.isnan(R), np.inf, R), ksz)
    return R


@pytest.mark.parametrize("T, window", [(0.01, 0.05), (0.5, 0.1), (0.5, 0.3), (0.5, 0.055)])
@pytest.mark.parametrize("non_finite", [False, True])
def test_turning_radius_series_matches_medfilt(params, model, T, window, non_finite):
    """The median filter gives the medfilt reference bit for bit: on n = 3
    samples, on windows of an even number of steps (rounded up to odd) and
    of an odd number, and on series with inf and NaN radii (a non-finite
    velocity, a NaN yaw rate and a straight stretch)."""
    from dataclasses import replace

    Fl, Fr = 1.5 * GF_TO_N, 0.5 * GF_TO_N
    sol = solve_spiral(0.0, Fl, Fr, params, model)
    traj = integrate(sol.state(sol.rbar), InputSchedule.constant(Fl, Fr, T),
                     params, model, T=T)
    if non_finite:
        # psidot is sin(phi) q + cos(phi) r over cos(theta): zero rates
        # make it zero, a NaN yaw rate r makes it NaN.
        states = traj.states.copy()
        states[0, 10:12] = 0.0
        states[1, 11] = np.nan
        if len(traj) > 3:
            states[5, 6] = np.inf
            states[20:90, 10:12] = 0.0
        traj = replace(traj, states=states)
        assert traj.psidot[0] == 0.0 and np.isnan(traj.psidot[1])
    got = turning_radius_series(traj, window)
    ref = _medfilt_turning_radius_series(traj, window)
    assert got.tobytes() == ref.tobytes()
    assert np.isinf(got).any() == non_finite


def test_turning_radius_series_keeps_huge_finite_radii(params, model):
    """A finite radius stays finite however large it is, also in a series
    that holds inf and NaN radii (a run that has blown up): 1e12 m at a
    horizontal speed of 1e9 m/s and the smallest counted yaw rate."""
    from dataclasses import replace

    traj = integrate(_rest_state(params), InputSchedule.constant(F2, F2, 0.5),
                     params, model, T=0.5)
    # Level attitude and zero pitch rate: psidot is the yaw rate r.
    states = traj.states.copy()
    states[:, 6:9] = 1e9, 0.0, 0.0
    states[:, 3:6] = 0.0
    states[:, 10:12] = 0.0, PSIDOT_MIN
    states[0:16:2, 11], states[1:16:2, 11] = np.nan, 0.0
    traj = replace(traj, states=states)
    assert traj.psidot[16:].tolist() == [PSIDOT_MIN] * (len(traj) - 16)
    got = turning_radius_series(traj, 0.1)
    assert got.tobytes() == _medfilt_turning_radius_series(traj, 0.1).tobytes()
    assert np.isinf(got[:6]).all()
    np.testing.assert_allclose(got[30:-10], 1e12, rtol=1e-15)
