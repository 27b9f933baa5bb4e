import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

from blimpdyn.dynamics import ControlInput, state_derivative
from blimpdyn.equilibria import (
    DEFAULT_RAIL_LIMIT,
    NoConvergence,
    eigen_report,
    linearize,
    solve_spiral,
    solve_straight,
    steady_residual,
    turning_radius,
)
from blimpdyn.frames import GF_TO_N, EulerAngles, State, wind_matrix


F2 = 2.0 * GF_TO_N


def test_straight_trim_stock_point(params, model):
    sol = solve_straight(0.0, F2, params, model)
    assert sol.kind == "straight"
    assert sol.residual_norm < 1e-9
    assert sol.phi == 0.0 and sol.psidot == 0.0 and sol.beta == 0.0
    # Moderate climb attitude at the stock setting.
    assert 0.05 < sol.theta < 0.35
    assert 0.5 < sol.V < 1.5
    assert not sol.stalled


def test_straight_trim_sweep_monotone_pitch(params, model):
    thetas = [
        solve_straight(cm * 1e-2, F2, params, model).theta for cm in range(-5, 6)
    ]
    dth = np.diff(thetas)
    assert np.all(dth < 0) or np.all(dth > 0)


def test_rail_limit_enforced(params, model):
    with pytest.raises(ValueError):
        solve_straight(DEFAULT_RAIL_LIMIT + 0.01, F2, params, model)
    with pytest.raises(ValueError):
        solve_spiral(-DEFAULT_RAIL_LIMIT - 0.01, F2, 2 * F2, params, model)


def test_planar_candidate_lateral_residuals_vanish(sym_bundle):
    """For the y-symmetric idealization, the planar trim is a full
    equilibrium: lateral residual components are zero."""
    p, m = sym_bundle
    sol = solve_straight(0.0, F2, p, m)
    res = steady_residual(sol, ControlInput(F2, F2, np.zeros(3)), p.rbar0, p, m)
    assert abs(res[1]) < 1e-12  # side force
    assert abs(res[3]) < 1e-12  # roll moment
    assert abs(res[5]) < 1e-12  # yaw moment
    assert np.linalg.norm(res) < 1e-9


def test_balanced_configuration_is_exact_solution(params, model):
    """Neutral buoyancy, no CG offsets, no pitch-moment aero: the at-rest
    level attitude solves the balance exactly, and the solver converges
    onto the (degenerate) solution manifold from a nearby guess."""
    p = replace(params, r=np.zeros(3), rbar0=np.zeros(3),
                B=params.total_mass * params.g)
    m = replace(model.symmetrized(), cm2_0=0.0, cm2_a=0.0, cm2_b=0.0)
    candidate = solve_straight(0.0, 0.0, p, m, V0=0.05)
    assert candidate.residual_norm < 1e-9
    assert candidate.V < 1e-3

    # Direct residual of the exact rest solution.
    from blimpdyn.equilibria import _raw_residual

    x0 = np.zeros(6)
    assert np.allclose(_raw_residual(x0, 0.0, 0.0, np.zeros(3), p, m), 0.0,
                       atol=1e-15)


@given(
    x=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.8, 0.8), st.floats(-1.0, 1.0),
                st.floats(0.05, 2.0), st.floats(-0.4, 0.4), st.floats(-0.4, 0.4)),
    thrust=st.tuples(st.floats(0.0, 0.05), st.floats(0.0, 0.05)),
    dr_x=st.floats(-0.06, 0.06),
)
@settings(max_examples=100, deadline=None)
def test_raw_residual_matches_matrix_balance(params, model, reference_rhs, x, thrust, dr_x):
    """The steady residual is the generalized force of the matrix reference
    at zero accelerations, with the body velocity and rates of the unknowns."""
    from blimpdyn.equilibria import _raw_residual

    theta, phi, psidot, V, alpha, beta = x
    Fl, Fr = thrust
    rbar = params.rbar0 + np.array([dr_x, 0.0, 0.0])
    s = State(
        p=np.zeros(3), e=EulerAngles(phi, theta, 0.0),
        v=wind_matrix(alpha, beta) @ np.array([V, 0.0, 0.0]),
        w=psidot * np.array([-np.sin(theta), np.sin(phi) * np.cos(theta),
                             np.cos(phi) * np.cos(theta)]),
        rbar=rbar, rbardot=np.zeros(3),
    )
    ref = reference_rhs(s, Fl, Fr, np.zeros(3), params, model)[:6]
    got = _raw_residual(np.array(x), Fl, Fr, rbar, params, model)
    np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-10 * np.max(np.abs(ref)))


def test_spiral_grid_subset(params, model):
    for drx_cm, diff in [(-1, -3.2), (2, -4.4), (4, -4.9)]:
        Fl = 0.5 * (7.0 + diff) * GF_TO_N
        Fr = 0.5 * (7.0 - diff) * GF_TO_N
        sol = solve_spiral(drx_cm * 1e-2, Fl, Fr, params, model)
        assert sol.kind == "spiral"
        assert sol.residual_norm < 1e-9
        assert sol.psidot != 0.0
        assert np.isfinite(turning_radius(sol))


def test_spiral_fold_fallback(params, model):
    """At large forward moving-mass offset the thrust ramp hits a fold;
    the displacement-ramp fallback must still converge."""
    Fl = 0.5 * (7.0 - 4.9) * GF_TO_N
    Fr = 0.5 * (7.0 + 4.9) * GF_TO_N
    sol = solve_spiral(0.04, Fl, Fr, params, model)
    assert sol.residual_norm < 1e-9


def test_spiral_mirror_symmetry(sym_bundle):
    p, m = sym_bundle
    Fl = 0.5 * (7.0 + 4.4) * GF_TO_N
    Fr = 0.5 * (7.0 - 4.4) * GF_TO_N
    a = solve_spiral(0.02, Fl, Fr, p, m)
    b = solve_spiral(0.02, Fr, Fl, p, m)
    assert abs(a.phi + b.phi) <= 1e-8
    assert abs(a.psidot + b.psidot) <= 1e-8
    assert abs(a.beta + b.beta) <= 1e-8
    assert abs(a.theta - b.theta) <= 1e-8
    assert abs(a.V - b.V) <= 1e-8
    assert abs(a.alpha - b.alpha) <= 1e-8


def test_equal_thrust_spiral_reduces_to_straight(sym_bundle):
    p, m = sym_bundle
    spiral = solve_spiral(0.01, F2, F2, p, m)
    straight = solve_straight(0.01, F2, p, m)
    assert spiral.phi == 0.0 and spiral.psidot == 0.0 and spiral.beta == 0.0
    assert np.isclose(spiral.theta, straight.theta, atol=1e-10)
    assert np.isclose(spiral.V, straight.V, atol=1e-10)
    assert turning_radius(spiral) == np.inf


def test_solution_state_is_dynamic_equilibrium(params, model):
    """The body-frame derivative at a converged spiral is (numerically)
    zero in the velocity and rate channels."""
    Fl = 0.5 * (7.0 + 3.7) * GF_TO_N
    Fr = 0.5 * (7.0 - 3.7) * GF_TO_N
    dr_x = 0.02
    sol = solve_spiral(dr_x, Fl, Fr, params, model)
    rbar = params.rbar0 + np.array([dr_x, 0.0, 0.0])
    d = state_derivative(sol.state(rbar), ControlInput(Fl, Fr, np.zeros(3)),
                         params, model)
    assert np.max(np.abs(d.vdot)) < 1e-8
    assert np.max(np.abs(d.wdot)) < 1e-8


def test_spiral_radius_decreases_with_differential(params, model):
    radii = []
    for diff in (-3.2, -4.2, -4.9):
        Fl = 0.5 * (7.0 + diff) * GF_TO_N
        Fr = 0.5 * (7.0 - diff) * GF_TO_N
        radii.append(turning_radius(solve_spiral(0.0, Fl, Fr, params, model)))
    assert radii[0] > radii[1] > radii[2]


def test_linearize_shape_and_stability(params, model):
    sol = solve_straight(0.0, F2, params, model)
    A = linearize(sol, ControlInput(F2, F2, np.zeros(3)), params.rbar0,
                  params, model)
    assert A.shape == (8, 8)
    report = eigen_report(A)
    assert report.hurwitz
    slowest = max(ev.real for ev in report.eigenvalues)
    assert abs(slowest - (-0.37)) <= 0.10


def test_wingless_slowest_mode():
    from blimpdyn import load_bundled

    p, m = load_bundled(wingless=True)
    sol = solve_straight(0.0, F2, p, m)
    A = linearize(sol, ControlInput(F2, F2, np.zeros(3)), p.rbar0, p, m)
    report = eigen_report(A)
    assert report.hurwitz
    slowest = max(ev.real for ev in report.eigenvalues)
    assert abs(slowest - (-0.06)) <= 0.05


def test_eigen_report_neutral_modes():
    A = np.diag([-1.0, -2.0, 0.0])
    report = eigen_report(A)
    assert report.hurwitz  # the zero mode is neutral, not unstable
    assert np.isclose(report.slowest_mode.real, -1.0)


def test_eigen_report_rejects_non_finite():
    with pytest.raises(ValueError):
        eigen_report(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_no_convergence_on_absurd_thrust(params, model):
    with pytest.raises(NoConvergence):
        solve_straight(0.0, 1e4, params, model)
