import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

from blimpdyn import aero, equilibria
from blimpdyn.aero import _body_loads
from blimpdyn.dynamics import ControlInput, _balance, _balance_tangents, bind, state_derivative
from blimpdyn.equilibria import (
    DEFAULT_RAIL_LIMIT,
    NoConvergence,
    _raw_jacobian,
    _raw_residual,
    eigen_report,
    linearize,
    solve_spiral,
    solve_straight,
    steady_residual,
    turning_radius,
)
from blimpdyn.frames import GF_TO_N, EulerAngles, State, wind_matrix


F2 = 2.0 * GF_TO_N


def _fd_jacobian(fun, x):
    """Central-difference Jacobian of `fun` at x, per-component steps."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        h = 1e-7 * max(1.0, abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        cols.append((fun(xp) - fun(xm)) / (2.0 * h))
    return np.array(cols).T


# Steady unknowns (theta, phi, psidot, V, alpha, beta), the moving-mass
# offset along the rail [m] and the two thrusts [N].
_unknowns = st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5), st.floats(-1.0, 1.0),
                      st.floats(0.3, 2.0), st.floats(-0.3, 0.3), st.floats(-0.3, 0.3))
_rail = st.floats(-0.06, 0.06)
_thrust = st.floats(0.0, 8.0).map(lambda gf: gf * GF_TO_N)


@given(x=_unknowns, dr_x=_rail, Fl=_thrust, Fr=_thrust, symmetric=st.booleans())
@settings(max_examples=100, deadline=None)
def test_raw_jacobian_matches_central_differences(bundle, sym_bundle, x, dr_x, Fl, Fr,
                                                  symmetric):
    """The analytic Jacobian of the steady residual equals its central
    differences to 1e-6 of the largest entry."""
    p, m = sym_bundle if symmetric else bundle
    rbar = p.rbar0 + np.array([dr_x, 0.0, 0.0])
    kernel = bind(p, m)
    J = _raw_jacobian(np.array(x), rbar, kernel)
    ref = _fd_jacobian(lambda xx: _raw_residual(xx, Fl, Fr, rbar, kernel), np.array(x))
    np.testing.assert_allclose(J, ref, rtol=0.0, atol=1e-6 * np.max(np.abs(ref)))


@given(x=_unknowns, dr_x=_rail, F=_thrust, symmetric=st.booleans())
@settings(max_examples=50, deadline=None)
def test_planar_jacobian_block_matches_central_differences(bundle, sym_bundle, x, dr_x, F,
                                                           symmetric):
    """Rows (fx, fz, ty) and columns (theta, V, alpha) of the Jacobian at a
    planar point are the Jacobian of the planar residual `solve_straight`
    solves."""
    p, m = sym_bundle if symmetric else bundle
    rbar = p.rbar0 + np.array([dr_x, 0.0, 0.0])
    theta, _, _, V, alpha, _ = x
    kernel = bind(p, m)

    def planar(x3):
        xx = np.array([x3[0], 0.0, 0.0, x3[1], x3[2], 0.0])
        return _raw_residual(xx, F, F, rbar, kernel)[[0, 2, 4]]

    J = _raw_jacobian(np.array([theta, 0.0, 0.0, V, alpha, 0.0]), rbar, kernel)
    ref = _fd_jacobian(planar, np.array([theta, V, alpha]))
    np.testing.assert_allclose(J[np.ix_([0, 2, 4], [0, 3, 4])], ref,
                               rtol=0.0, atol=1e-6 * np.max(np.abs(ref)))


_vec3 = st.tuples(*[st.floats(-2.0, 2.0)] * 3)


@given(v=_vec3, w=_vec3, g=_vec3, dv=_vec3, dw=_vec3, dg=_vec3, dr_x=_rail,
       Fl=_thrust, Fr=_thrust)
@settings(max_examples=100, deadline=None)
def test_balance_tangent_matches_central_difference(params, v, w, g, dv, dw, dg, dr_x, Fl, Fr):
    """`_balance_tangents` is the directional derivative of `_balance` at
    rbardot = 0; the balance is quadratic there, so central differences
    are exact but for rounding."""
    rbar = (params.rbar0 + np.array([dr_x, 0.0, 0.0])).tolist()
    zero = (0.0, 0.0, 0.0)

    def along(t):
        return np.array(_balance(
            [a + t * b for a, b in zip(v, dv)], [a + t * b for a, b in zip(w, dw)],
            [a + t * b for a, b in zip(g, dg)], rbar, zero, Fl, Fr, params))

    h = 1e-4
    ref = (along(h) - along(-h)) / (2.0 * h)
    got, = _balance_tangents(v, w, g, rbar, [(dv, dw, dg)], params)
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-9 * max(1.0, np.max(np.abs(ref))))


@given(ang=st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)), V=st.floats(0.3, 2.0),
       w=_vec3, symmetric=st.booleans())
@settings(max_examples=100, deadline=None)
def test_body_load_partials_match_central_differences(bundle, sym_bundle, ang, V, w,
                                                      symmetric):
    """The alpha, beta and V partials of `_body_loads` and its damping map
    (torque per unit body rate) equal central differences."""
    p, m = sym_bundle if symmetric else bundle
    alpha, beta = ang
    rho = p.rho

    def loads(a, b, VV, ww):
        return np.array(_body_loads(m, a, b, VV, ww, rho))

    d_alpha, d_beta, d_V, damping = aero.bind(m, rho).body_load_partials(alpha, beta, V, *w)
    h = 1e-6
    refs = [
        (loads(alpha + h, beta, V, w) - loads(alpha - h, beta, V, w)) / (2.0 * h),
        (loads(alpha, beta + h, V, w) - loads(alpha, beta - h, V, w)) / (2.0 * h),
        (loads(alpha, beta, V + h, w) - loads(alpha, beta, V - h, w)) / (2.0 * h),
    ]
    for got, ref in zip((d_alpha, d_beta, d_V), refs):
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-7 * np.max(np.abs(ref)))
    rate_cols = []
    for i in range(3):
        e = np.zeros(3)
        e[i] = 1.0
        rate_cols.append((loads(alpha, beta, V, np.add(w, e)) - loads(alpha, beta, V, np.subtract(w, e))) / 2.0)
    ref = np.array(rate_cols).T
    assert np.all(ref[:3] == 0.0)
    np.testing.assert_allclose(np.reshape(damping, (3, 3)), ref[3:],
                               rtol=0.0, atol=1e-12 * np.max(np.abs(ref)))


@pytest.mark.parametrize("dr_x, diff, bound, seeds", [
    pytest.param(-0.01, -3.2, 20, 1, id="direct"),
    pytest.param(0.04, -4.9, 200, 2, id="fallback"),
])
def test_spiral_residual_evaluation_count(params, model, monkeypatch, dr_x, diff, bound,
                                          seeds):
    """Each Newton iteration evaluates the residual only for its step-halving
    trials, never to build the Jacobian, so a spiral solve costs a small,
    deterministic number of residual evaluations.  A direct cell is seeded
    by one planar trim; a cell whose direct solve fails is seeded again at
    dr_x = 0 for the moving-mass fallback."""
    calls = []
    raw = equilibria._raw_residual
    monkeypatch.setattr(equilibria, "_raw_residual", lambda *a: calls.append(1) or raw(*a))
    straight_calls = []
    straight = equilibria.solve_straight
    monkeypatch.setattr(equilibria, "solve_straight",
                        lambda *a, **k: straight_calls.append(a[0]) or straight(*a, **k))
    Fl = 0.5 * (7.0 + diff) * GF_TO_N
    Fr = 0.5 * (7.0 - diff) * GF_TO_N
    sol = solve_spiral(dr_x, Fl, Fr, params, model)
    assert sol.residual_norm < 1e-9
    assert 0 < len(calls) <= bound
    assert len(straight_calls) == seeds


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
    x0 = np.zeros(6)
    assert np.allclose(_raw_residual(x0, 0.0, 0.0, np.zeros(3), bind(p, m)), 0.0,
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
    got = _raw_residual(np.array(x), Fl, Fr, rbar, bind(params, model))
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
    """At large forward moving-mass offset the direct Newton solve from the
    planar trim fails; the fallback, which solves the cell at dr_x = 0 and
    walks the moving mass along the rail, must still converge."""
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
