import math
import warnings
from unittest import mock

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from reference_kernel import (
    _balance,
    _body_loads,
    reference_damped_newton,
    reference_linearize,
    reference_planar_jacobian,
    reference_raw_jacobian,
    reference_spiral_jacobian,
)
from reference_matrix import reference_rhs, steady_residual, wind_matrix

from blimpdyn import aero, equilibria, frames
from blimpdyn.dynamics import ControlInput, bind
from blimpdyn.equilibria import (
    LAMBDA_MIN,
    SEED_TOL,
    TOL,
    NoConvergence,
    _damped_newton,
    _planar_jacobian,
    _rail_derivative,
    _raw_jacobian,
    _raw_residual,
    eigen_report,
    linearize,
    solve_spiral,
    solve_straight,
    turning_radius,
)
from blimpdyn.frames import GF_TO_N, RAIL_LIMIT, EulerAngles, State, aero_angles_array


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
    terms = kernel.mass_terms(*rbar)
    J = np.asarray(_raw_jacobian(np.array(x), terms, kernel)).T
    ref = _fd_jacobian(lambda xx: np.asarray(_raw_residual(xx, Fl, Fr, rbar, terms, kernel)),
                       np.array(x))
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
    terms = kernel.mass_terms(*rbar)

    def planar(x3):
        xx = np.array([x3[0], 0.0, 0.0, x3[1], x3[2], 0.0])
        return np.asarray(_raw_residual(xx, F, F, rbar, terms, kernel))[[0, 2, 4]]

    J = np.asarray(_raw_jacobian(np.array([theta, 0.0, 0.0, V, alpha, 0.0]), terms, kernel)).T
    ref = _fd_jacobian(planar, np.array([theta, V, alpha]))
    np.testing.assert_allclose(J[np.ix_([0, 2, 4], [0, 3, 4])], ref,
                               rtol=0.0, atol=1e-6 * np.max(np.abs(ref)))


_vec3 = st.tuples(*[st.floats(-2.0, 2.0)] * 3)


@given(v=_vec3, w=_vec3, g=_vec3, dv=_vec3, dw=_vec3, dg=_vec3, dr_x=_rail,
       Fl=_thrust, Fr=_thrust)
@settings(max_examples=100, deadline=None)
def test_balance_tangent_matches_central_difference(params, model, v, w, g, dv, dw, dg, dr_x,
                                                    Fl, Fr):
    """Each tangent family of the kernel is the directional derivative of
    the reference balance at rbardot = 0: `velocity_tangents` along dv,
    `rate_tangents` along (dw, dg), and their sum along the mixed
    (dv, dw, dg).  The balance is quadratic there, so central differences
    are exact but for rounding."""
    rbar = (params.rbar0 + np.array([dr_x, 0.0, 0.0])).tolist()
    zero = (0.0, 0.0, 0.0)

    def central(du, dp, dq):
        def along(t):
            return np.array(_balance(
                [a + t * b for a, b in zip(v, du)], [a + t * b for a, b in zip(w, dp)],
                [a + t * b for a, b in zip(g, dq)], rbar, zero, Fl, Fr, params, False))

        h = 1e-4
        return (along(h) - along(-h)) / (2.0 * h)

    kernel = bind(params, model)
    terms = kernel.mass_terms(*rbar)
    vel, = kernel.velocity_tangents(terms, w, [dv])
    rate, = kernel.rate_tangents(terms, v, w, [(dw, dg)])
    for got, ref in ((vel, central(dv, zero, zero)), (rate, central(zero, dw, dg)),
                     (np.add(vel, rate), central(dv, dw, dg))):
        np.testing.assert_allclose(got, ref, rtol=0.0,
                                   atol=1e-9 * max(1.0, np.max(np.abs(ref))))


def test_raw_jacobian_equals_general_tangent_form(bundle, sym_bundle):
    """The split-family Jacobian is bitwise equal (zero signs included) to
    the product rule on one general (dv, dw, dg) tangent per unknown, on
    3,000 uniformly random unknowns and rail positions of the stock and
    symmetrized vehicles; every third draw is planar (phi = psidot =
    beta = 0), as in the trim solve, where many tangent terms are zero."""
    rng = np.random.default_rng(20261019)
    for k in range(3000):
        p, m = sym_bundle if k % 2 else bundle
        x = rng.uniform([-0.5, -0.5, -1.0, 0.3, -0.3, -0.3], [0.5, 0.5, 1.0, 2.0, 0.3, 0.3])
        if k % 3 == 0:
            x[[1, 2, 5]] = 0.0
        rbar = (p.rbar0 + [rng.uniform(-0.06, 0.06), 0.0, 0.0]).tolist()
        kernel = bind(p, m)
        got = _raw_jacobian(x.tolist(), kernel.mass_terms(*rbar), kernel)
        ref = reference_raw_jacobian(x.tolist(), rbar, p, m)
        assert np.array(got).tobytes() == np.array(ref).tobytes(), f"draw {k}"


@given(ang=st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)), V=st.floats(0.3, 2.0),
       w=_vec3, symmetric=st.booleans())
@settings(max_examples=100, deadline=None)
def test_body_load_partials_match_central_differences(bundle, sym_bundle, ang, V, w,
                                                      symmetric):
    """The alpha, beta and V partials of the body loads and their damping
    map (torque per unit body rate) equal central differences of the
    reference body loads."""
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


@given(x=_unknowns, dr_x=_rail, Fl=_thrust, Fr=_thrust, symmetric=st.booleans())
@settings(max_examples=100, deadline=None)
def test_rail_derivative_matches_central_differences(bundle, sym_bundle, x, dr_x, Fl, Fr,
                                                     symmetric):
    """The closed-form derivative of the steady residual in the moving-mass
    position rbar_x equals its central difference to 1e-6 of the largest
    entry, at any thrusts (the thrust lever arms do not involve rbar_x)."""
    p, m = sym_bundle if symmetric else bundle
    kernel = bind(p, m)
    rbar = p.rbar0 + np.array([dr_x, 0.0, 0.0])
    h = 1e-6

    def residual(rb):
        return np.asarray(_raw_residual(np.array(x), Fl, Fr, rb, kernel.mass_terms(*rb), kernel))

    ref = (residual(rbar + [h, 0.0, 0.0]) - residual(rbar - [h, 0.0, 0.0])) / (2.0 * h)
    got = np.asarray(_rail_derivative(np.array(x), rbar, kernel, p.mbar))
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-6 * np.max(np.abs(ref)))


def test_damped_newton_gives_up_after_max_halvings():
    """A constant residual, whose simplified correction never shrinks,
    halves the damping factor from 1 down to LAMBDA_MIN = 2^-11 and gives
    up after the trial there: one evaluation at the seed plus one per
    trial, 12 trials."""
    calls = []

    def fun(x):
        calls.append(x)
        return np.array([1.0, 1.0])

    with pytest.raises(NoConvergence, match=r"step halving exhausted at iteration 1 "
                                            r"\(residual 1\.414e\+00\)"):
        _damped_newton(fun, lambda x: np.eye(2), np.zeros(2))
    assert LAMBDA_MIN == 0.5 ** 11 and len(calls) == 1 + 12


@pytest.mark.parametrize("fun, jac", [
    pytest.param(lambda x: np.array([1.0, 1.0]), lambda x: np.array([[np.nan, 0.0], [0.0, 1.0]]),
                 id="jacobian"),
    pytest.param(lambda x: np.array([np.inf, 1.0]), lambda x: np.eye(2), id="residual"),
])
def test_damped_newton_non_finite_system_raises_no_convergence(capfd, fun, jac):
    """A non-finite Jacobian or residual ends the solve with the typed
    failure, before the least-squares fallback, which LAPACK would refuse
    with a message on stderr."""
    with pytest.raises(NoConvergence, match=r"non-finite Jacobian or residual at iteration 1 "):
        _damped_newton(fun, jac, [0.0, 0.0])
    assert capfd.readouterr().err == ""


def _well_conditioned(n):
    """A diagonally dominant n x n matrix and a right-hand side."""
    entries = st.floats(-1.0, 1.0, allow_subnormal=False)
    return st.tuples(st.lists(entries, min_size=n * n, max_size=n * n),
                     st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)).map(
        lambda ab: (np.array(ab[0]).reshape(n, n) + n * np.eye(n), np.array(ab[1])))


@given(system=st.one_of(_well_conditioned(3), _well_conditioned(6)))
@settings(max_examples=200, deadline=None)
def test_step_solve_is_bitwise_np_linalg_solve(system):
    """The Newton step solve is LAPACK's gufunc called directly: on a 3x3 or
    6x6 system its solution has the bits of `np.linalg.solve`."""
    J, b = system
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(invalid="ignore"):
            got = equilibria._lapack_solve(J, b)
    assert got.tobytes() == np.linalg.solve(J, b).tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_singular_jacobian_gives_non_finite_step_without_warning(monkeypatch):
    """An exactly singular J makes the step solve return a non-finite step,
    silently, and the least-norm step then solves the consistent system;
    so does the polishing step's solve at the solution.  The full step
    lands below TOL, so its trial solves no simplified correction."""
    steps = []
    solve = equilibria._lapack_solve
    monkeypatch.setattr(equilibria, "_lapack_solve",
                        lambda J, b: steps.append(solve(J, b)) or steps[-1])
    J = [[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]]

    def fun(x):
        return [sum(a * v for a, v in zip(row, x)) - c for row, c in zip(J, (1.0, 2.0, 3.0))]

    x, fnorm = _damped_newton(fun, lambda x: J, [0.0, 0.0, 0.0])
    assert fnorm < 1e-9 and np.allclose(x, [0.2, 0.4, 3.0])
    # The step of iteration 1 and the polishing step at its solution; no
    # correction of the trial that reached it.
    assert len(steps) == 2 and not any(np.isfinite(step).any() for step in steps)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(np.array(J), np.array([-1.0, -2.0, -3.0]))


_below_stall = st.floats(-aero.STALL_ALPHA, aero.STALL_ALPHA)


@given(theta=_below_stall, V=st.floats(0.2, 3.0), alpha=_below_stall, dr_x=_rail,
       symmetric=st.booleans())
@example(theta=0.0, V=1.0, alpha=0.0, dr_x=0.0, symmetric=False)
@example(theta=-0.0, V=1.0, alpha=-0.0, dr_x=0.0, symmetric=False)
@example(theta=0.0, V=1.0, alpha=-0.0, dr_x=0.0, symmetric=True)
@example(theta=-0.0, V=1.0, alpha=0.0, dr_x=0.0, symmetric=True)
@settings(max_examples=100, deadline=None)
def test_planar_columns_are_bitwise_those_of_the_full_jacobian(bundle, sym_bundle, theta, V,
                                                               alpha, dr_x, symmetric):
    """The planar trim's Jacobian, built from the aero partials and one rate
    tangent at zero rates, equals the (fx, fz, ty) rows and
    (theta, V, alpha) columns of the six-column Jacobian, each entry
    divided by its row's scale (`reference_planar_jacobian`), bit for bit,
    signed zeros included."""
    p, m = sym_bundle if symmetric else bundle
    kernel = bind(p, m)
    _, terms, fscale, tscale = equilibria._rail_system(dr_x, p, kernel)
    x3 = (theta, V, alpha)
    assert (np.array(_planar_jacobian(x3, terms, kernel, fscale, tscale)).tobytes()
            == np.array(reference_planar_jacobian(x3, terms, kernel, fscale, tscale)).tobytes())


@given(x=_unknowns, dr_x=_rail, symmetric=st.booleans())
@settings(max_examples=100, deadline=None)
def test_scaled_jacobians_are_bitwise_the_nested_list_form(bundle, sym_bundle, x, dr_x,
                                                          symmetric):
    """The Jacobians the planar trim and the spiral solve hand the Newton
    loop, the planar one an array of its scaled rows and the spiral one an
    array of the columns transposed and divided by a column of the scales,
    are bitwise the nested lists of the six-column Jacobian divided entry
    by entry in Python, on the stock and symmetrized vehicles."""
    p, m = sym_bundle if symmetric else bundle
    kernel = bind(p, m)
    jacs = []
    with mock.patch.object(equilibria, "_damped_newton",
                           lambda fun, jac, x0, tol=TOL: jacs.append(jac)
                           or (np.array(x0, dtype=float), 0.0)):
        equilibria._solve_spiral_direct(dr_x, 0.5 * F2, 1.5 * F2, p, m, kernel)
    jac3, jac6 = jacs
    _, terms, fscale, tscale = equilibria._rail_system(dr_x, p, kernel)
    theta, _, _, V, alpha, _ = x
    for got, ref in ((jac3([theta, V, alpha]),
                      reference_planar_jacobian((theta, V, alpha), terms, kernel, fscale, tscale)),
                     (jac6(list(x)), reference_spiral_jacobian(x, terms, kernel, fscale, tscale))):
        ref = np.array(ref)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("fun, jac, n, failure, iteration, residual", [
    pytest.param(lambda x: [x[0] - 1.0], lambda x: [[1.0]], 1, None, None, None, id="converged"),
    pytest.param(lambda x: [1.0, 1.0], lambda x: np.eye(2), 2, "step halving exhausted", 1,
                 math.sqrt(2.0), id="halving-exhausted"),
    pytest.param(lambda x: [np.inf, 1.0], lambda x: np.eye(2), 2,
                 "non-finite Jacobian or residual", 1, math.inf, id="non-finite"),
    # The step -f / 1e-300 overflows, and so does the least-norm step.
    pytest.param(lambda x: [1e10, 1e10], lambda x: [[1e-300, 0.0], [0.0, 1e-300]], 2,
                 "singular Jacobian with no usable step", 1, math.sqrt(2.0) * 1e10,
                 id="no-usable-step"),
    # Each step lowers the residual by a factor 1 - 1e-6 only.
    pytest.param(lambda x: [x[0] - 1.0], lambda x: [[1e6]], 1, "after 100 iterations", 100,
                 (1.0 - 1e-6) ** 100, id="iteration-cap"),
])
def test_damped_newton_restores_the_error_state(fun, jac, n, failure, iteration, residual):
    """The Newton loop ignores numpy's `invalid` flag while it runs, and the
    caller's error state is back in place when it returns and after each
    of its `NoConvergence` exits, which carry the failed iteration and the
    residual norm there as attributes, the norm as their message prints
    it."""
    with np.errstate(divide="warn", over="raise", under="warn", invalid="raise"):
        before = np.geterr()
        if failure is None:
            x, fnorm = _damped_newton(fun, jac, [0.0] * n)
            assert fnorm < 1e-9 and x.tolist() == [1.0]
        else:
            with pytest.raises(NoConvergence, match=failure) as raised:
                _damped_newton(fun, jac, [0.0] * n)
            exc = raised.value
            assert exc.iteration == iteration
            assert exc.residual == pytest.approx(residual, rel=1e-12)
            assert f"residual {exc.residual:.3e}" in str(exc)
        assert np.geterr() == before


def test_failed_direct_attempt_fails_fast(params, model, monkeypatch):
    """The direct attempt of a cell that takes the moving-mass fallback
    (4 cm, -4.9 gf at 7 gf) fails after at most 12 residual evaluations,
    its planar seed's included: the error-oriented damping predicts a
    small damping factor instead of halving from the full step (26 when
    the step halved on the residual norm)."""
    calls = []
    raw = equilibria._raw_residual
    monkeypatch.setattr(equilibria, "_raw_residual", lambda *a: calls.append(1) or raw(*a))
    Fl, Fr = 0.5 * (7.0 - 4.9) * GF_TO_N, 0.5 * (7.0 + 4.9) * GF_TO_N
    with pytest.raises(NoConvergence, match="step halving exhausted") as raised:
        equilibria._solve_spiral_direct(0.04, Fl, Fr, params, model, bind(params, model))
    assert raised.value.iteration >= 1 and raised.value.residual > 1e-9
    assert 0 < len(calls) <= 12


def test_backwards_equilibrium_is_refused(params, model):
    """At dr_x = -6 cm and 3 gf with a differential of 0.7 of the total
    (Fl 2.55 gf, Fr 0.45 gf) the balance has an equilibrium with the
    vehicle flying backwards, V = -0.0403 m/s at alpha = 7.64 rad, which
    the direct solve reached when its step halved on the residual norm.
    That is no equilibrium to return: it raises `NoConvergence` naming the
    airspeed, a direct attempt that lands there falls back to the
    moving-mass walk like any other failure, and the cell fails."""
    Fl, Fr = 0.85 * 3 * GF_TO_N, 0.15 * 3 * GF_TO_N
    kernel = bind(params, model)
    system = equilibria._rail_system(-0.06, params, kernel)
    backwards = equilibria._spiral_newton([0.33, -0.04, -0.38, -0.04, 7.64, -0.08], Fl, Fr,
                                          system, kernel)
    x, fnorm = backwards
    assert fnorm < 1e-9
    assert x[3] == pytest.approx(-0.0403, abs=1e-4) and x[4] == pytest.approx(7.64, abs=1e-2)
    with pytest.raises(NoConvergence, match=r"airspeed -0\.0403 m/s is not positive") as raised:
        equilibria._make_solution(x, fnorm, "spiral", Fl, Fr, params.rail_position(-0.06))
    assert (raised.value.iteration, raised.value.residual) == (None, None)
    directs = []
    direct = equilibria._solve_spiral_direct
    with mock.patch.object(equilibria, "_solve_spiral_direct",
                           lambda dr_x, *a: directs.append(dr_x) or (
                               backwards if dr_x else direct(dr_x, *a))):
        with pytest.raises(NoConvergence):
            solve_spiral(-0.06, Fl, Fr, params, model)
    assert directs == [-0.06, 0.0]
    with pytest.raises(NoConvergence):
        solve_spiral(-0.06, Fl, Fr, params, model)


def test_continuation_breakdown_carries_the_newton_failure(params, model):
    """A failed intermediate step of the moving-mass fallback raises
    `ContinuationBreakdown` with the iteration and residual norm of the
    Newton failure it wraps: at 3 gf with a differential of 0.7 of the
    total, the walk to dr_x = -6 cm fails at its first step, -3 cm."""
    with pytest.raises(equilibria.ContinuationBreakdown, match="at dr_x -0.0300 m") as raised:
        solve_spiral(-0.06, 0.15 * 3 * GF_TO_N, 0.85 * 3 * GF_TO_N, params, model)
    exc, cause = raised.value, raised.value.__cause__
    assert type(cause) is NoConvergence and str(cause) in str(exc)
    assert (exc.iteration, exc.residual) == (cause.iteration, cause.residual)
    assert exc.iteration >= 1 and exc.residual > 1e-9


def _rail_walk_calls(params, monkeypatch):
    """Record the rail offset [cm] of each `_spiral_newton` call and count
    the branch tangents (`_rail_derivative` calls)."""
    offsets, tangents = [], []
    spiral_newton, rail_derivative = equilibria._spiral_newton, equilibria._rail_derivative
    home = params.rbar0[0]
    monkeypatch.setattr(equilibria, "_spiral_newton", lambda *a: offsets.append(
        round((a[3][0][0] - home) * 100, 9)) or spiral_newton(*a))
    monkeypatch.setattr(equilibria, "_rail_derivative",
                        lambda *a: tangents.append(1) or rail_derivative(*a))
    return offsets, tangents


def test_fallback_walks_out_in_one_step(params, model, monkeypatch):
    """On the fallback cell (4 cm, -4.9 gf at 7 gf) the direct solve fails,
    the start at dr_x = 0 is solved once, and one predictor step along one
    tangent, corrected by one Newton solve, reaches 4 cm."""
    offsets, tangents = _rail_walk_calls(params, monkeypatch)
    sol = _solve_cell("fallback", params, model)
    assert sol.residual_norm < 1e-9
    assert offsets == [4.0, 0.0, 4.0]
    assert len(tangents) == 1


def test_failed_one_step_walk_retries_in_rail_steps(params, model, monkeypatch):
    """At 4.5 cm with Fl 3.6 gf and Fr 4.4 gf the direct solve and the
    one-step walk both fail; the walk is retried from the same start and
    tangent in RAIL_STEPS steps, correcting at 2.25 cm and then at 4.5 cm
    with one more tangent, at 2.25 cm, and converges."""
    assert equilibria.RAIL_STEPS == 2
    offsets, tangents = _rail_walk_calls(params, monkeypatch)
    sol = solve_spiral(0.045, 3.6 * GF_TO_N, 4.4 * GF_TO_N, params, model)
    assert sol.kind == "spiral" and sol.residual_norm < 1e-9
    assert offsets == [4.5, 0.0, 4.5, 2.25, 4.5]
    assert len(tangents) == 2


def _cell_setting(solve):
    """(dr_x, Fl, Fr) of a planar trim, a direct spiral cell and a cell that
    takes the moving-mass fallback."""
    if solve == "straight":
        return 0.01, F2, F2
    diff, dr_x = {"direct": (-3.2, -0.01), "fallback": (-4.9, 0.04)}[solve]
    return dr_x, 0.5 * (7.0 + diff) * GF_TO_N, 0.5 * (7.0 - diff) * GF_TO_N


def _solve_cell(solve, params, model):
    dr_x, Fl, Fr = _cell_setting(solve)
    if solve == "straight":
        return solve_straight(dr_x, Fl, params, model)
    return solve_spiral(dr_x, Fl, Fr, params, model)


@pytest.mark.parametrize("solve", ["straight", "direct", "fallback"])
def test_float_newton_matches_array_reference(params, model, monkeypatch, solve):
    """The float Newton loop reaches the unknowns of the numpy-vector loop
    it mirrors bit for bit, on a planar trim, a direct spiral cell and a
    cell that takes the moving-mass fallback, with the same tolerance in
    each solve; the residual norms, summed in another order, agree within
    4 ulp."""
    got = _solve_cell(solve, params, model)
    calls = []

    def array_newton(fun, jac, x0, tol=TOL):
        calls.append(tol)
        return reference_damped_newton(lambda x: np.array(fun(x)), lambda x: np.array(jac(x)),
                                       x0, tol)

    monkeypatch.setattr(equilibria, "_damped_newton", array_newton)
    ref = _solve_cell(solve, params, model)
    # A spiral's planar seed and the fallback's start at dr_x = 0 are solved
    # to SEED_TOL, every other solve to TOL.
    assert calls == {"straight": [TOL], "direct": [SEED_TOL, TOL],
                     "fallback": [SEED_TOL, TOL, SEED_TOL, SEED_TOL, TOL]}[solve]
    unknowns = ("theta", "phi", "psidot", "V", "alpha", "beta")
    assert ([getattr(got, k).hex() for k in unknowns]
            == [getattr(ref, k).hex() for k in unknowns])
    assert got.v_b.tobytes() == ref.v_b.tobytes() and got.w_b.tobytes() == ref.w_b.tobytes()
    assert abs(got.residual_norm - ref.residual_norm) <= 4 * np.spacing(ref.residual_norm)


@pytest.mark.parametrize("solve", ["straight", "direct", "fallback"])
def test_stalled_is_a_python_bool(params, model, solve):
    """`SteadySolution.stalled` is a `bool`, not a numpy scalar, on a planar
    trim, a direct spiral cell and a cell that takes the moving-mass
    fallback, so it packs into bytes and compares by identity."""
    sol = _solve_cell(solve, params, model)
    assert type(sol.stalled) is bool
    assert bytes([sol.stalled]) == b"\x00"


@pytest.mark.parametrize("solve", ["straight", "direct", "fallback"])
def test_solution_records_its_setting(params, model, solve):
    """A solution records the setting it was solved at: its thrusts, and
    the moving-mass position `params.rail_position(dr_x)` bit for bit, which
    its state takes; it is no mirror image."""
    dr_x, Fl, Fr = _cell_setting(solve)
    sol = _solve_cell(solve, params, model)
    assert (sol.Fl, sol.Fr, sol.mirrored) == (Fl, Fr, False)
    assert sol.kind == ("straight" if Fl == Fr else "spiral")
    assert sol.rbar.tobytes() == params.rail_position(dr_x).tobytes()
    assert sol.state(sol.rbar).rbar.tobytes() == sol.rbar.tobytes()


def test_replace_sets_stalled_again(params, model):
    """`stalled` follows alpha as a record is built, so `dataclasses.replace`
    sets it again from the new angle of attack, of either sign; it is no
    argument of the record."""
    sol = solve_straight(0.0, F2, params, model)
    assert sol.stalled is False
    for alpha in (1.01 * aero.STALL_ALPHA, -1.01 * aero.STALL_ALPHA):
        stalled = replace(sol, alpha=alpha)
        assert stalled.stalled is True
        assert replace(stalled, alpha=sol.alpha).stalled is False
    with pytest.raises(ValueError):
        replace(sol, stalled=True)


@pytest.mark.parametrize("theta, phi", [
    pytest.param(0.113, 9.613, id="roll-550.8-deg"),
    pytest.param(0.113 - 2.0 * math.pi, 0.013, id="pitch-below-minus-pi"),
])
def test_solution_wraps_pitch_and_roll_outside_pi(params, theta, phi):
    """A solve reports theta and phi in (-pi, pi]: an angle outside it, such
    as the roll of 9.613 rad (550.8 deg) an Euler seed once reached, is
    wrapped by `frames.wrap_angle`, and the body velocity, rates and state
    follow the wrapped angle; an angle inside it keeps its bits, though
    `wrap_angle` would move the last bit of 0.113 and 0.013."""
    x = np.array([theta, phi, 0.4, 0.9, 0.1, 0.05])
    sol = equilibria._make_solution(x, 1e-12, "spiral", 0.02, 0.03, params.rail_position(0.01))
    wrapped = [a if -math.pi < a <= math.pi else float(frames.wrap_angle(a)) for a in x[:2]]
    assert [sol.theta, sol.phi] == wrapped
    assert all(-math.pi < a <= math.pi for a in wrapped)
    assert float(frames.wrap_angle(0.113)) != 0.113 and float(frames.wrap_angle(0.013)) != 0.013
    np.testing.assert_allclose(wrapped, np.remainder(x[:2] + math.pi, 2.0 * math.pi) - math.pi,
                               rtol=0.0, atol=1e-14)
    k = equilibria._unknowns_to_kinematics(sol.unknowns)
    assert sol.v_b.tolist() == list(k[:3]) and sol.w_b.tolist() == list(k[3:6])
    np.testing.assert_allclose(sol.w_b, equilibria._unknowns_to_kinematics(x)[3:6], rtol=0.0,
                               atol=1e-14)
    state = sol.state(sol.rbar)
    assert (state.e.phi, state.e.theta) == (float(frames.wrap_angle(sol.phi)), sol.theta)
    assert state.v.tobytes() == sol.v_b.tobytes() and state.w.tobytes() == sol.w_b.tobytes()


@pytest.mark.parametrize("dr_x, diff, bound, seeds", [
    pytest.param(-0.01, -3.2, 13, 1, id="direct"),
    pytest.param(0.04, -4.9, 25, 2, id="fallback"),
])
def test_spiral_residual_evaluation_count(params, model, monkeypatch, dr_x, diff, bound,
                                          seeds):
    """Each Newton iteration evaluates the residual only for its damped
    trials, never to build the Jacobian, so a spiral solve costs a small,
    deterministic number of residual evaluations, and binds the vehicle
    once.  A direct cell is seeded by one planar trim.  A cell whose direct
    solve fails is seeded again at dr_x = 0 for the moving-mass fallback,
    whose start there is solved to SEED_TOL, and reaches dr_x in one
    tangent-predictor step, corrected by one Newton solve; the predictor
    uses the closed-form rail derivative, not the residual."""
    calls = []
    raw = equilibria._raw_residual
    monkeypatch.setattr(equilibria, "_raw_residual", lambda *a: calls.append(1) or raw(*a))
    straight_calls = []
    straight = equilibria._straight_trim
    monkeypatch.setattr(equilibria, "_straight_trim",
                        lambda *a: straight_calls.append(a[0]) or straight(*a))
    binds = []
    monkeypatch.setattr(equilibria, "bind", lambda *a: binds.append(1) or bind(*a))
    Fl = 0.5 * (7.0 + diff) * GF_TO_N
    Fr = 0.5 * (7.0 - diff) * GF_TO_N
    sol = solve_spiral(dr_x, Fl, Fr, params, model)
    assert sol.residual_norm < 1e-9
    assert 0 < len(calls) <= bound
    assert len(straight_calls) == seeds
    assert len(binds) == 1


@pytest.mark.parametrize("dr_x, diff, bound, step_bound", [
    pytest.param(-0.01, -3.2, 7, 15, id="direct"),
    pytest.param(0.04, -4.9, 16, 31, id="fallback"),
])
def test_spiral_jacobian_count(params, model, monkeypatch, dr_x, diff, bound, step_bound):
    """A Newton iteration whose full step contracts tenfold (its simplified
    correction is at most a tenth of the step) keeps its Jacobian, so a
    spiral solve builds fewer Jacobians than it solves steps (9 and 17
    Jacobians when each iteration built one).  The count includes the
    planar seeds' Jacobians, the polishing step of each solve to TOL and,
    on the fallback cell, the Jacobian of its one tangent predictor.  The
    step on a kept Jacobian is the correction its last trial solved, not
    solved again (19 and 33 step solves when it was)."""
    jacobians, steps = [], []
    raw_jacobian, newton_step = equilibria._raw_jacobian, equilibria._newton_step
    planar_jacobian = equilibria._planar_jacobian
    monkeypatch.setattr(equilibria, "_raw_jacobian",
                        lambda *a: jacobians.append(1) or raw_jacobian(*a))
    monkeypatch.setattr(equilibria, "_planar_jacobian",
                        lambda *a: jacobians.append(1) or planar_jacobian(*a))
    monkeypatch.setattr(equilibria, "_newton_step", lambda *a: steps.append(1) or newton_step(*a))
    sol = solve_spiral(dr_x, 0.5 * (7.0 + diff) * GF_TO_N, 0.5 * (7.0 - diff) * GF_TO_N,
                       params, model)
    assert sol.residual_norm < 1e-9
    assert 0 < len(jacobians) <= bound
    assert len(jacobians) < len(steps) <= step_bound


@pytest.mark.parametrize("cell, seed", [
    pytest.param((-0.01, -3.2), "planar", id="direct-from-planar-trim"),
    pytest.param((-0.01, -3.2), "perturbed", id="direct-from-perturbed-planar-trim"),
    pytest.param((0.04, -4.9), "perturbed", id="fallback-from-perturbed-solution"),
])
def test_spiral_solution_is_independent_of_the_seed(params, model, cell, seed):
    """Every solve ends on a polishing step at the floating-point floor, so
    a spiral cell solved from another seed returns the same unknowns
    within 1e-13 relative (1e-15 absolute for the tiny pitch of the
    fallback cell); the Newton tolerance alone allows 1e-8.  The other
    seeds are the planar trim at the mean thrust solved to TOL, that trim
    perturbed by about 0.1 rad and 0.1 m/s, and, for the cell that takes
    the moving-mass fallback, its own solution perturbed by 1 %."""
    dr_x, diff = cell
    Fl, Fr = 0.5 * (7.0 + diff) * GF_TO_N, 0.5 * (7.0 - diff) * GF_TO_N
    sol = solve_spiral(dr_x, Fl, Fr, params, model)
    got = np.array([sol.theta, sol.phi, sol.psidot, sol.V, sol.alpha, sol.beta])
    kernel = bind(params, model)
    system = equilibria._rail_system(dr_x, params, kernel)
    if dr_x < 0:
        x0, _ = equilibria._straight_trim(0.5 * (Fl + Fr), system, params, model, kernel)
        if seed == "perturbed":
            x0 = x0 + [0.02, 0.05, 0.1, -0.03, 0.01, 0.02]
    else:
        x0 = got * (1.0 + 0.01 * np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0]))
    x, fnorm = equilibria._spiral_newton(x0, Fl, Fr, system, kernel)
    assert fnorm < 1e-9 and x.tolist() != x0.tolist()
    np.testing.assert_allclose(got, x, rtol=1e-13, atol=1e-15)


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
        solve_straight(RAIL_LIMIT + 0.01, F2, params, model)
    with pytest.raises(ValueError):
        solve_spiral(-RAIL_LIMIT - 0.01, F2, 2 * F2, params, model)


def test_nan_rail_offset_is_a_value_error(params, model):
    """A NaN rail offset is outside the rail, for both solvers: it raises
    ValueError before any Newton solve or moving-mass walk."""
    with pytest.raises(ValueError, match="dr_x nan m outside rail limit"):
        solve_straight(math.nan, F2, params, model)
    with pytest.raises(ValueError, match="dr_x nan m outside rail limit"):
        solve_spiral(math.nan, F2, 2 * F2, params, model)


def test_planar_candidate_lateral_residuals_vanish(sym_bundle):
    """For the y-symmetric idealization, the planar trim is a full
    equilibrium: lateral residual components are zero."""
    p, m = sym_bundle
    sol = solve_straight(0.0, F2, p, m)
    res = steady_residual(sol, ControlInput(F2, F2), sol.rbar, p, m)
    assert abs(res[1]) < 1e-12  # side force
    assert abs(res[3]) < 1e-12  # roll moment
    assert abs(res[5]) < 1e-12  # yaw moment
    assert np.linalg.norm(res) < 1e-9


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_balanced_configuration_is_exact_solution(params, model):
    """Neutral buoyancy, no CG offsets, no pitch-moment aero: the at-rest
    level attitude solves the balance exactly, and the solver converges
    onto the (degenerate) solution manifold from its usual seed."""
    p = replace(params, r=np.zeros(3), rbar0=np.zeros(3),
                B=params.total_mass * params.g)
    m = replace(model.symmetrized(), cm2_0=0.0, cm2_a=0.0, cm2_b=0.0)
    candidate = solve_straight(0.0, 0.0, p, m)
    assert candidate.residual_norm < 1e-9
    assert candidate.V < 1e-3

    # Direct residual of the exact rest solution.
    x0 = np.zeros(6)
    kernel = bind(p, m)
    assert np.allclose(_raw_residual(x0, 0.0, 0.0, np.zeros(3), kernel.mass_terms(0.0, 0.0, 0.0),
                                     kernel), 0.0, atol=1e-15)


@given(
    x=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.8, 0.8), st.floats(-1.0, 1.0),
                st.floats(0.05, 2.0), st.floats(-0.4, 0.4), st.floats(-0.4, 0.4)),
    thrust=st.tuples(st.floats(0.0, 0.05), st.floats(0.0, 0.05)),
    dr_x=st.floats(-0.06, 0.06),
)
@settings(max_examples=100, deadline=None)
def test_raw_residual_matches_matrix_balance(params, model, x, thrust, dr_x):
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
    kernel = bind(params, model)
    got = _raw_residual(np.array(x), Fl, Fr, rbar, kernel.mass_terms(*rbar), kernel)
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
    walks the moving mass along the rail with a tangent predictor and a
    Newton corrector per step, must still converge."""
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
    d = bind(params, model).deriv(*sol.state(sol.rbar).as_vector()[3:].tolist(), Fl, Fr,
                                  0.0, 0.0, 0.0)
    assert np.max(np.abs(d[6:9])) < 1e-8
    assert np.max(np.abs(d[9:12])) < 1e-8


def test_spiral_radius_decreases_with_differential(params, model):
    radii = []
    for diff in (-3.2, -4.2, -4.9):
        Fl = 0.5 * (7.0 + diff) * GF_TO_N
        Fr = 0.5 * (7.0 - diff) * GF_TO_N
        radii.append(turning_radius(solve_spiral(0.0, Fl, Fr, params, model)))
    assert radii[0] > radii[1] > radii[2]


def test_linearize_shape_and_stability(params, model):
    sol = solve_straight(0.0, F2, params, model)
    A = linearize(sol, ControlInput(F2, F2), sol.rbar, params, model)
    assert A.shape == (8, 8)
    report = eigen_report(A)
    assert report.hurwitz
    slowest = max(ev.real for ev in report.eigenvalues)
    assert abs(slowest - (-0.37)) <= 0.10


@pytest.fixture(scope="module")
def lin_vehicles(bundle, sym_bundle):
    from blimpdyn import load_bundled

    return {"stock": bundle, "symmetrized": sym_bundle, "wingless": load_bundled(wingless=True)}


@given(vehicle=st.sampled_from(["stock", "symmetrized", "wingless"]),
       drx_cm=st.integers(-6, 6), total_gf=st.floats(2.0, 8.0),
       ratio=st.just(0.0) | st.floats(-0.7, 0.7))
@settings(max_examples=60, deadline=None)
def test_linearize_matches_finite_differences(lin_vehicles, vehicle, drx_cm, total_gf, ratio):
    """The exact linearization equals the central-difference reference
    within 1e-6 of its largest entry, on trims and spirals of the stock,
    symmetrized and wingless vehicles."""
    p, m = lin_vehicles[vehicle]
    Fl = 0.5 * total_gf * (1.0 + ratio) * GF_TO_N
    Fr = 0.5 * total_gf * (1.0 - ratio) * GF_TO_N
    dr_x = drx_cm * 1e-2
    try:
        sol = (solve_straight(dr_x, Fl, p, m) if ratio == 0.0
               else solve_spiral(dr_x, Fl, Fr, p, m))
    except NoConvergence:
        assume(False)
    control = ControlInput(Fl, Fr)
    A = linearize(sol, control, sol.rbar, p, m)
    ref = reference_linearize(sol, control, sol.rbar, p, m)
    np.testing.assert_allclose(A, ref, rtol=0.0, atol=1e-6 * np.max(np.abs(ref)))


@pytest.mark.parametrize("v_b", [(0.0, 0.0, 0.0), (0.5e-6, 0.0, -0.5e-6), (0.0, 0.8, 0.0),
                                 (0.4e-6, -0.8, 0.0)])
def test_linearize_rejects_airspeed_below_v_min(params, model, v_b):
    """Below V_MIN in airspeed or in hypot(u, w) `deriv` switches the aero
    angles off, and they have no derivative: a ValueError, not a matrix.
    The trim's body velocity is replaced through its unknowns V, alpha and
    beta, from which `v_b` follows."""
    alpha, beta, V = (float(a[0]) for a in aero_angles_array([v_b]))
    sol = replace(solve_straight(0.0, F2, params, model), V=V, alpha=alpha, beta=beta)
    with pytest.raises(ValueError, match="V_MIN"):
        linearize(sol, ControlInput(F2, F2), sol.rbar, params, model)


@pytest.mark.parametrize("field", ["phi", "theta"])
def test_linearize_rejects_non_finite_euler_angles(params, model, field):
    """A non-finite phi or theta is a ValueError, as in `deriv`, not a
    matrix of nan."""
    sol = replace(solve_straight(0.0, F2, params, model), **{field: float("nan")})
    with pytest.raises(ValueError, match="non-finite Euler angles"):
        linearize(sol, ControlInput(F2, F2), sol.rbar, params, model)


def test_wingless_slowest_mode():
    from blimpdyn import load_bundled

    p, m = load_bundled(wingless=True)
    sol = solve_straight(0.0, F2, p, m)
    A = linearize(sol, ControlInput(F2, F2), sol.rbar, p, m)
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
