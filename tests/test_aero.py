from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_matrix import eval_coeffs, loads_to_body, wind_matrix

from blimpdyn.aero import (
    PARAM_NAMES,
    STALL_ALPHA,
    AeroModel,
    DegenerateModel,
    _body_to_wind,
    _wind_to_body,
    aero_loads,
    lift_drag_analysis,
)
from blimpdyn.frames import AeroAngles


def test_coeffs_at_origin_equal_constants(model):
    c = eval_coeffs(model, 0.0, 0.0)
    assert c.cd == model.cd0
    assert c.cs == model.cs0
    assert c.cl == model.cl0
    assert c.cm1 == model.cm1_0
    assert c.cm2 == model.cm2_0
    assert c.cm3 == model.cm3_0
    assert not c.stalled and not c.beta_exceeded


def test_coeffs_hand_computed_point(model):
    """Polynomial structure check against literal arithmetic at one point."""
    a, b = 0.2, 0.1
    c = eval_coeffs(model, a, b)
    assert np.isclose(c.cd, 0.243 + 4.419 * a * a + 7.508 * b * b)
    assert np.isclose(c.cs, 0.001 - 0.074 * a * a - 2.113 * b)
    assert np.isclose(c.cl, 0.159 + 2.938 * a + 4.554 * b * b)
    assert np.isclose(c.cm1, 0.001 - 0.030 * a - 0.526 * b)
    assert np.isclose(c.cm2, 0.057 + 0.093 * a + 5.236 * b ** 4)
    assert np.isclose(c.cm3, 0.001 - 0.001 * a - 0.093 * b)


def test_stall_and_sideslip_advisories(model):
    assert eval_coeffs(model, STALL_ALPHA * 1.01, 0.0).stalled
    assert not eval_coeffs(model, STALL_ALPHA * 0.99, 0.0).stalled
    assert eval_coeffs(model, 0.0, model.beta_limit * 1.01).beta_exceeded


def test_positive_damping_rejected(model):
    with pytest.raises(ValueError):
        model.with_vector(np.concatenate([model.as_vector()[:18], [0.1, 0.0, 0.0]]))


@pytest.mark.parametrize("field", [*PARAM_NAMES, "a_ref", "beta_limit"])
def test_non_finite_fields_rejected(model, field):
    """nan passes the sign checks of k1..k3 and a_ref, so every field is
    checked by name."""
    from dataclasses import replace

    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            replace(model, **{field: value})


def test_parameter_vector_round_trip(model):
    x = model.as_vector()
    assert x.shape == (21,)
    assert [getattr(model, n) for n in PARAM_NAMES] == list(x)
    m2 = model.with_vector(x)
    assert np.allclose(m2.as_vector(), x)
    assert m2.a_ref == model.a_ref


@given(alpha=st.floats(-0.4, 0.4), beta=st.floats(-0.5, 0.5))
@settings(max_examples=60, deadline=None)
def test_symmetrized_model_parity(model, alpha, beta):
    """D, L, M2 are even in beta; S, M1, M3 odd (reflection symmetry)."""
    m = model.symmetrized()
    c_p = eval_coeffs(m, alpha, beta)
    c_m = eval_coeffs(m, alpha, -beta)
    assert np.isclose(c_p.cd, c_m.cd, atol=1e-14)
    assert np.isclose(c_p.cl, c_m.cl, atol=1e-14)
    assert np.isclose(c_p.cm2, c_m.cm2, atol=1e-14)
    assert np.isclose(c_p.cs, -c_m.cs, atol=1e-14)
    assert np.isclose(c_p.cm1, -c_m.cm1, atol=1e-14)
    assert np.isclose(c_p.cm3, -c_m.cm3, atol=1e-14)


def test_loads_scale_with_dynamic_pressure(model, params):
    a1 = AeroAngles(0.15, 0.05, 1.0)
    a2 = AeroAngles(0.15, 0.05, 2.0)
    l1 = aero_loads(model, a1, np.zeros(3), params.rho)
    l2 = aero_loads(model, a2, np.zeros(3), params.rho)
    assert np.allclose(l2.as_array(), 4.0 * l1.as_array(), rtol=1e-12)


def test_damping_adds_rate_term(model, params):
    a = AeroAngles(0.1, 0.0, 1.0)
    w = np.array([0.2, -0.3, 0.4])
    with_rate = aero_loads(model, a, w, params.rho)
    without = aero_loads(model, a, np.zeros(3), params.rho)
    assert np.isclose(with_rate.M1 - without.M1, model.k1 * w[0])
    assert np.isclose(with_rate.M2 - without.M2, model.k2 * w[1])
    assert np.isclose(with_rate.M3 - without.M3, model.k3 * w[2])
    assert with_rate.D == without.D


def test_loads_to_body_sign_conventions(model, params):
    """At zero aero angles: drag points backward, lift up (z is down),
    side force to starboard."""
    a = AeroAngles(0.0, 0.0, 1.0)
    loads = aero_loads(model, a, np.zeros(3), params.rho)
    F, T = loads_to_body(a, loads)
    assert np.isclose(F[0], -loads.D)
    assert np.isclose(F[1], loads.S)
    assert np.isclose(F[2], -loads.L)
    assert np.allclose(T, [loads.M1, loads.M2, loads.M3])


@given(alpha=st.floats(-1.5, 1.5), beta=st.floats(-1.5, 1.5),
       loads=st.lists(st.floats(-10.0, 10.0), min_size=6, max_size=6))
@settings(max_examples=200, deadline=None)
def test_body_to_wind_is_the_transpose_of_wind_to_body(alpha, beta, loads):
    """`_body_to_wind` resolves a body force and torque into the wind axes
    with the signs of `_wind_to_body` (D along -x, S along +y, L along -z),
    as the transposed reference rotation does, and undoes `_wind_to_body`."""
    cs = (np.cos(alpha), np.sin(alpha), np.cos(beta), np.sin(beta))
    R = wind_matrix(alpha, beta)
    f, t = R.T @ loads[:3], R.T @ loads[3:]
    ref = [-f[0], f[1], -f[2], *t]
    np.testing.assert_allclose(_body_to_wind(*cs, *loads), ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose(_body_to_wind(*cs, *_wind_to_body(*cs, *loads)), loads,
                               rtol=0, atol=1e-12)


def test_max_lift_drag_matches_measured_value(model):
    table = lift_drag_analysis(model, np.radians(np.linspace(0, 16, 161)))
    assert abs(table.max_ld - 1.78) <= 0.02
    assert abs(np.degrees(table.alpha_star) - 10.7) <= 0.3


def test_max_lift_drag_against_dense_grid(model):
    """The closed-form maximum agrees with a brute-force 0.001 deg scan and
    is not beaten by any of its points."""
    table = lift_drag_analysis(model, np.radians(np.linspace(0, 16, 161)))
    dense = np.radians(np.arange(0.0, 16.0, 0.001))
    ld = np.array([eval_coeffs(model, a, 0.0).cl / eval_coeffs(model, a, 0.0).cd
                   for a in dense])
    k = int(np.argmax(ld))
    assert 0.0 <= table.max_ld - ld[k] <= 1e-9
    assert abs(table.alpha_star - dense[k]) <= np.radians(0.001)


def _stationarity(m, a):
    """The stationarity quadratic of C_L/C_D at zero sideslip at `a` [rad],
    and the sum of its terms' magnitudes (the scale of its rounding)."""
    terms = (m.cl_a * m.cd_a * a * a, 2.0 * m.cl0 * m.cd_a * a, -m.cl_a * m.cd0)
    return sum(terms), sum(map(abs, terms))


@pytest.mark.parametrize("wingless, alpha_deg, max_ld",
                         [(False, 10.6882088, 1.78203199), (True, 12.9975667, 0.661228914)])
def test_max_lift_drag_zeroes_the_stationarity_quadratic(wingless, alpha_deg, max_ld):
    """Inside the polar's range the best glide is a root of
    cl_a cd_a a^2 + 2 cl0 cd_a a - cl_a cd0 = 0, to rounding."""
    from blimpdyn import load_bundled

    _, m = load_bundled(wingless=wingless)
    table = lift_drag_analysis(m, np.radians(np.arange(0.0, 16.0 + 1e-9, 0.1)))
    value, scale = _stationarity(m, table.alpha_star)
    assert abs(value) <= 4 * np.finfo(float).eps * scale
    assert "%.9g" % np.degrees(table.alpha_star) == "%.9g" % alpha_deg
    assert "%.9g" % table.max_ld == "%.9g" % max_ld


@pytest.mark.parametrize("lo, hi, end", [(0.0, 5.0, -1), (12.0, 16.0, 0)])
def test_max_lift_drag_at_an_end_of_the_range(model, lo, hi, end):
    """A range that misses the interior maximum has its best glide at the
    end nearer to it, with that end's tabulated L/D."""
    alpha = np.radians(np.linspace(lo, hi, 41))
    table = lift_drag_analysis(model, alpha)
    assert table.alpha_star == alpha[end]
    assert table.max_ld == table.ld[end]


def test_max_lift_drag_without_drag_growth(model):
    """With cd_a = 0 the quadratic degenerates: L/D is linear in alpha and
    rises to the top of the range."""
    flat = replace(model, cd_a=0.0)
    alpha = np.radians(np.linspace(-4.0, 16.0, 201))
    table = lift_drag_analysis(flat, alpha)
    assert table.alpha_star == alpha[-1]
    assert table.max_ld == table.ld[-1] == np.max(table.ld)


def test_max_lift_drag_without_lift_slope(model):
    """With cl_a = 0 the quadratic is linear with its root at alpha = 0,
    where C_D is least: the best glide is cl0 / cd0 there."""
    flat = replace(model, cl_a=0.0)
    table = lift_drag_analysis(flat, np.radians(np.linspace(-4.0, 16.0, 7)))
    assert table.alpha_star == 0.0
    assert table.max_ld == model.cl0 / model.cd0
    assert table.max_ld > np.max(table.ld)


def test_degenerate_drag_between_grid_points_rejected(model):
    """C_D = cd0 + cd_a alpha^2 with cd0 slightly negative dips below zero
    only near alpha = 0, which lies between the points of a 0.1 deg grid
    starting at -0.05 deg: the check looks at C_D's vertex, not the grid."""
    bad = replace(model, cd0=-1e-6)
    with pytest.raises(DegenerateModel):
        lift_drag_analysis(bad, np.radians(np.arange(-0.05, 16.0, 0.1)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_lift_drag_analysis_rejects_a_non_finite_range(model, bad):
    with pytest.raises(ValueError, match="^alpha_range must be finite$"):
        lift_drag_analysis(model, np.array([0.0, bad, 0.2]))


@pytest.mark.parametrize("rho", [np.nan, np.inf, 0.0, -1.0])
def test_aero_loads_rejects_a_density_that_is_not_finite_and_positive(model, rho):
    """A NaN or infinite density is refused, not turned into NaN or
    infinite loads."""
    with pytest.raises(ValueError, match="air density"):
        aero_loads(model, AeroAngles(0.1, 0.0, 1.0), np.zeros(3), rho)


@pytest.mark.parametrize("wingless", [False, True])
def test_lift_drag_table_equals_pointwise_coefficients(wingless):
    """The polynomials evaluated over the whole grid give the per-point
    `eval_coeffs` values bit for bit."""
    from blimpdyn import load_bundled

    _, m = load_bundled(wingless=wingless)
    alpha = np.radians(np.arange(0.0, 16.0 + 1e-9, 0.1))
    table = lift_drag_analysis(m, alpha)
    coeffs = [eval_coeffs(m, a, 0.0) for a in alpha]
    assert np.array_equal(table.cl, [c.cl for c in coeffs])
    assert np.array_equal(table.cd, [c.cd for c in coeffs])
    assert np.array_equal(table.ld, [c.cl / c.cd for c in coeffs])


def test_wingless_max_lift_drag():
    from blimpdyn import load_bundled

    _, wingless = load_bundled(wingless=True)
    table = lift_drag_analysis(wingless, np.radians(np.linspace(0, 16, 161)))
    assert abs(table.max_ld - 0.66) <= 0.02


def test_degenerate_drag_rejected(model):
    bad = model.with_vector(
        np.concatenate([[-0.1], model.as_vector()[1:]])
    )
    with pytest.raises(DegenerateModel):
        lift_drag_analysis(bad, np.radians(np.linspace(0, 16, 161)))


def test_table_values_match_bundle(model):
    """The bundled stock coefficients are the measured table values."""
    expected = {
        "cd0": 0.243, "cd_a": 4.419, "cd_b": 7.508,
        "cs0": 0.001, "cs_a": -0.074, "cs_b": -2.113,
        "cl0": 0.159, "cl_a": 2.938, "cl_b": 4.554,
        "cm1_0": 0.001, "cm1_a": -0.030, "cm1_b": -0.526,
        "cm2_0": 0.057, "cm2_a": 0.093, "cm2_b": 5.236,
        "cm3_0": 0.001, "cm3_a": -0.001, "cm3_b": -0.093,
        "k1": -0.050, "k2": -0.026, "k3": -0.014,
    }
    for name, value in expected.items():
        assert getattr(model, name) == pytest.approx(value, abs=1e-12), name
