import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_matrix import eval_coeffs, loads_to_body

from blimpdyn.aero import (
    PARAM_NAMES,
    STALL_ALPHA,
    AeroModel,
    DegenerateModel,
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


def test_max_lift_drag_matches_measured_value(model):
    table = lift_drag_analysis(model, np.radians(np.linspace(0, 16, 161)))
    assert abs(table.max_ld - 1.78) <= 0.02
    assert abs(np.degrees(table.alpha_star) - 10.7) <= 0.3


def test_max_lift_drag_against_dense_grid(model):
    """Golden-section refinement agrees with a brute-force 0.001 deg scan."""
    table = lift_drag_analysis(model, np.radians(np.linspace(0, 16, 161)))
    dense = np.radians(np.arange(0.0, 16.0, 0.001))
    ld = np.array([eval_coeffs(model, a, 0.0).cl / eval_coeffs(model, a, 0.0).cd
                   for a in dense])
    k = int(np.argmax(ld))
    assert abs(table.max_ld - ld[k]) <= 1e-6
    assert abs(table.alpha_star - dense[k]) <= 2e-4


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
