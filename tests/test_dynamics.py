import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blimpdyn.dynamics import (
    ControlInput,
    composite_cg,
    deriv_vector,
    mass_matrix,
    mechanical_energy,
    skew,
    state_derivative,
    thrust_columns,
    total_inertia,
)
from blimpdyn.frames import (
    GIMBAL_EPS,
    V_MIN,
    AeroAngles,
    EulerAngles,
    GimbalLock,
    State,
    aero_angles,
)


def _state(phi=0.0, theta=0.1, psi=0.0, v=(0.8, 0.0, 0.1), w=(0.0, 0.0, 0.0),
           rbar=None, rbardot=(0.0, 0.0, 0.0), params=None):
    return State(
        p=np.zeros(3),
        e=EulerAngles(phi, theta, psi),
        v=np.array(v),
        w=np.array(w),
        rbar=params.rbar0 if rbar is None else np.array(rbar),
        rbardot=np.array(rbardot),
    )


def test_skew_matches_cross_product():
    a = np.array([1.0, -2.0, 3.0])
    b = np.array([0.5, 0.25, -1.0])
    assert np.allclose(skew(a) @ b, np.cross(a, b))


def test_composite_cg(params):
    l_g, r_g = composite_cg(params, params.rbar0)
    expected = params.m * params.r + params.mbar * params.rbar0
    assert np.allclose(l_g, expected)
    assert np.allclose(r_g, expected / params.total_mass)


def test_total_inertia_adds_point_mass_term(params):
    rbar = np.array([0.1, 0.0, 0.2])
    I = total_inertia(params, rbar)
    S = skew(rbar)
    assert np.allclose(I, params.inertia - params.mbar * (S @ S))
    assert np.all(np.linalg.eigvalsh(I) > 0)


def test_mass_matrix_blocks(params):
    M = mass_matrix(params, params.rbar0)
    l_g, _ = composite_cg(params, params.rbar0)
    assert M.shape == (9, 9)
    assert np.allclose(M[0:3, 0:3], params.total_mass * np.eye(3))
    assert np.allclose(M[0:3, 3:6], -skew(l_g))
    assert np.allclose(M[3:6, 0:3], skew(l_g))
    assert np.allclose(M[0:3, 6:9], params.mbar * np.eye(3))
    assert np.allclose(M[6:9, 6:9], np.eye(3))
    assert np.linalg.cond(M) < 1e6


def test_mass_matrix_legacy_drops_coupling(params):
    M = mass_matrix(params, params.rbar0, legacy=True)
    assert np.allclose(M[0:3, 3:6], 0.0)
    assert np.allclose(M[3:6, 0:3], 0.0)


def test_thrust_columns_lever_arms(params):
    rbar = np.array([0.08, 0.01, 0.24])
    cols = thrust_columns(rbar, params.d)
    Fl, Fr = 0.03, 0.01
    gen = cols @ np.array([Fl, Fr, 0.0, 0.0, 0.0])
    assert np.isclose(gen[0], Fl + Fr)          # forward force
    assert np.isclose(gen[4], (Fl + Fr) * rbar[2])  # pitch moment
    assert np.isclose(gen[5], Fl * (rbar[1] + params.d) + Fr * (rbar[1] - params.d))
    # simple_yaw drops the lateral moving-mass lever arm
    gen_s = thrust_columns(rbar, params.d, simple_yaw=True) @ np.array(
        [Fl, Fr, 0.0, 0.0, 0.0]
    )
    assert np.isclose(gen_s[5], (Fl - Fr) * params.d)
    assert np.isclose(gen_s[4], gen[4])


@given(
    euler=st.tuples(st.floats(-3.0, 3.0), st.floats(-1.4, 1.4), st.floats(-3.0, 3.0)),
    v=st.tuples(st.floats(-1.5, 1.5), st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
    w=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    drbar=st.tuples(st.floats(-0.06, 0.06), st.floats(-0.01, 0.01), st.floats(-0.02, 0.02)),
    rbardot=st.tuples(st.floats(-0.05, 0.05), st.floats(-0.02, 0.02), st.floats(-0.02, 0.02)),
    Fbar=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
    thrust=st.tuples(st.floats(0.0, 0.05), st.floats(0.0, 0.05)),
    legacy=st.booleans(),
    simple_yaw=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_derivative_solves_mass_matrix_exactly(params, model, reference_rhs, euler, v, w,
                                               drbar, rbardot, Fbar, thrust, legacy,
                                               simple_yaw):
    """The block-structured solve in deriv_vector reproduces the 9x9 matrix
    reference: the accelerations satisfy M a = rhs with the rhs assembled
    independently, and agree with np.linalg.solve(M, rhs)."""
    s = _state(*euler, v=v, w=w, rbar=params.rbar0 + np.array(drbar), rbardot=rbardot,
               params=params)
    Fl, Fr = thrust
    ydot = deriv_vector(s.as_vector(), Fl, Fr, np.array(Fbar), params, model,
                        legacy=legacy, simple_yaw=simple_yaw)

    rhs = reference_rhs(s, Fl, Fr, Fbar, params, model, legacy=legacy, simple_yaw=simple_yaw)
    M = mass_matrix(params, s.rbar, legacy=legacy)
    acc = np.concatenate([ydot[6:12], ydot[15:18]])
    assert np.allclose(M @ acc, rhs, atol=1e-12)
    ref = np.linalg.solve(M, rhs)
    np.testing.assert_allclose(acc, ref, rtol=1e-10, atol=1e-10 * np.max(np.abs(ref)))
    assert np.array_equal(ydot[12:15], s.rbardot)


def test_kinematic_rows(params, model):
    s = _state(phi=0.1, theta=0.2, psi=0.4, v=(0.6, 0.1, 0.05),
               w=(0.05, 0.1, 0.2), params=params)
    d = state_derivative(s, ControlInput(0.01, 0.01, np.zeros(3)), params, model)
    from blimpdyn.frames import euler_rate_matrix, rotation_body_to_inertial

    assert np.allclose(d.pdot, rotation_body_to_inertial(s.e) @ s.v)
    assert np.allclose(d.edot, euler_rate_matrix(s.e) @ s.w)
    assert np.allclose(d.rbardot, s.rbardot)


def test_planar_motion_stays_planar(sym_bundle):
    """y-symmetric state with equal thrust: no lateral accelerations."""
    p, m = sym_bundle
    s = State(
        p=np.zeros(3), e=EulerAngles(0.0, 0.15, 0.0),
        v=np.array([0.8, 0.0, 0.1]), w=np.array([0.0, 0.05, 0.0]),
        rbar=p.rbar0, rbardot=np.array([0.01, 0.0, 0.0]),
    )
    d = state_derivative(s, ControlInput(0.02, 0.02, np.zeros(3)), p, m)
    assert abs(d.vdot[1]) < 1e-10
    assert abs(d.wdot[0]) < 1e-10
    assert abs(d.wdot[2]) < 1e-10
    assert abs(d.edot[0]) < 1e-10  # roll rate
    assert abs(d.edot[2]) < 1e-10  # yaw rate


def test_mirror_symmetry_of_derivative(sym_bundle):
    """Reflecting the state through the x-O-z plane and swapping the
    thrusts mirrors the derivative."""
    p, m = sym_bundle
    s = State(
        p=np.zeros(3), e=EulerAngles(0.1, 0.15, 0.0),
        v=np.array([0.7, 0.1, 0.1]), w=np.array([0.05, 0.02, 0.2]),
        rbar=p.rbar0, rbardot=np.zeros(3),
    )
    s_m = State(
        p=np.zeros(3), e=EulerAngles(-0.1, 0.15, 0.0),
        v=np.array([0.7, -0.1, 0.1]), w=np.array([-0.05, 0.02, -0.2]),
        rbar=p.rbar0, rbardot=np.zeros(3),
    )
    Fl, Fr = 0.03, 0.01
    d = state_derivative(s, ControlInput(Fl, Fr, np.zeros(3)), p, m)
    d_m = state_derivative(s_m, ControlInput(Fr, Fl, np.zeros(3)), p, m)
    flip = np.array([1.0, -1.0, 1.0])
    assert np.allclose(d_m.vdot, flip * d.vdot, atol=1e-12)
    assert np.allclose(d_m.wdot, -flip * d.wdot, atol=1e-12)


def test_legacy_flag_changes_coupling_terms(params, model):
    s = _state(phi=0.05, theta=0.1, v=(0.7, 0.1, 0.1), w=(0.1, 0.05, 0.2),
               params=params)
    c = ControlInput(0.02, 0.02, np.zeros(3))
    full = state_derivative(s, c, params, model)
    legacy = state_derivative(s, c, params, model, legacy=True)
    assert not np.allclose(full.vdot, legacy.vdot)
    assert not np.allclose(full.wdot, legacy.wdot)


def test_gimbal_lock_raises_in_derivative(params, model):
    y = _state(theta=np.pi / 2 - 1e-4, params=params).as_vector()
    with pytest.raises(GimbalLock):
        deriv_vector(y, 0.01, 0.01, np.zeros(3), params, model)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_gimbal_lock_boundary_in_derivative(params, model, sign):
    """The guard is |theta| >= pi/2 - GIMBAL_EPS: it fires on the boundary
    and not one float inside it."""
    edge = np.pi / 2 - GIMBAL_EPS
    y = _state(theta=sign * edge, params=params).as_vector()
    with pytest.raises(GimbalLock):
        deriv_vector(y, 0.01, 0.01, np.zeros(3), params, model)
    y[4] = sign * np.nextafter(edge, 0.0)
    assert np.all(np.isfinite(deriv_vector(y, 0.01, 0.01, np.zeros(3), params, model)))


@pytest.mark.parametrize("index", [3, 4, 5])
def test_nan_euler_angle_rejected_in_derivative(params, model, index):
    y = _state(params=params).as_vector()
    y[index] = np.nan
    with pytest.raises(ValueError, match="non-finite Euler angles"):
        deriv_vector(y, 0.01, 0.01, np.zeros(3), params, model)


@pytest.mark.parametrize("v", [(0.0, 0.0, 0.0), (-0.5 * V_MIN, 0.5 * V_MIN, 0.0)])
def test_zero_aero_angles_at_rest(params, model, reference_rhs, v):
    """Below V_MIN alpha = beta = 0, so the rotational damping acts along
    the body axes; a sideways, backwards velocity would otherwise rotate it."""
    s = _state(v=v, w=(0.3, -0.2, 0.4), params=params)
    ydot = deriv_vector(s.as_vector(), 0.0, 0.0, np.zeros(3), params, model)
    rhs = reference_rhs(s, 0.0, 0.0, np.zeros(3), params, model)
    ref = np.linalg.solve(mass_matrix(params, s.rbar), rhs)
    np.testing.assert_allclose(ydot[6:12], ref[:6], rtol=1e-10, atol=1e-15)

    from blimpdyn.aero import aero_loads, loads_to_body

    a = aero_angles(np.array(v))
    assert a.alpha == 0.0 and a.beta == 0.0
    if a.V > 0.0:
        # The true flow angles of this velocity give a different torque.
        tilted = AeroAngles(np.arctan2(v[2], v[0]), np.arcsin(v[1] / a.V), a.V)
        _, T_tilted = loads_to_body(tilted, aero_loads(model, tilted, s.w, params.rho))
        _, T_rest = loads_to_body(a, aero_loads(model, a, s.w, params.rho))
        assert not np.allclose(T_tilted, T_rest)


def test_negative_thrust_rejected():
    with pytest.raises(ValueError):
        ControlInput(-0.01, 0.01)


def test_mechanical_energy_kinetic_positive(params):
    s = _state(v=(0.5, 0.1, 0.05), w=(0.1, 0.2, 0.1), params=params)
    rest = _state(v=(0, 0, 0), w=(0, 0, 0), params=params)
    assert mechanical_energy(s, params) > mechanical_energy(rest, params)
