import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_matrix import aero_angles, euler_rate_matrix, wind_to_body

from blimpdyn.frames import (
    GIMBAL_EPS,
    RAIL_LIMIT,
    V_MIN,
    AeroAngles,
    EulerAngles,
    GimbalLock,
    State,
    VehicleParams,
    aero_angles_array,
    rotation_body_to_inertial,
    wrap_angle,
)

angles = st.floats(-10.0, 10.0)
safe_pitch = st.floats(-1.2, 1.2)


def test_wrap_angle_range():
    for x in np.linspace(-20, 20, 401):
        w = wrap_angle(x)
        assert -np.pi < w <= np.pi
        assert np.isclose(np.sin(w), np.sin(x), atol=1e-12)
        assert np.isclose(np.cos(w), np.cos(x), atol=1e-12)


def test_wrap_angle_of_an_array_wraps_each_element():
    x = np.concatenate([np.linspace(-20, 20, 401), [-np.pi, np.pi, 3 * np.pi, np.nan]])
    w = wrap_angle(x)
    assert w.shape == x.shape
    assert w.tobytes() == np.array([wrap_angle(float(v)) for v in x]).tobytes()


def test_euler_angles_wraps_phi_psi_not_theta():
    e = EulerAngles(phi=3.5, theta=3.5, psi=-3.5)
    assert -np.pi < e.phi <= np.pi
    assert -np.pi < e.psi <= np.pi
    assert e.theta == 3.5


def test_euler_angles_rejects_non_finite():
    with pytest.raises(ValueError):
        EulerAngles(np.nan, 0.0, 0.0)


@given(phi=angles, theta=angles, psi=angles)
@settings(max_examples=60, deadline=None)
def test_rotation_is_special_orthogonal(phi, theta, psi):
    R = rotation_body_to_inertial(EulerAngles(phi, theta, psi))
    assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)
    assert np.isclose(np.linalg.det(R), 1.0, atol=1e-12)


def test_rotation_identity_at_zero():
    R = rotation_body_to_inertial(EulerAngles(0.0, 0.0, 0.0))
    assert np.allclose(R, np.eye(3), atol=1e-15)


def test_rotation_pure_yaw():
    R = rotation_body_to_inertial(EulerAngles(0.0, 0.0, np.pi / 2))
    assert np.allclose(R @ np.array([1.0, 0, 0]), [0, 1, 0], atol=1e-12)


@given(phi=angles, theta=safe_pitch, psi=angles)
@settings(max_examples=60, deadline=None)
def test_euler_rate_matrix_inverts_kinematics(phi, theta, psi):
    """J maps body rates to Euler rates; its inverse is the standard
    Euler-rate-to-body-rate map, so J @ J_inv = I."""
    e = EulerAngles(phi, theta, psi)
    J = euler_rate_matrix(e)
    sphi, cphi = np.sin(e.phi), np.cos(e.phi)
    sth, cth = np.sin(e.theta), np.cos(e.theta)
    J_inv = np.array(
        [
            [1.0, 0.0, -sth],
            [0.0, cphi, sphi * cth],
            [0.0, -sphi, cphi * cth],
        ]
    )
    assert np.allclose(J @ J_inv, np.eye(3), atol=1e-10)


def test_gimbal_lock_raises():
    with pytest.raises(GimbalLock):
        euler_rate_matrix(EulerAngles(0.0, np.pi / 2 - GIMBAL_EPS / 2, 0.0))


def test_aero_angles_planar_example():
    a = aero_angles([1.0, 0.0, 1.0])
    assert np.isclose(a.alpha, np.pi / 4)
    assert a.beta == 0.0
    assert np.isclose(a.V, np.sqrt(2.0))


def test_aero_angles_below_speed_floor():
    a = aero_angles([V_MIN / 10, 0.0, 0.0])
    assert a.alpha == 0.0 and a.beta == 0.0


def test_aero_angles_pure_sideslip():
    a = aero_angles([0.0, 1.0, 0.0])
    assert np.isclose(a.beta, np.pi / 2)


@pytest.mark.parametrize("v", [(1e-9, 0.0971, 0.0), (0.0, -2.0, 3e-8), (-1e-7, 0.5, 1e-7)])
def test_sideslip_near_90_degrees_is_accurate(v):
    """Within 1e-8 rad of +-90 deg sideslip both angle functions keep full
    precision; asin(v / V) lost about 1e-8 rad there."""
    u, vy, w = v
    exact = math.copysign(math.pi / 2 - math.atan(math.hypot(u, w) / abs(vy)), vy)
    assert abs(aero_angles(v).beta - exact) < 1e-15
    assert abs(aero_angles_array(np.array([v]))[1][0] - exact) < 1e-15


@given(
    alpha=st.floats(-1.3, 1.3),
    beta=st.floats(-1.2, 1.2),
    V=st.floats(0.05, 5.0),
)
@settings(max_examples=80, deadline=None)
def test_wind_frame_round_trip(alpha, beta, V):
    """Body velocity reconstructed from (alpha, beta, V) reproduces them."""
    v_b = wind_to_body(AeroAngles(alpha, beta, V)) @ np.array([V, 0.0, 0.0])
    a = aero_angles(v_b)
    assert np.isclose(a.V, V, rtol=1e-12)
    assert np.isclose(a.alpha, alpha, atol=1e-9)
    assert np.isclose(a.beta, beta, atol=1e-9)


@given(v=st.tuples(*[st.floats(-5.0, 5.0)] * 3))
@settings(max_examples=200, deadline=None)
def test_aero_angles_array_matches_scalar_reference(v):
    """Each row of `aero_angles_array` gives the angles and airspeed of the
    scalar reference to within an ulp (numpy's and the math module's atan2
    may round differently), below V_MIN too."""
    alpha, beta, V = (float(x[0]) for x in aero_angles_array(np.array([v])))
    ref = aero_angles(v)
    assert alpha == pytest.approx(ref.alpha, rel=1e-15, abs=0.0)
    assert beta == pytest.approx(ref.beta, rel=1e-15, abs=0.0)
    # The reference's np.linalg.norm squares the components, so it
    # underflows to 0 below about 1e-154 m/s; np.hypot does not.
    assert V == pytest.approx(ref.V, rel=1e-15, abs=1e-150)


def test_wind_matrix_orthonormal():
    R = wind_to_body(AeroAngles(0.3, -0.2, 1.0))
    assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)


def test_aero_angles_sideslip_validation():
    with pytest.raises(ValueError):
        AeroAngles(0.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        AeroAngles(0.0, 0.0, -1.0)


@pytest.mark.parametrize("beta, V, message", [(0.0, math.nan, "airspeed must be non-negative"),
                                              (math.nan, 1.0, "sideslip out of range")])
def test_aero_angles_rejects_a_nan_airspeed_or_sideslip(beta, V, message):
    """NaN compares false, so the domain checks are written to fail on it."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        AeroAngles(0.1, beta, V)


@pytest.mark.parametrize("alpha", [math.nan, math.inf])
def test_aero_angles_rejects_a_non_finite_angle_of_attack(alpha):
    with pytest.raises(ValueError, match="^non-finite angle of attack$"):
        AeroAngles(alpha, 0.0, 1.0)


class TestVehicleParams:
    def test_rail_position(self, params):
        """The moving mass at offset dr_x along the body x axis from its
        home, with the float adds of rbar0 + (dr_x, 0, 0)."""
        for dr_x in np.linspace(-RAIL_LIMIT, RAIL_LIMIT, 25).tolist() + [0.0, -0.0]:
            rx, ry, rz = params.rbar0.tolist()
            assert params.rail_position(dr_x).tolist() == [rx + dr_x, ry + 0.0, rz + 0.0]

    def test_bundled_mass_budget(self, params):
        assert np.isclose(params.net_mass * 1e3, 6.85, atol=0.01)
        assert np.isclose(params.total_mass, 0.10481 + 0.05408)
        assert params.net_weight > 0

    def test_reference_area_default(self, params):
        base = {
            "m": params.m, "mbar": params.mbar, "inertia": params.inertia,
            "r": params.r, "rbar0": params.rbar0, "d": params.d,
            "B": params.B, "rho": params.rho, "g": params.g,
            "V_He": params.V_He,
        }
        p = VehicleParams(**base)
        assert np.isclose(p.A_ref, params.V_He ** (2.0 / 3.0))

    @pytest.mark.parametrize("field", ["m", "mbar", "B", "rho", "g", "V_He", "d"])
    def test_positive_scalars_enforced(self, params, field):
        from dataclasses import replace

        with pytest.raises(ValueError):
            replace(params, **{field: 0.0})

    @pytest.mark.parametrize("field", ["m", "mbar", "B", "rho", "g", "V_He", "A_ref", "d",
                                       "reynolds"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_scalars_rejected(self, params, field, value):
        """nan passes both `<= 0` and `> 0` tests, so it is rejected by name."""
        from dataclasses import replace

        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            replace(params, **{field: value})

    def test_inertia_must_be_symmetric_positive_definite(self, params):
        from dataclasses import replace

        bad = params.inertia.copy()
        bad[0, 1] = 1.0
        with pytest.raises(ValueError):
            replace(params, inertia=bad)
        with pytest.raises(ValueError):
            replace(params, inertia=-params.inertia)

    def test_symmetrized_zeroes_lateral_terms(self, params):
        p = params.symmetrized()
        assert p.r[1] == 0.0 and p.rbar0[1] == 0.0
        assert p.inertia[0, 1] == 0.0 and p.inertia[1, 2] == 0.0
        assert p.r[0] == params.r[0] and p.rbar0[2] == params.rbar0[2]


def test_state_vector_round_trip():
    s = State(
        p=[1.0, 2.0, 3.0],
        e=EulerAngles(0.1, 0.2, 0.3),
        v=[0.5, 0.0, 0.1],
        w=[0.01, 0.02, 0.03],
        rbar=[0.07, 0.0, 0.24],
        rbardot=[0.001, 0.0, 0.0],
    )
    y = s.as_vector()
    assert y.shape == (18,)
    s2 = State.from_vector(y)
    assert np.allclose(s2.as_vector(), y)
