import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_kernel import reference_deriv
from reference_matrix import (
    aero_angles,
    composite_cg,
    euler_rate_matrix,
    loads_to_body,
    mass_matrix,
    reference_rhs,
    skew,
    thrust_columns,
    total_inertia,
)

from blimpdyn import dynamics
from blimpdyn.aero import aero_loads
from blimpdyn.dynamics import ControlInput, SingularMass, bind, mechanical_energy
from blimpdyn.frames import (
    GIMBAL_EPS,
    V_MIN,
    AeroAngles,
    EulerAngles,
    GimbalLock,
    State,
    rotation_body_to_inertial,
)


def _deriv(y, Fl, Fr, Fbar, params, model, legacy=False):
    """`Kernel.deriv` of a freshly bound vehicle at the packed state `y`
    (its 15 components after the position), as an 18-array."""
    return np.array(bind(params, model, legacy).deriv(
        *np.asarray(y, dtype=float).tolist()[3:], Fl, Fr,
        *np.asarray(Fbar, dtype=float).tolist()))


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


@given(
    euler=st.tuples(st.floats(-3.0, 3.0), st.floats(-1.4, 1.4), st.floats(-3.0, 3.0)),
    v=st.tuples(st.floats(-1.5, 1.5), st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
    w=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    drbar=st.tuples(st.floats(-0.06, 0.06), st.floats(-0.01, 0.01), st.floats(-0.02, 0.02)),
    rbardot=st.tuples(st.floats(-0.05, 0.05), st.floats(-0.02, 0.02), st.floats(-0.02, 0.02)),
    Fbar=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
    thrust=st.tuples(st.floats(0.0, 0.05), st.floats(0.0, 0.05)),
    legacy=st.booleans(),
)
# Sideslip 1e-8 rad short of 90 deg, where asin(v / V) lost about 1e-8 rad.
@example(euler=(0.0, 0.0, 0.0), v=(1e-9, 0.0971, 0.0), w=(0.0, 0.0, 0.0),
         drbar=(0.0, 0.0, 0.0), rbardot=(0.0, 0.0, 0.0), Fbar=(0.0, 0.0, 0.0),
         thrust=(0.0, 0.0), legacy=False)
@settings(max_examples=200, deadline=None)
def test_derivative_solves_mass_matrix_exactly(params, model, euler, v, w,
                                               drbar, rbardot, Fbar, thrust, legacy):
    """The block-structured solve of the kernel's `deriv` reproduces the 9x9
    matrix reference: the accelerations satisfy M a = rhs with the rhs
    assembled independently, and agree with np.linalg.solve(M, rhs)."""
    s = _state(*euler, v=v, w=w, rbar=params.rbar0 + np.array(drbar), rbardot=rbardot,
               params=params)
    Fl, Fr = thrust
    ydot = _deriv(s.as_vector(), Fl, Fr, Fbar, params, model, legacy)

    rhs = reference_rhs(s, Fl, Fr, Fbar, params, model, legacy=legacy)
    M = mass_matrix(params, s.rbar, legacy=legacy)
    acc = np.concatenate([ydot[6:12], ydot[15:18]])
    assert np.allclose(M @ acc, rhs, atol=1e-12)
    ref = np.linalg.solve(M, rhs)
    np.testing.assert_allclose(acc, ref, rtol=1e-10, atol=1e-10 * np.max(np.abs(ref)))
    assert np.array_equal(ydot[12:15], s.rbardot)


_EDGE = math.pi / 2 - GIMBAL_EPS
# Pitch: anywhere in (-1.6, 1.6), or on, one float inside or one float
# outside the gimbal guard at either sign.
_pitch = st.one_of(
    st.floats(-1.6, 1.6), st.floats(-1.6, 1.6), st.floats(-1.6, 1.6),
    st.tuples(st.sampled_from([1.0, -1.0]),
              st.sampled_from([_EDGE, math.nextafter(_EDGE, 0.0), math.nextafter(_EDGE, 2.0)]))
    .map(lambda sv: sv[0] * sv[1]),
)
# One Euler angle (index 3, 4 or 5 of the state) made non-finite in a
# quarter of the draws; other indices leave the state alone.
_spoil = st.tuples(st.integers(0, 11), st.sampled_from([math.nan, math.inf, -math.inf]))


def _vec(lo, hi):
    return st.tuples(*[st.floats(lo, hi)] * 3)


@given(
    pos=_vec(-50.0, 50.0),
    euler=st.tuples(st.floats(-4.0, 4.0), _pitch, st.floats(-4.0, 4.0)),
    spoil=_spoil,
    v=st.one_of(_vec(-3.0, 3.0), _vec(-1e-6, 1e-6)),
    w=_vec(-3.0, 3.0),
    drbar=st.tuples(st.floats(-0.06, 0.06), st.floats(-0.01, 0.01), st.floats(-0.02, 0.02)),
    rbardot=_vec(-0.1, 0.1),
    Fbar=_vec(-0.5, 0.5),
    thrust=st.tuples(st.floats(0.0, 0.1), st.floats(0.0, 0.1)),
    legacy=st.booleans(),
    symmetric=st.booleans(),
)
@settings(max_examples=500, deadline=None)
def test_bound_kernel_matches_unbound_reference(bundle, sym_bundle, pos, euler, spoil, v, w,
                                                drbar, rbardot, Fbar, thrust, legacy,
                                                symmetric):
    """The bound `deriv` is bitwise equal to the unbound reference kernel,
    below V_MIN and at the gimbal boundary too, and raises the same typed
    exception at the same inputs."""
    p, m = sym_bundle if symmetric else bundle
    y = [*pos, *euler, *v, *w, *(p.rbar0 + np.array(drbar)).tolist(), *rbardot]
    if spoil[0] in (3, 4, 5):
        y[spoil[0]] = spoil[1]
    Fl, Fr = thrust
    ref = _outcome(lambda: reference_deriv(np.array(y), Fl, Fr, np.array(Fbar), p, m, legacy))
    assert _outcome(lambda: bind(p, m, legacy).deriv(*y[3:], Fl, Fr, *Fbar)) == ref


def _outcome(f):
    """The bytes of what `f` returns, or the type and message it raised."""
    try:
        return np.asarray(f(), dtype=float).tobytes()
    except (ValueError, SingularMass) as exc:      # GimbalLock is a ValueError
        return type(exc), str(exc)


@pytest.fixture(scope="module")
def vehicles(bundle, sym_bundle):
    """The stock and symmetrized vehicles; the symmetrized one written with
    negative zeros in r and the inertia products; and a vehicle with a
    1e-110 kg m^2 inertia about its CB, whose rotational block has
    determinant 1e-330, which is 0.0 in floats, at rbar = 0."""
    p, m = sym_bundle
    inertia = p.inertia.copy()
    inertia[0, 1] = inertia[1, 0] = inertia[1, 2] = inertia[2, 1] = -0.0
    return {
        "stock": bundle,
        "symmetric": sym_bundle,
        "signed_zero": (replace(p, r=np.array([p.r[0], -0.0, p.r[2]]), inertia=inertia), m),
        "singular": (replace(p, r=np.zeros(3), inertia=1e-110 * np.eye(3)), m),
    }


# One call of a kernel: the index of its rbar in the example's pool, then
# the Euler angles (at the gimbal guard in some draws), one Euler angle
# spoiled, v, w, rbardot, Fbar and the thrusts.
_call = st.tuples(
    st.integers(0, 3), st.tuples(st.floats(-1.0, 1.0), _pitch, st.floats(-1.0, 1.0)), _spoil,
    _vec(-3.0, 3.0), _vec(-3.0, 3.0), _vec(-0.1, 0.1), _vec(-0.5, 0.5),
    st.tuples(st.floats(0.0, 0.1), st.floats(0.0, 0.1)),
)


@st.composite
def _pools(draw):
    """Up to four rbar positions built from at most three coordinate values
    (on a generous rail, a zero of either sign, or nan), so that positions
    often share some components and differ in others."""
    coordinate = st.one_of(st.floats(-0.3, 0.3), st.sampled_from([0.0, -0.0, math.nan]))
    values = draw(st.lists(coordinate, min_size=1, max_size=3))
    return draw(st.lists(st.tuples(*[st.sampled_from(values)] * 3), min_size=1, max_size=4))


def _c(i, theta=0.1, spoil=(0, 0.0)):
    """A scripted `_call` at pool index `i`."""
    return (i, (0.2, theta, -0.3), spoil, (0.8, 0.1, 0.1), (0.05, 0.1, -0.2),
            (0.01, 0.0, 0.0), (0.3, 0.0, -0.1), (0.02, 0.01))


def _rest(i):
    """A scripted `_call` at rest, level, under equal thrusts, where many
    terms of the derivative are signed zeros."""
    return (i, (0.0, 0.0, 0.0), (0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0),
            (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.02, 0.02))


@given(vehicle=st.sampled_from(["stock", "symmetric", "signed_zero", "singular"]),
       legacy=st.booleans(), pool=_pools(), calls=st.lists(_call, min_size=2, max_size=12))
# rbar_y flips the sign of its zero, rbar_z alone moves, rbar_x is nan twice.
@example(vehicle="signed_zero", legacy=False,
         pool=[(0.1, 0.0, 0.3), (0.1, -0.0, 0.3), (0.1, 0.0, 0.25), (math.nan, 0.0, 0.3)],
         calls=[_c(0), _c(1), _c(1), _c(2), _c(0), _c(3), _c(3), _c(0), _rest(0), _rest(1),
                _rest(0)])
# The rotational block is singular at rbar = 0: the failed rebuild must not
# leave its half-written entry under the rbar before it.
@example(vehicle="singular", legacy=False,
         pool=[(0.1, 0.02, 0.3), (0.0, -0.0, 0.0), (0.1, 0.02, 0.3)],
         calls=[_c(0), _c(1), _c(0), _c(1), _c(1), _c(2), _c(1, theta=1.6), _c(0),
                _c(1, spoil=(4, math.nan)), _c(0)])
@settings(max_examples=200, deadline=None)
def test_one_kernel_matches_reference_over_a_call_sequence(vehicles, vehicle, legacy, pool,
                                                           calls):
    """One bound kernel, called on a sequence of states that repeats rbar,
    changes it, flips the sign of a zero component, passes nan and raises,
    stays bitwise equal to the unbound reference at every call: the entry
    it keeps per rbar is never stale."""
    p, m = vehicles[vehicle]
    deriv = bind(p, m, legacy).deriv
    for k, (i, euler, spoil, v, w, rbardot, Fbar, thrust) in enumerate(calls):
        y = [0.0, 0.0, 0.0, *euler, *v, *w, *pool[i % len(pool)], *rbardot]
        if spoil[0] in (3, 4, 5):
            y[spoil[0]] = spoil[1]
        ref = _outcome(lambda: reference_deriv(np.array(y), *thrust, np.array(Fbar), p, m,
                                               legacy))
        assert _outcome(lambda: deriv(*y[3:], *thrust, *Fbar)) == ref, f"call {k}"


def test_mass_terms_ignore_the_sign_of_a_zero(vehicles):
    """`deriv` reuses its entry at an rbar equal as floats, so the mass terms
    at components of either zero sign must be the same bits, also for a
    vehicle given with negative zeros in r and the inertia products."""
    for p, m in vehicles.values():
        mass_terms = bind(p, m).mass_terms
        for rbar in itertools.product((0.1, 0.0, -0.0), (0.0, -0.0), (0.3, 0.0, -0.0)):
            l_g, Itot = mass_terms(*rbar)
            l_plus, I_plus = mass_terms(*[x + 0.0 for x in rbar])
            assert np.array(l_g + Itot).tobytes() == np.array(l_plus + I_plus).tobytes()


@pytest.mark.parametrize("legacy", [False, True])
def test_deriv_rebuilds_its_entry_only_when_rbar_moves(bundle, monkeypatch, legacy):
    """A run of calls at one rbar builds the mass terms once; each change of
    any component rebuilds them, and a nan component rebuilds at every call."""
    calls = []
    real = dynamics._bind_balance

    def counting(params, legacy):
        mass_terms, *rest = real(params, legacy)
        return (lambda *rbar: calls.append(rbar) or mass_terms(*rbar)), *rest

    monkeypatch.setattr(dynamics, "_bind_balance", counting)
    p, m = bundle
    deriv = bind(p, m, legacy).deriv
    y = [0.0, 0.0, 0.0, 0.1, 0.1, 0.0, 0.8, 0.0, 0.1, 0.0, 0.05, 0.0] + [0.0] * 6
    # From `start`, rbar_z moves, then rbar_x, then rbar_y; rbar_x turns nan.
    start, dz, dx, dy, nan = ((0.1, 0.0, 0.3), (0.1, 0.0, 0.2), (0.2, 0.0, 0.2),
                              (0.2, 0.1, 0.2), (math.nan, 0.1, 0.2))
    for k, rbar in enumerate([start, start, start, dz, dx, dy, dy, nan, nan, dy]):
        y[12:15] = rbar
        y[6] = 0.8 + 0.01 * k
        deriv(*y[3:], 0.02, 0.02, 0.0, 0.0, 0.0)
    assert [str(r) for r in calls] == [str(r) for r in [start, dz, dx, dy, nan, nan, dy]]


@pytest.mark.parametrize("legacy", [False, True])
def test_bound_kernel_matches_unbound_reference_on_random_states(bundle, sym_bundle, legacy):
    """Bitwise agreement on 2,000 uniformly random states with nonzero Fbar:
    a reordered sum changes the last bit of a few percent of such states,
    which the simple floats hypothesis favours rarely expose."""
    rng = np.random.default_rng(20261018)
    for k in range(2000):
        p, m = sym_bundle if k % 4 == 3 else bundle
        y = rng.uniform(-1.0, 1.0, 18)
        y[12:15] = p.rbar0 + rng.uniform(-0.06, 0.06, 3) * [1.0, 0.2, 0.3]
        Fbar = rng.uniform(-0.5, 0.5, 3)
        Fl, Fr = rng.uniform(0.0, 0.1, 2).tolist()
        got = bind(p, m, legacy).deriv(*y[3:].tolist(), Fl, Fr, *Fbar.tolist())
        assert np.array(got).tobytes() == reference_deriv(y, Fl, Fr, Fbar, p, m, legacy).tobytes()


@pytest.mark.parametrize("legacy", [False, True])
def test_accelerations_are_the_block_solve_of_deriv(bundle, sym_bundle, legacy):
    """`accelerations` of the balance plus the aero loads is the (vdot, wdot)
    of the unbound reference bitwise, with the moving mass at rest and not
    accelerating; one kernel alternates it with `deriv` over three rbar
    values, so the entry the two closures share is never stale."""
    rng = np.random.default_rng(20261020)
    for p, m in (bundle, sym_bundle):
        kernel = bind(p, m, legacy)
        pool = [p.rbar0 + rng.uniform(-0.06, 0.06, 3) * [1.0, 0.2, 0.3] for _ in range(3)]
        for k in range(300):
            rbar = pool[rng.integers(3)].tolist()
            y = rng.uniform(-1.0, 1.0, 18)
            y[12:15], y[15:18] = rbar, 0.0
            Fl, Fr = rng.uniform(0.0, 0.1, 2).tolist()
            ref = reference_deriv(y, Fl, Fr, np.zeros(3), p, m, legacy)
            if k % 2:
                assert np.array(kernel.deriv(*y[3:].tolist(), Fl, Fr, 0.0, 0.0, 0.0)).tobytes() \
                    == ref.tobytes()
                continue
            phi, theta, u, v, w = y[3], y[4], *y[6:9]
            sth, cth = math.sin(theta), math.cos(theta)
            rest = kernel.balance(kernel.mass_terms(*rbar), y[6:9].tolist(), y[9:12].tolist(),
                                  (-sth, cth * math.sin(phi), cth * math.cos(phi)), rbar,
                                  (0.0, 0.0, 0.0), Fl, Fr)
            aero = kernel.aero.body_loads(math.atan2(w, u), math.atan2(v, math.hypot(u, w)),
                                          math.sqrt(u * u + v * v + w * w), *y[9:12])
            got, = kernel.accelerations(*rbar, [[a + b for a, b in zip(rest, aero)]])
            assert np.array(got).tobytes() == ref[6:12].tobytes()


def test_kinematic_rows(params, model):
    s = _state(phi=0.1, theta=0.2, psi=0.4, v=(0.6, 0.1, 0.05),
               w=(0.05, 0.1, 0.2), params=params)
    d = _deriv(s.as_vector(), 0.01, 0.01, np.zeros(3), params, model)
    assert np.allclose(d[0:3], rotation_body_to_inertial(s.e) @ s.v)
    assert np.allclose(d[3:6], euler_rate_matrix(s.e) @ s.w)
    assert np.allclose(d[12:15], s.rbardot)


def test_planar_motion_stays_planar(sym_bundle):
    """y-symmetric state with equal thrust: no lateral accelerations."""
    p, m = sym_bundle
    s = State(
        p=np.zeros(3), e=EulerAngles(0.0, 0.15, 0.0),
        v=np.array([0.8, 0.0, 0.1]), w=np.array([0.0, 0.05, 0.0]),
        rbar=p.rbar0, rbardot=np.array([0.01, 0.0, 0.0]),
    )
    d = _deriv(s.as_vector(), 0.02, 0.02, np.zeros(3), p, m)
    assert abs(d[7]) < 1e-10   # vdot_y
    assert abs(d[9]) < 1e-10   # wdot_x
    assert abs(d[11]) < 1e-10  # wdot_z
    assert abs(d[3]) < 1e-10   # roll rate
    assert abs(d[5]) < 1e-10   # yaw rate


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
    d = _deriv(s.as_vector(), Fl, Fr, np.zeros(3), p, m)
    d_m = _deriv(s_m.as_vector(), Fr, Fl, np.zeros(3), p, m)
    flip = np.array([1.0, -1.0, 1.0])
    assert np.allclose(d_m[6:9], flip * d[6:9], atol=1e-12)
    assert np.allclose(d_m[9:12], -flip * d[9:12], atol=1e-12)


def test_legacy_flag_changes_coupling_terms(params, model):
    s = _state(phi=0.05, theta=0.1, v=(0.7, 0.1, 0.1), w=(0.1, 0.05, 0.2),
               params=params)
    full = _deriv(s.as_vector(), 0.02, 0.02, np.zeros(3), params, model)
    legacy = _deriv(s.as_vector(), 0.02, 0.02, np.zeros(3), params, model, legacy=True)
    assert not np.allclose(full[6:9], legacy[6:9])
    assert not np.allclose(full[9:12], legacy[9:12])


def test_gimbal_lock_raises_in_derivative(params, model):
    y = _state(theta=np.pi / 2 - 1e-4, params=params).as_vector()
    with pytest.raises(GimbalLock):
        _deriv(y, 0.01, 0.01, np.zeros(3), params, model)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_gimbal_lock_boundary_in_derivative(params, model, sign):
    """The guard is |theta| >= pi/2 - GIMBAL_EPS: it fires on the boundary
    and not one float inside it."""
    edge = np.pi / 2 - GIMBAL_EPS
    y = _state(theta=sign * edge, params=params).as_vector()
    with pytest.raises(GimbalLock):
        _deriv(y, 0.01, 0.01, np.zeros(3), params, model)
    y[4] = sign * np.nextafter(edge, 0.0)
    assert np.all(np.isfinite(_deriv(y, 0.01, 0.01, np.zeros(3), params, model)))


@pytest.mark.parametrize("index", [3, 4, 5])
def test_nan_euler_angle_rejected_in_derivative(params, model, index):
    y = _state(params=params).as_vector()
    y[index] = np.nan
    with pytest.raises(ValueError, match="non-finite Euler angles"):
        _deriv(y, 0.01, 0.01, np.zeros(3), params, model)


@pytest.mark.parametrize("v", [(0.0, 0.0, 0.0), (-0.5 * V_MIN, 0.5 * V_MIN, 0.0)])
def test_zero_aero_angles_at_rest(params, model, v):
    """Below V_MIN alpha = beta = 0, so the rotational damping acts along
    the body axes; a sideways, backwards velocity would otherwise rotate it."""
    s = _state(v=v, w=(0.3, -0.2, 0.4), params=params)
    ydot = _deriv(s.as_vector(), 0.0, 0.0, np.zeros(3), params, model)
    rhs = reference_rhs(s, 0.0, 0.0, np.zeros(3), params, model)
    ref = np.linalg.solve(mass_matrix(params, s.rbar), rhs)
    np.testing.assert_allclose(ydot[6:12], ref[:6], rtol=1e-10, atol=1e-15)

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


@pytest.mark.parametrize("thrusts", [(math.nan, 0.01), (math.inf, 0.01), (0.01, math.nan),
                                     (0.01, -math.inf)])
def test_non_finite_thrust_rejected(thrusts):
    """nan passes `F < 0`, so the range is tested as 0 <= F < inf."""
    with pytest.raises(ValueError, match="thrusts must be finite and non-negative"):
        ControlInput(*thrusts)
    assert ControlInput(0.0, 0.02).Fr == 0.02


def test_control_input_has_no_moving_mass_input():
    """`linearize` freezes the moving mass, so a control input is the two
    thrusts alone; a third (moving-mass) argument is refused, not dropped."""
    with pytest.raises(TypeError):
        ControlInput(0.02, 0.02, [math.nan, 0.0, 0.0])


def test_mechanical_energy_kinetic_positive(params):
    s = _state(v=(0.5, 0.1, 0.05), w=(0.1, 0.2, 0.1), params=params)
    rest = _state(v=(0, 0, 0), w=(0, 0, 0), params=params)
    assert mechanical_energy(s, params) > mechanical_energy(rest, params)


def test_mechanical_energy_with_the_moving_mass_in_motion(params):
    """The energy is that of the stationary body plus the moving point mass
    at its full velocity v + w x rbar + rbardot, written out here without
    the mass terms; with rbardot = 0 it is also x.M x / 2 of the 9x9 mass
    matrix, x = (v, w, rbardot), plus the same potential."""
    rng = np.random.default_rng(11)
    for k in range(50):
        s = State(p=rng.uniform(-2.0, 2.0, 3), e=EulerAngles(*rng.uniform(-1.0, 1.0, 3)),
                  v=rng.uniform(-1.0, 1.0, 3), w=rng.uniform(-1.0, 1.0, 3),
                  rbar=params.rbar0 + rng.uniform(-0.06, 0.06, 3),
                  rbardot=rng.uniform(-0.2, 0.2, 3) if k % 5 else np.zeros(3))
        R = rotation_body_to_inertial(s.e)
        body = (0.5 * params.m * s.v @ s.v + params.m * s.v @ np.cross(s.w, params.r)
                + 0.5 * s.w @ params.inertia @ s.w)
        u_mass = s.v + np.cross(s.w, s.rbar) + s.rbardot
        # z is positive down: the weights lose height energy as z grows and
        # the buoyancy, acting at the CB, gains it.
        pe = (-params.m * params.g * (s.p[2] + (R @ params.r)[2])
              - params.mbar * params.g * (s.p[2] + (R @ s.rbar)[2])
              + params.B * s.p[2])
        energy = mechanical_energy(s, params)
        assert energy == pytest.approx(body + 0.5 * params.mbar * u_mass @ u_mass + pe,
                                       rel=1e-12, abs=1e-14)
        if not s.rbardot.any():
            x = np.concatenate([s.v, s.w, s.rbardot])
            assert energy == pytest.approx(0.5 * x @ mass_matrix(params, s.rbar) @ x + pe,
                                           rel=1e-13, abs=1e-15)

