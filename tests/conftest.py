import numpy as np
import pytest

from blimpdyn import load_bundled
from blimpdyn.frames import GF_TO_N


@pytest.fixture(scope="session")
def bundle():
    """Stock (VehicleParams, AeroModel) pair."""
    return load_bundled()


@pytest.fixture(scope="session")
def params(bundle):
    return bundle[0]


@pytest.fixture(scope="session")
def model(bundle):
    return bundle[1]


@pytest.fixture(scope="session")
def sym_bundle(bundle):
    """The y-symmetric idealization used by reflection-symmetry tests."""
    p, m = bundle
    return p.symmetrized(), m.symmetrized()


@pytest.fixture(scope="session")
def gf():
    return GF_TO_N


def _reference_rhs(state, Fl, Fr, Fbar, params, model, legacy=False, aero=True):
    """Right-hand side of the 9x9 system M a = rhs, assembled in matrix form
    with np.cross, `aero_loads` and `loads_to_body`: the reference that the
    scalar balance kernel must reproduce.  `aero=False` leaves the
    aerodynamic loads out."""
    from blimpdyn.aero import aero_loads, loads_to_body
    from blimpdyn.dynamics import composite_cg, thrust_columns, total_inertia
    from blimpdyn.frames import aero_angles, rotation_body_to_inertial

    s = state
    gcol = rotation_body_to_inertial(s.e).T[:, 2]
    l_g, _ = composite_cg(params, s.rbar)
    f = (params.total_mass * np.cross(s.v, s.w)
         + params.net_weight * gcol
         + 2.0 * params.mbar * np.cross(s.rbardot, s.w))
    t = (np.cross(total_inertia(params, s.rbar) @ s.w, s.w)
         + np.cross(l_g, params.g * gcol)
         + 2.0 * params.mbar * np.cross(s.rbar, np.cross(s.rbardot, s.w)))
    if not legacy:
        f = f + np.cross(np.cross(s.w, l_g), s.w)
        t = t + np.cross(l_g, np.cross(s.v, s.w))
    if aero:
        a = aero_angles(s.v)
        F_aero, T_aero = loads_to_body(a, aero_loads(model, a, s.w, params.rho))
        f = f + F_aero
        t = t + T_aero
    rhs = np.concatenate([f, t, np.zeros(3)])
    u = np.concatenate([[Fl, Fr], np.asarray(Fbar, dtype=float)])
    return rhs + thrust_columns(s.rbar, params.d) @ u


@pytest.fixture(scope="session")
def reference_rhs():
    """The matrix-form generalized force (see `_reference_rhs`)."""
    return _reference_rhs
