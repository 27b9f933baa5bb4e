"""The matrix form of the model: the reference that the scalar kernel of
`dynamics.bind` and the array frames and load functions are compared
against.

- `skew`, `composite_cg`, `total_inertia`, `mass_matrix` and
  `thrust_columns`: the 9x9 mass matrix M of the coupled rigid body and
  moving mass, and its raw input map.
- `reference_rhs`: the right-hand side of M a = rhs, assembled with
  np.cross and the wind-to-body rotation.
- `euler_rate_matrix`, `wind_matrix`, `wind_to_body` and the scalar
  `aero_angles` (the reference for `frames.aero_angles_array`).
- `loads_to_body`, and `eval_coeffs` with its `Coeffs`: the coefficients
  and the loads at one point.
- `steady_residual`: the nondimensional steady residual of a candidate
  solution.
"""

from dataclasses import dataclass
import math

import numpy as np

from blimpdyn.aero import STALL_ALPHA, _polynomials, aero_loads
from blimpdyn.dynamics import bind
from blimpdyn.equilibria import _raw_residual, _scales
from blimpdyn.frames import GIMBAL_EPS, V_MIN, AeroAngles, GimbalLock, rotation_body_to_inertial


def skew(v):
    """Cross-product matrix: skew(a) @ b == a x b."""
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


def composite_cg(params, rbar):
    """First mass moment l_g = m r + mbar rbar and the composite CG r_g."""
    rbar = np.asarray(rbar, dtype=float).reshape(3)
    l_g = params.m * params.r + params.mbar * rbar
    return l_g, l_g / params.total_mass


def total_inertia(params, rbar):
    """Inertia about the CB including the moving point mass."""
    S = skew(rbar)
    return params.inertia - params.mbar * (S @ S)


def mass_matrix(params, rbar, legacy=False):
    """The 9x9 block mass matrix M; callers solve M x = rhs.

    Blocks:  [(m+mbar) I3   -lg^x        mbar I3 ]
             [ lg^x         I - mbar Sr^2  mbar Sr]
             [ 0            0            I3      ]
    """
    rbar = np.asarray(rbar, dtype=float).reshape(3)
    l_g, _ = composite_cg(params, rbar)
    Sl = skew(l_g)
    Sr = skew(rbar)
    M = np.zeros((9, 9))
    M[0:3, 0:3] = params.total_mass * np.eye(3)
    M[3:6, 3:6] = params.inertia - params.mbar * (Sr @ Sr)
    M[6:9, 6:9] = np.eye(3)
    M[0:3, 6:9] = params.mbar * np.eye(3)
    M[3:6, 6:9] = params.mbar * Sr
    if not legacy:
        M[0:3, 3:6] = -Sl
        M[3:6, 0:3] = Sl
    return M


def thrust_columns(rbar, d):
    """Raw 9x5 input map: columns for Fl, Fr, and the Fbar channel.

    The yaw-moment lever arm of each propeller is the lateral moving-mass
    offset rbar_y plus or minus the propeller offset d.
    """
    cols = np.zeros((9, 5))
    cols[0, 0] = cols[0, 1] = 1.0
    cols[4, 0] = cols[4, 1] = rbar[2]
    cols[5, 0] = rbar[1] + d
    cols[5, 1] = rbar[1] - d
    cols[6:9, 2:5] = np.eye(3)
    return cols


def euler_rate_matrix(e):
    """Matrix J relating body rates to Euler-angle rates: edot = J @ omega."""
    if abs(e.theta) >= np.pi / 2 - GIMBAL_EPS:
        raise GimbalLock(f"pitch angle {e.theta:.4f} rad too close to +-pi/2")
    cphi, sphi = np.cos(e.phi), np.sin(e.phi)
    cth, tth = np.cos(e.theta), np.tan(e.theta)
    return np.array(
        [
            [1.0, sphi * tth, cphi * tth],
            [0.0, cphi, -sphi],
            [0.0, sphi / cth, cphi / cth],
        ]
    )


def aero_angles(v):
    """Aerodynamic angles and airspeed from a body-frame velocity vector.

    alpha = atan2(w, u), beta = atan2(v_y, hypot(u, w)), which stays well
    conditioned at |beta| near 90 deg.  For V below V_MIN both
    angles are defined as zero; the aerodynamic loads vanish with V^2 anyway.
    """
    v = np.asarray(v, dtype=float).reshape(3)
    V = float(np.linalg.norm(v))
    if V < V_MIN:
        return AeroAngles(0.0, 0.0, V)
    alpha = math.atan2(v[2], v[0])
    beta = math.atan2(v[1], math.hypot(v[0], v[2]))
    return AeroAngles(alpha, beta, V)


def wind_matrix(alpha, beta):
    """Wind-to-body rotation from raw angles (no range validation)."""
    ca, sa = np.cos(alpha), np.sin(alpha)
    cb, sb = np.cos(beta), np.sin(beta)
    return np.array(
        [
            [ca * cb, -ca * sb, -sa],
            [sb, cb, 0.0],
            [sa * cb, -sa * sb, ca],
        ]
    )


def wind_to_body(a):
    """Rotation matrix from the velocity (wind) frame to the body frame."""
    return wind_matrix(a.alpha, a.beta)


@dataclass(frozen=True)
class Coeffs:
    """The six dimensionless coefficients at one (alpha, beta)."""

    cd: float
    cs: float
    cl: float
    cm1: float
    cm2: float
    cm3: float
    stalled: bool
    beta_exceeded: bool

    def as_array(self):
        return np.array([self.cd, self.cs, self.cl, self.cm1, self.cm2, self.cm3])


def eval_coeffs(model, alpha, beta):
    """Evaluate the six coefficient polynomials at (alpha, beta) [rad]."""
    a, b = float(alpha), float(beta)
    cd, cs, cl, cm1, cm2, cm3 = _polynomials(model)[0](a, b)
    return Coeffs(
        cd=cd, cs=cs, cl=cl, cm1=cm1, cm2=cm2, cm3=cm3,
        stalled=abs(a) > STALL_ALPHA,
        beta_exceeded=abs(b) > model.beta_limit,
    )


def loads_to_body(a, loads):
    """Resolve wind-frame loads into body-frame force and torque vectors."""
    R = wind_to_body(a)
    F = R @ np.array([-loads.D, loads.S, -loads.L])
    T = R @ np.array([loads.M1, loads.M2, loads.M3])
    return F, T


def reference_rhs(state, Fl, Fr, Fbar, params, model, legacy=False, aero=True):
    """Right-hand side of the 9x9 system M a = rhs, assembled in matrix form
    with np.cross, `aero_loads` and `loads_to_body`: the reference that the
    scalar balance kernel must reproduce.  `aero=False` leaves the
    aerodynamic loads out."""
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


def steady_residual(sol, control, rbar, params, model):
    """Nondimensional 6-vector steady residual of a candidate solution."""
    rbar = np.asarray(rbar, dtype=float).reshape(3)
    x = np.array([sol.theta, sol.phi, sol.psidot, sol.V, sol.alpha, sol.beta])
    kernel = bind(params, model)
    raw = np.asarray(_raw_residual(x, control.Fl, control.Fr, rbar, kernel.mass_terms(*rbar),
                                   kernel))
    fscale, tscale = _scales(params, rbar)
    return np.concatenate([raw[:3] / fscale, raw[3:] / tscale])
