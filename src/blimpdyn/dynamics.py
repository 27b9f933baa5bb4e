"""Nonlinear 6-DOF dynamics with moving-mass actuation.

`bind(params, model, legacy)` binds one vehicle and returns its `Kernel`:
closures over the parameter and aero-model constants that hold the single
copy of the mass terms, the generalized force and torque (the balance),
the balance tangents and the state derivative, all in scalar float
arithmetic.  The integrator, the steady-state residual and Jacobian and
the linearization bind once and call the kernel; `deriv_vector`,
`state_derivative`, `_balance` and `_balance_tangents` bind and call it
per call.  The 9x9 mass matrix coupling body acceleration to moving-mass
acceleration is kept in matrix form as the reference (`mass_matrix`,
`thrust_columns`); the derivative solves the same system by its block
structure, never inverting it.
"""

from dataclasses import dataclass, field
import math
from typing import Callable, NamedTuple

import numpy as np

from . import aero as aeromod
from .frames import GIMBAL_EPS, V_MIN, GimbalLock, rotation_body_to_inertial


class SingularMass(RuntimeError):
    """The mass-matrix solve failed (should not occur for valid params)."""


@dataclass(frozen=True)
class ControlInput:
    """Propeller thrusts [N] and commanded moving-mass acceleration [m/s^2]."""

    Fl: float
    Fr: float
    Fbar: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        object.__setattr__(self, "Fbar", np.asarray(self.Fbar, dtype=float).reshape(3))
        if self.Fl < 0 or self.Fr < 0:
            raise ValueError("thrusts must be non-negative")


@dataclass(frozen=True)
class StateDerivative:
    pdot: np.ndarray
    edot: np.ndarray
    vdot: np.ndarray
    wdot: np.ndarray
    rbardot: np.ndarray
    rbarddot: np.ndarray

    def as_vector(self):
        return np.concatenate(
            [self.pdot, self.edot, self.vdot, self.wdot, self.rbardot, self.rbarddot]
        )


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


def _solve3(a, b, c, d, e, f, g, h, i, x, y, z):
    """Solve [[a b c] [d e f] [g h i]] u = (x, y, z) by the adjugate."""
    A, B, C = e * i - f * h, f * g - d * i, d * h - e * g
    det = a * A + b * B + c * C
    if det == 0.0:
        raise SingularMass("singular rotational block of the mass matrix")
    return (
        (A * x + (c * h - b * i) * y + (b * f - c * e) * z) / det,
        (B * x + (a * i - c * g) * y + (c * d - a * f) * z) / det,
        (C * x + (b * g - a * h) * y + (a * e - b * d) * z) / det,
    )


def _bind_balance(params, legacy):
    """The mass terms, the balance and its tangents of `params`, as three
    closures over its constants (see `Kernel`)."""
    m, mbar = params.m, params.mbar
    r0x, r0y, r0z = params.r.tolist()
    (Ixx, Ixy, Ixz), (Iyx, Iyy, Iyz), (Izx, Izy, Izz) = params.inertia.tolist()
    m_tot, W, g, d = params.total_mass, params.net_weight, params.g, params.d
    mbar2 = 2.0 * mbar

    def mass_terms(rx, ry, rz):
        """First mass moment l_g and total inertia Itot (row-major) at the
        moving-mass position (rx, ry, rz), as floats."""
        # Itot = I - mbar Sr Sr = I + mbar (|r|^2 I - r r^T)
        r2 = rx * rx + ry * ry + rz * rz
        return (
            (m * r0x + mbar * rx, m * r0y + mbar * ry, m * r0z + mbar * rz),
            (
                Ixx + mbar * (r2 - rx * rx), Ixy - mbar * rx * ry, Ixz - mbar * rx * rz,
                Iyx - mbar * ry * rx, Iyy + mbar * (r2 - ry * ry), Iyz - mbar * ry * rz,
                Izx - mbar * rz * rx, Izy - mbar * rz * ry, Izz + mbar * (r2 - rz * rz),
            ),
        )

    def balance(terms, v, w, gcol, rbar, rbardot, Fl, Fr):
        """Generalized force and torque, aerodynamics and the Fbar channel
        excluded, as six floats (fx, fy, fz, tx, ty, tz).

        This is the first six rows of the right-hand side of M a = rhs
        without the aero loads: Coriolis and centripetal terms, net weight,
        the gravity torque of the composite CG, the moving-mass velocity
        terms and the propeller thrusts (the first two columns of
        `thrust_columns`).  `legacy` drops the CG-offset coupling terms.
        `terms` is `mass_terms(*rbar)`; `v`, `w`, `gcol` (the inertial
        down axis in body axes), `rbar` and `rbardot` are 3-sequences of
        floats.
        """
        vx, vy, vz = v
        wx, wy, wz = w
        gx, gy, gz = gcol
        rx, ry, rz = rbar
        sx, sy, sz = rbardot
        (lx, ly, lz), (Ixx, Ixy, Ixz, Iyx, Iyy, Iyz, Izx, Izy, Izz) = terms
        thrust = Fl + Fr

        cx, cy, cz = vy * wz - vz * wy, vz * wx - vx * wz, vx * wy - vy * wx      # v x w
        dx, dy, dz = sy * wz - sz * wy, sz * wx - sx * wz, sx * wy - sy * wx      # rbardot x w
        hx = Ixx * wx + Ixy * wy + Ixz * wz                                       # Itot w
        hy = Iyx * wx + Iyy * wy + Iyz * wz
        hz = Izx * wx + Izy * wy + Izz * wz

        fx = m_tot * cx + W * gx + mbar2 * dx + thrust
        fy = m_tot * cy + W * gy + mbar2 * dy
        fz = m_tot * cz + W * gz + mbar2 * dz
        tx = hy * wz - hz * wy + g * (ly * gz - lz * gy) + mbar2 * (ry * dz - rz * dy)
        ty = hz * wx - hx * wz + g * (lz * gx - lx * gz) + mbar2 * (rz * dx - rx * dz) + rz * thrust
        tz = (hx * wy - hy * wx + g * (lx * gy - ly * gx) + mbar2 * (rx * dy - ry * dx)
              + ry * thrust + d * (Fl - Fr))
        if not legacy:
            ex, ey, ez = wy * lz - wz * ly, wz * lx - wx * lz, wx * ly - wy * lx  # w x l_g
            fx += ey * wz - ez * wy                                               # (w x l_g) x w
            fy += ez * wx - ex * wz
            fz += ex * wy - ey * wx
            tx += ly * cz - lz * cy                                               # l_g x (v x w)
            ty += lz * cx - lx * cz
            tz += lx * cy - ly * cx
        return fx, fy, fz, tx, ty, tz

    def balance_tangents(terms, v, w, gcol, tangents):
        """Directional derivatives of the full-model `balance` at
        rbardot = 0 as `v`, `w` and `gcol` move along each (dv, dw, dg) of
        `tangents`; a list of 6-tuples of floats, one per tangent.

        With rbardot = 0 every term is bilinear in (v, w) or linear in
        gcol, so this is the product rule applied term by term; the thrusts
        and the moving-mass position are fixed and drop out.  The steady
        solvers use the full model, so `legacy` does not apply here.
        """
        vx, vy, vz = v
        wx, wy, wz = w
        (lx, ly, lz), (Ixx, Ixy, Ixz, Iyx, Iyy, Iyz, Izx, Izy, Izz) = terms
        hx = Ixx * wx + Ixy * wy + Ixz * wz                                       # Itot w
        hy = Iyx * wx + Iyy * wy + Iyz * wz
        hz = Izx * wx + Izy * wy + Izz * wz
        ex, ey, ez = wy * lz - wz * ly, wz * lx - wx * lz, wx * ly - wy * lx      # w x l_g

        out = []
        for (ux, uy, uz), (px, py, pz), (gx, gy, gz) in tangents:
            cx = uy * wz - uz * wy + vy * pz - vz * py                            # d(v x w)
            cy = uz * wx - ux * wz + vz * px - vx * pz
            cz = ux * wy - uy * wx + vx * py - vy * px
            kx = Ixx * px + Ixy * py + Ixz * pz                                   # Itot dw
            ky = Iyx * px + Iyy * py + Iyz * pz
            kz = Izx * px + Izy * py + Izz * pz
            qx, qy, qz = py * lz - pz * ly, pz * lx - px * lz, px * ly - py * lx  # dw x l_g
            out.append((
                m_tot * cx + W * gx + qy * wz - qz * wy + ey * pz - ez * py,
                m_tot * cy + W * gy + qz * wx - qx * wz + ez * px - ex * pz,
                m_tot * cz + W * gz + qx * wy - qy * wx + ex * py - ey * px,
                ky * wz + hy * pz - kz * wy - hz * py + g * (ly * gz - lz * gy) + ly * cz - lz * cy,
                kz * wx + hz * px - kx * wz - hx * pz + g * (lz * gx - lx * gz) + lz * cx - lx * cz,
                kx * wy + hx * py - ky * wx - hy * px + g * (lx * gy - ly * gx) + lx * cy - ly * cx,
            ))
        return out

    return mass_terms, balance, balance_tangents


class Kernel(NamedTuple):
    """The dynamics of one vehicle, as closures over its constants (see
    `bind`)."""

    aero: aeromod.AeroKernel     # body loads of the model at params.rho
    mass_terms: Callable         # (rx, ry, rz) -> l_g, Itot
    balance: Callable            # (terms, v, w, gcol, rbar, rbardot, Fl, Fr) -> 6 floats
    balance_tangents: Callable   # (terms, v, w, gcol, tangents) -> list of 6-tuples
    deriv: Callable              # (y, Fl, Fr, bx, by, bz) -> 18 floats


def bind(params, model, legacy=False):
    """Bind a vehicle once; returns its `Kernel`.

    The parameters and the aero model are read once, into locals of the
    kernel's closures, so the integrator, the steady solvers and the
    linearization pay no attribute lookup, array conversion or dataclass
    construction per evaluation.  The kernel holds the single copy of the
    mass terms, the balance, its tangents and the state derivative.
    `legacy` drops the CG-offset coupling terms (the balance tangents are
    those of the full model).
    """
    mass_terms, balance, balance_tangents = _bind_balance(params, legacy)
    aero = aeromod.bind(model, params.rho)
    body_loads = aero.body_loads
    mbar, m_tot = params.mbar, params.total_mass
    pitch_limit = math.pi / 2 - GIMBAL_EPS
    cos, sin, tan, sqrt = math.cos, math.sin, math.tan, math.sqrt
    atan2, asin, isfinite = math.atan2, math.asin, math.isfinite

    def deriv(y, Fl, Fr, bx, by, bz):
        """State derivative of the packed 18-state `y` (a sequence of
        floats) under thrusts Fl, Fr and moving-mass acceleration
        (bx, by, bz), as a tuple of 18 floats.

        Solves M a = rhs by the block structure of `mass_matrix`.  Its last
        block row is [0 0 I], so the moving-mass acceleration is Fbar
        exactly; with f and t the force and torque less the Fbar reaction,
        the rotational block reduces by Schur complement to the 3x3 system

            (Itot + Sl Sl / m_tot) wdot = t - l_g x f / m_tot,
            vdot = (f + l_g x wdot) / m_tot,

        whose matrix is the inertia about the composite CG.  The legacy
        model has no l_g coupling, so there the blocks decouple.
        """
        (_, _, _, phi, theta, psi, u, v, w, p, q, r,
         rx, ry, rz, sx, sy, sz) = y
        if abs(theta) >= pitch_limit:
            raise GimbalLock(f"pitch angle {theta:.4f} rad too close to +-pi/2")
        if not (isfinite(phi) and isfinite(theta) and isfinite(psi)):
            raise ValueError("non-finite Euler angles")
        cphi, sphi = cos(phi), sin(phi)
        cth, sth = cos(theta), sin(theta)
        cpsi, spsi = cos(psi), sin(psi)
        tth = tan(theta)

        V = sqrt(u * u + v * v + w * w)
        if V < V_MIN:
            alpha = beta = 0.0
        else:
            alpha = atan2(w, u)
            beta = asin(min(1.0, max(-1.0, v / V)))
        fax, fay, faz, tax, tay, taz = body_loads(alpha, beta, V, p, q, r)
        terms = mass_terms(rx, ry, rz)
        fx, fy, fz, tx, ty, tz = balance(
            terms, (u, v, w), (p, q, r), (-sth, cth * sphi, cth * cphi), (rx, ry, rz),
            (sx, sy, sz), Fl, Fr,
        )

        fx += fax - mbar * bx
        fy += fay - mbar * by
        fz += faz - mbar * bz
        tx += tax - mbar * (ry * bz - rz * by)
        ty += tay - mbar * (rz * bx - rx * bz)
        tz += taz - mbar * (rx * by - ry * bx)

        (lx, ly, lz), (Kxx, Kxy, Kxz, Kyx, Kyy, Kyz, Kzx, Kzy, Kzz) = terms
        if legacy:
            wdx, wdy, wdz = _solve3(Kxx, Kxy, Kxz, Kyx, Kyy, Kyz, Kzx, Kzy, Kzz, tx, ty, tz)
            vdx, vdy, vdz = fx / m_tot, fy / m_tot, fz / m_tot
        else:
            # K = Itot + Sl Sl / m_tot = Itot + (l l^T - |l|^2 I) / m_tot
            l2 = lx * lx + ly * ly + lz * lz
            wdx, wdy, wdz = _solve3(
                Kxx + (lx * lx - l2) / m_tot, Kxy + lx * ly / m_tot, Kxz + lx * lz / m_tot,
                Kyx + ly * lx / m_tot, Kyy + (ly * ly - l2) / m_tot, Kyz + ly * lz / m_tot,
                Kzx + lz * lx / m_tot, Kzy + lz * ly / m_tot, Kzz + (lz * lz - l2) / m_tot,
                tx - (ly * fz - lz * fy) / m_tot,
                ty - (lz * fx - lx * fz) / m_tot,
                tz - (lx * fy - ly * fx) / m_tot,
            )
            vdx = (fx + ly * wdz - lz * wdy) / m_tot
            vdy = (fy + lz * wdx - lx * wdz) / m_tot
            vdz = (fz + lx * wdy - ly * wdx) / m_tot

        return (
            cpsi * cth * u + (cpsi * sth * sphi - spsi * cphi) * v + (cpsi * sth * cphi + spsi * sphi) * w,
            spsi * cth * u + (spsi * sth * sphi + cpsi * cphi) * v + (spsi * sth * cphi - cpsi * sphi) * w,
            -sth * u + cth * sphi * v + cth * cphi * w,
            p + sphi * tth * q + cphi * tth * r,
            cphi * q - sphi * r,
            (sphi * q + cphi * r) / cth,
            vdx, vdy, vdz,
            wdx, wdy, wdz,
            sx, sy, sz,
            bx, by, bz,
        )

    return Kernel(aero, mass_terms, balance, balance_tangents, deriv)


def _balance(v, w, gcol, rbar, rbardot, Fl, Fr, params, legacy=False):
    """`Kernel.balance` of freshly bound `params` at the moving-mass
    position `rbar`."""
    mass_terms, balance, _ = _bind_balance(params, legacy)
    return balance(mass_terms(*rbar), v, w, gcol, rbar, rbardot, Fl, Fr)


def _balance_tangents(v, w, gcol, rbar, tangents, params):
    """`Kernel.balance_tangents` of freshly bound `params` at the
    moving-mass position `rbar`."""
    mass_terms, _, balance_tangents = _bind_balance(params, False)
    return balance_tangents(mass_terms(*rbar), v, w, gcol, tangents)


def deriv_vector(y, Fl, Fr, Fbar, params, model, legacy=False):
    """State derivative on the packed 18-vector, as an array: `Kernel.deriv`
    of a freshly bound vehicle.  Loops bind once with `bind` instead."""
    bx, by, bz = np.asarray(Fbar, dtype=float).tolist()
    return np.array(bind(params, model, legacy).deriv(
        np.asarray(y, dtype=float).tolist(), Fl, Fr, bx, by, bz))


def state_derivative(state, control, params, model, legacy=False):
    """Full state derivative for a State/ControlInput pair."""
    y = state.as_vector()
    ydot = deriv_vector(y, control.Fl, control.Fr, control.Fbar, params, model, legacy=legacy)
    return StateDerivative(
        pdot=ydot[0:3],
        edot=ydot[3:6],
        vdot=ydot[6:9],
        wdot=ydot[9:12],
        rbardot=ydot[12:15],
        rbarddot=ydot[15:18],
    )


def mechanical_energy(state, params):
    """Kinetic plus potential energy [J] of the vehicle with the moving
    mass frozen.  Conserved when aerodynamics, thrust, and moving-mass
    actuation are all absent.

    Potential accounts for the attitude-dependent CG height as well as
    the net-buoyancy height term (z is positive down).
    """
    M = mass_matrix(params, state.rbar)
    x = np.concatenate([state.v, state.w, state.rbardot])
    ke = 0.5 * x @ (M @ x)
    R = rotation_body_to_inertial(state.e)
    l_g, _ = composite_cg(params, state.rbar)
    z_cg_rel = (R @ l_g)[2]
    pe = -params.net_weight * state.p[2] - params.g * z_cg_rel
    return ke + pe
