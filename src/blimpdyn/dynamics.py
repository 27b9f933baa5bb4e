"""Nonlinear 6-DOF dynamics with moving-mass actuation.

`bind(params, model, legacy)` binds one vehicle and returns its `Kernel`:
closures over the parameter and aero-model constants that hold the single
copy of the mass terms, the generalized force and torque (the balance),
its tangents in two families (rates and gravity; velocity), the state
derivative and its block solve of the body accelerations, all in scalar
float arithmetic.  The integrator, the steady-state residual and Jacobian
and the linearization bind once and call the kernel.  The derivative
takes the 15 state components it reads (the Euler angles, v, w, rbar and
rbardot) as separate floats, so the RK4 loop passes its stage states
without packing them, and returns all 18 components.  The body
accelerations and the moving-mass acceleration solve M a = rhs with the
9x9 block mass matrix

    M = [(m+mbar) I3   -lg^x          mbar I3 ]
        [ lg^x         I - mbar Sr^2  mbar Sr ]
        [ 0            0              I3      ]

(lg the first mass moment, Sr the cross-product matrix of rbar); the
derivative and `accelerations` solve it by its block structure without
forming it, and one helper rebuilds the mass terms, adj K and det K of
its rotational block K only when rbar moves.  `tests/reference_matrix.py`
keeps the matrix form.
"""

from dataclasses import dataclass
import math
from typing import Callable, NamedTuple

from . import aero as aeromod
from .frames import GIMBAL_EPS, V_MIN, GimbalLock


class SingularMass(RuntimeError):
    """The mass-matrix solve failed (should not occur for valid params)."""


@dataclass(frozen=True)
class ControlInput:
    """Left and right propeller thrusts [N] of a linearization, finite and
    non-negative; `equilibria.linearize` freezes the moving mass, so there
    is no moving-mass input."""

    Fl: float
    Fr: float

    def __post_init__(self):
        if not (0 <= self.Fl < math.inf and 0 <= self.Fr < math.inf):
            raise ValueError("thrusts must be finite and non-negative")


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
        terms and the propeller thrusts, whose yaw lever arms are rbar_y
        plus or minus d.  `legacy` drops the CG-offset coupling terms.
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

    def rate_tangents(terms, v, w, tangents):
        """Directional derivatives of the full-model `balance` at
        rbardot = 0 as `w` and `gcol` move along each (dw, dg) of
        `tangents`, `v` fixed; a list of 6-tuples of floats, one per
        tangent.

        With rbardot = 0 every term is bilinear in (v, w) or linear in
        gcol, so this is the product rule applied term by term; the thrusts
        and the moving-mass position are fixed and drop out.  The steady
        solvers and the linearization use the full model, so `legacy` does
        not apply here (nor in `velocity_tangents`).
        """
        vx, vy, vz = v
        wx, wy, wz = w
        (lx, ly, lz), (Ixx, Ixy, Ixz, Iyx, Iyy, Iyz, Izx, Izy, Izz) = terms
        hx = Ixx * wx + Ixy * wy + Ixz * wz                                       # Itot w
        hy = Iyx * wx + Iyy * wy + Iyz * wz
        hz = Izx * wx + Izy * wy + Izz * wz
        ex, ey, ez = wy * lz - wz * ly, wz * lx - wx * lz, wx * ly - wy * lx      # w x l_g

        out = []
        for (px, py, pz), (gx, gy, gz) in tangents:
            cx, cy, cz = vy * pz - vz * py, vz * px - vx * pz, vx * py - vy * px  # v x dw
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

    def velocity_tangents(terms, w, tangents):
        """Directional derivatives of the full-model `balance` at
        rbardot = 0 as `v` moves along each dv of `tangents`, `w` and
        `gcol` fixed; a list of 6-tuples of floats, one per tangent.

        Only m_tot (v x w) and l_g x (v x w) involve v, so the tangent is
        m_tot (dv x w) and l_g x (dv x w).  A mixed tangent (dv, dw, dg) is
        the sum of its `velocity_tangents` and `rate_tangents` parts.
        """
        wx, wy, wz = w
        lx, ly, lz = terms[0]
        out = []
        for ux, uy, uz in tangents:
            cx, cy, cz = uy * wz - uz * wy, uz * wx - ux * wz, ux * wy - uy * wx  # dv x w
            out.append((m_tot * cx, m_tot * cy, m_tot * cz,
                        ly * cz - lz * cy, lz * cx - lx * cz, lx * cy - ly * cx))
        return out

    return mass_terms, balance, rate_tangents, velocity_tangents


class Kernel(NamedTuple):
    """The dynamics of one vehicle, as closures over its constants (see `bind`)."""

    aero: aeromod.AeroKernel     # body loads of the model at params.rho
    mass_terms: Callable         # (rx, ry, rz) -> l_g, Itot
    balance: Callable            # (terms, v, w, gcol, rbar, rbardot, Fl, Fr) -> 6 floats
    rate_tangents: Callable      # (terms, v, w, [(dw, dg), ...]) -> list of 6-tuples
    velocity_tangents: Callable  # (terms, w, [dv, ...]) -> list of 6-tuples
    deriv: Callable              # (phi, theta, psi, u, v, w, p, q, r, rx, ry, rz, sx, sy, sz,
                                 #  Fl, Fr, bx, by, bz) -> 18 floats
    accelerations: Callable      # (rx, ry, rz, [6 floats (f, t), ...]) -> list of (vdot, wdot) 6-tuples


def bind(params, model, legacy=False):
    """Bind a vehicle once; returns its `Kernel`.

    The parameters and the aero model are read once, into locals of the
    kernel's closures, so the integrator, the steady solvers and the
    linearization pay no attribute lookup, array conversion or dataclass
    construction per evaluation.  `legacy` drops the CG-offset coupling
    terms (the balance tangents are those of the full model).  `deriv`
    and `accelerations` keep the mass terms, adj K and det K of the last
    rbar either saw (their entry) and rebuild them at an rbar unequal as
    floats (nan always is), which, as `VehicleParams` holds no -0.0, gives
    fresh-kernel bits; one thread only.
    """
    mass_terms, balance, rate_tangents, velocity_tangents = _bind_balance(params, legacy)
    aero = aeromod.bind(model, params.rho)
    body_loads = aero.body_loads
    mbar, m_tot = params.mbar, params.total_mass
    pitch_limit = math.pi / 2 - GIMBAL_EPS
    cos, sin, tan, sqrt = math.cos, math.sin, math.tan, math.sqrt
    atan2, hypot, isfinite = math.atan2, math.hypot, math.isfinite
    crx = cry = crz = math.nan      # the rbar of the entry below; nan: none yet
    terms = lx = ly = lz = det = Axx = Axy = Axz = Ayx = Ayy = Ayz = Azx = Azy = Azz = None

    def rebuild(rx, ry, rz):
        """Make (rx, ry, rz) the entry: its mass terms, and adj K and det K
        of the rotational block K (see `deriv`)."""
        nonlocal crx, cry, crz, terms, lx, ly, lz, det, Axx, Axy, Axz, Ayx, Ayy, Ayz, Azx, Azy, Azz
        terms = mass_terms(rx, ry, rz)
        (lx, ly, lz), (Kxx, Kxy, Kxz, Kyx, Kyy, Kyz, Kzx, Kzy, Kzz) = terms
        if not legacy:
            # K = Itot + Sl Sl / m_tot = Itot + (l l^T - |l|^2 I) / m_tot
            l2 = lx * lx + ly * ly + lz * lz
            xy, xz, yz = lx * ly / m_tot, lx * lz / m_tot, ly * lz / m_tot     # float * commutes
            Kxx, Kxy, Kxz = Kxx + (lx * lx - l2) / m_tot, Kxy + xy, Kxz + xz
            Kyx, Kyy, Kyz = Kyx + xy, Kyy + (ly * ly - l2) / m_tot, Kyz + yz
            Kzx, Kzy, Kzz = Kzx + xz, Kzy + yz, Kzz + (lz * lz - l2) / m_tot
        Axx, Ayx, Azx = Kyy * Kzz - Kyz * Kzy, Kyz * Kzx - Kyx * Kzz, Kyx * Kzy - Kyy * Kzx
        det = Kxx * Axx + Kxy * Ayx + Kxz * Azx
        if det == 0.0:
            crx = math.nan      # the entry is half rebuilt: match no position
            raise SingularMass("singular rotational block of the mass matrix")
        Axy, Ayy, Azy = Kxz * Kzy - Kxy * Kzz, Kxx * Kzz - Kxz * Kzx, Kxy * Kzx - Kxx * Kzy
        Axz, Ayz, Azz = Kxy * Kyz - Kxz * Kyy, Kxz * Kyx - Kxx * Kyz, Kxx * Kyy - Kxy * Kyx
        crx, cry, crz = rx, ry, rz

    def deriv(phi, theta, psi, u, v, w, p, q, r, rx, ry, rz, sx, sy, sz, Fl, Fr, bx, by, bz):
        """State derivative under thrusts Fl, Fr and moving-mass
        acceleration (bx, by, bz), as a tuple of 18 floats in the order of
        the packed state (`State.as_vector`).  The arguments are the 15
        state components it reads, as floats: the Euler angles, v, w, rbar
        and rbardot (the position does not enter the dynamics).

        Solves M a = rhs (see the module docstring) by its block
        structure.  Its last block row is [0 0 I], so the moving-mass
        acceleration is Fbar exactly; with f and t the force and torque
        less the Fbar reaction, the rotational block reduces by Schur
        complement to the 3x3 system

            K wdot = t - l_g x f / m_tot,    K = Itot + Sl Sl / m_tot,
            vdot = (f + l_g x wdot) / m_tot,

        K the inertia about the composite CG (Itot in the legacy model, whose
        blocks decouple), solved as adj K rhs / det K, kept per rbar (`bind`).
        """
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
            beta = atan2(v, hypot(u, w))
        fax, fay, faz, tax, tay, taz = body_loads(alpha, beta, V, p, q, r)
        if rx != crx or ry != cry or rz != crz:
            rebuild(rx, ry, rz)
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

        if legacy:
            vdx, vdy, vdz = fx / m_tot, fy / m_tot, fz / m_tot
        else:
            tx -= (ly * fz - lz * fy) / m_tot             # rhs = t - l_g x f / m_tot
            ty -= (lz * fx - lx * fz) / m_tot
            tz -= (lx * fy - ly * fx) / m_tot
        wdx = (Axx * tx + Axy * ty + Axz * tz) / det       # wdot = adj K rhs / det K
        wdy = (Ayx * tx + Ayy * ty + Ayz * tz) / det
        wdz = (Azx * tx + Azy * ty + Azz * tz) / det
        if not legacy:
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

    def accelerations(rx, ry, rz, loads):
        """Body accelerations of each generalized force and torque
        (fx, fy, fz, tx, ty, tz) of `loads` with the moving mass at
        (rx, ry, rz) and not accelerating: `deriv`'s block solve, as one
        (vdot, wdot) 6-tuple of floats per load.

        M depends on rbar alone, so this maps tangents of the right-hand
        side to tangents of the accelerations as well.
        """
        if rx != crx or ry != cry or rz != crz:
            rebuild(rx, ry, rz)
        out = []
        for fx, fy, fz, tx, ty, tz in loads:
            if legacy:
                vdx, vdy, vdz = fx / m_tot, fy / m_tot, fz / m_tot
            else:
                tx -= (ly * fz - lz * fy) / m_tot         # rhs = t - l_g x f / m_tot
                ty -= (lz * fx - lx * fz) / m_tot
                tz -= (lx * fy - ly * fx) / m_tot
            wdx = (Axx * tx + Axy * ty + Axz * tz) / det   # wdot = adj K rhs / det K
            wdy = (Ayx * tx + Ayy * ty + Ayz * tz) / det
            wdz = (Azx * tx + Azy * ty + Azz * tz) / det
            if not legacy:
                vdx = (fx + ly * wdz - lz * wdy) / m_tot
                vdy = (fy + lz * wdx - lx * wdz) / m_tot
                vdz = (fz + lx * wdy - ly * wdx) / m_tot
            out.append((vdx, vdy, vdz, wdx, wdy, wdz))
        return out

    return Kernel(aero, mass_terms, balance, rate_tangents, velocity_tangents, deriv,
                  accelerations)


def mechanical_energy(state, params):
    """Kinetic plus potential energy [J] of the vehicle and its moving mass.

    Conserved when aerodynamics, thrust and moving-mass actuation are all
    absent.  The kinetic energy is that of the rigid body with the moving
    mass frozen at rbar, plus the terms of the mass's velocity rbardot
    relative to the body, mbar (v + w x rbar) . rbardot + mbar |rbardot|^2 / 2.
    The potential accounts for the attitude-dependent CG height as well as
    the net-buoyancy height term (z is positive down).
    """
    rx, ry, rz = state.rbar.tolist()
    (lx, ly, lz), (Ixx, Ixy, Ixz, Iyx, Iyy, Iyz, Izx, Izy, Izz) = (
        _bind_balance(params, False)[0](rx, ry, rz))
    u, v, w = state.v.tolist()
    p, q, r = state.w.tolist()
    sx, sy, sz = state.rbardot.tolist()
    mbar = params.mbar
    ke = (0.5 * params.total_mass * (u * u + v * v + w * w)
          + lx * (v * r - w * q) + ly * (w * p - u * r) + lz * (u * q - v * p)   # l_g . (v x w)
          + 0.5 * (p * (Ixx * p + Ixy * q + Ixz * r) + q * (Iyx * p + Iyy * q + Iyz * r)
                   + r * (Izx * p + Izy * q + Izz * r))                          # w . Itot w / 2
          # mbar (v + w x rbar) . rbardot + mbar |rbardot|^2 / 2
          + mbar * ((u + q * rz - r * ry) * sx + (v + r * rx - p * rz) * sy
                    + (w + p * ry - q * rx) * sz)
          + 0.5 * mbar * (sx * sx + sy * sy + sz * sz))
    sphi, cphi = math.sin(state.e.phi), math.cos(state.e.phi)
    sth, cth = math.sin(state.e.theta), math.cos(state.e.theta)
    z_cg_rel = -sth * lx + cth * sphi * ly + cth * cphi * lz                     # (R l_g)_z
    return ke - params.net_weight * float(state.p[2]) - params.g * z_cg_rel
