"""The unbound dynamics kernel, the RK4 loop, the damped Newton loop and
the general-tangent steady Jacobian: the reference that the bound kernel
(`dynamics.bind`), the float RK4 of `simulate.integrate`, the float Newton
loop of `equilibria._damped_newton` and the split-family
`equilibria._raw_jacobian` must reproduce bit for bit; and the
finite-difference linearization that the exact `equilibria.linearize`
must match to a stated tolerance.

This is the state derivative as it was written before the kernel was
bound: every call reads the `VehicleParams`/`AeroModel` attributes,
evaluates the coefficient polynomials, the wind-to-body rotation, the mass
terms and the balance from its own copies below, and returns a numpy
18-vector; the integrator steps numpy 18-vectors.  The arithmetic of each
expression, and its order, is the one the bound kernel must keep.  The
Newton loop steps numpy vectors and takes numpy norms; the float loop
keeps its arithmetic but sums the squares of its norm in another order,
so its norms may differ in the last bits.  The steady Jacobian applies the
product rule to one general (dv, dw, dg) tangent per unknown, as it did
before the kernel split its tangents into a velocity and a rate family.
The scaled Jacobians the planar trim and the spiral solve hand the Newton
loop are built here as nested lists, dividing entry by entry in Python:
the array form of `equilibria` must have their bits.
"""

import math

import numpy as np

from blimpdyn import aero
from blimpdyn.dynamics import SingularMass, bind
from blimpdyn.equilibria import (
    JACOBIAN_KEEP_CUT,
    LAMBDA_MIN,
    MAX_NEWTON_ITER,
    TOL,
    NoConvergence,
    _raw_jacobian,
)
from blimpdyn.frames import GIMBAL_EPS, V_MIN, GimbalLock
from blimpdyn.simulate import plan_goto_profile


def _coeff_values(model, a, b):
    return (
        model.cd0 + model.cd_a * a * a + model.cd_b * b * b,
        model.cs0 + model.cs_a * a * a + model.cs_b * b,
        model.cl0 + model.cl_a * a + model.cl_b * b * b,
        model.cm1_0 + model.cm1_a * a + model.cm1_b * b,
        model.cm2_0 + model.cm2_a * a + model.cm2_b * b ** 4,
        model.cm3_0 + model.cm3_a * a + model.cm3_b * b,
    )


def _body_loads(model, alpha, beta, V, w, rho):
    cd, cs, cl, cm1, cm2, cm3 = _coeff_values(model, float(alpha), float(beta))
    q = 0.5 * rho * V * V * model.a_ref
    D, S, L = q * cd, q * cs, q * cl
    M1, M2, M3 = q * cm1 + model.k1 * w[0], q * cm2 + model.k2 * w[1], q * cm3 + model.k3 * w[2]
    ca, sa, cb, sb = math.cos(alpha), math.sin(alpha), math.cos(beta), math.sin(beta)
    return (
        -ca * cb * D - ca * sb * S + sa * L,
        -sb * D + cb * S,
        -sa * cb * D - sa * sb * S - ca * L,
        ca * cb * M1 - ca * sb * M2 - sa * M3,
        sb * M1 + cb * M2,
        sa * cb * M1 - sa * sb * M2 + ca * M3,
    )


def _mass_terms(params, rx, ry, rz):
    m, mbar = params.m, params.mbar
    r0x, r0y, r0z = params.r.tolist()
    (Ixx, Ixy, Ixz), (Iyx, Iyy, Iyz), (Izx, Izy, Izz) = params.inertia.tolist()
    r2 = rx * rx + ry * ry + rz * rz
    return (
        (m * r0x + mbar * rx, m * r0y + mbar * ry, m * r0z + mbar * rz),
        (
            Ixx + mbar * (r2 - rx * rx), Ixy - mbar * rx * ry, Ixz - mbar * rx * rz,
            Iyx - mbar * ry * rx, Iyy + mbar * (r2 - ry * ry), Iyz - mbar * ry * rz,
            Izx - mbar * rz * rx, Izy - mbar * rz * ry, Izz + mbar * (r2 - rz * rz),
        ),
    )


def _balance(v, w, gcol, rbar, rbardot, Fl, Fr, params, legacy):
    vx, vy, vz = v
    wx, wy, wz = w
    gx, gy, gz = gcol
    rx, ry, rz = rbar
    sx, sy, sz = rbardot
    (lx, ly, lz), (Ixx, Ixy, Ixz, Iyx, Iyy, Iyz, Izx, Izy, Izz) = _mass_terms(params, rx, ry, rz)
    m_tot, mbar2, W, g = params.total_mass, 2.0 * params.mbar, params.net_weight, params.g
    thrust = Fl + Fr

    cx, cy, cz = vy * wz - vz * wy, vz * wx - vx * wz, vx * wy - vy * wx
    dx, dy, dz = sy * wz - sz * wy, sz * wx - sx * wz, sx * wy - sy * wx
    hx = Ixx * wx + Ixy * wy + Ixz * wz
    hy = Iyx * wx + Iyy * wy + Iyz * wz
    hz = Izx * wx + Izy * wy + Izz * wz

    fx = m_tot * cx + W * gx + mbar2 * dx + thrust
    fy = m_tot * cy + W * gy + mbar2 * dy
    fz = m_tot * cz + W * gz + mbar2 * dz
    tx = hy * wz - hz * wy + g * (ly * gz - lz * gy) + mbar2 * (ry * dz - rz * dy)
    ty = hz * wx - hx * wz + g * (lz * gx - lx * gz) + mbar2 * (rz * dx - rx * dz) + rz * thrust
    tz = (hx * wy - hy * wx + g * (lx * gy - ly * gx) + mbar2 * (rx * dy - ry * dx)
          + ry * thrust + params.d * (Fl - Fr))
    if not legacy:
        ex, ey, ez = wy * lz - wz * ly, wz * lx - wx * lz, wx * ly - wy * lx
        fx += ey * wz - ez * wy
        fy += ez * wx - ex * wz
        fz += ex * wy - ey * wx
        tx += ly * cz - lz * cy
        ty += lz * cx - lx * cz
        tz += lx * cy - ly * cx
    return fx, fy, fz, tx, ty, tz


def _solve3(a, b, c, d, e, f, g, h, i, x, y, z):
    A, B, C = e * i - f * h, f * g - d * i, d * h - e * g
    det = a * A + b * B + c * C
    if det == 0.0:
        raise SingularMass("singular rotational block of the mass matrix")
    return (
        (A * x + (c * h - b * i) * y + (b * f - c * e) * z) / det,
        (B * x + (a * i - c * g) * y + (c * d - a * f) * z) / det,
        (C * x + (b * g - a * h) * y + (a * e - b * d) * z) / det,
    )


def reference_deriv(y, Fl, Fr, Fbar, params, model, legacy=False):
    """State derivative of the packed 18-vector `y`, unbound: a numpy array."""
    (_, _, _, phi, theta, psi, u, v, w, p, q, r,
     rx, ry, rz, sx, sy, sz) = np.asarray(y, dtype=float).tolist()
    if abs(theta) >= math.pi / 2 - GIMBAL_EPS:
        raise GimbalLock(f"pitch angle {theta:.4f} rad too close to +-pi/2")
    if not (math.isfinite(phi) and math.isfinite(theta) and math.isfinite(psi)):
        raise ValueError("non-finite Euler angles")
    cphi, sphi = math.cos(phi), math.sin(phi)
    cth, sth = math.cos(theta), math.sin(theta)
    cpsi, spsi = math.cos(psi), math.sin(psi)
    tth = math.tan(theta)

    V = math.sqrt(u * u + v * v + w * w)
    if V < V_MIN:
        alpha = beta = 0.0
    else:
        alpha = math.atan2(w, u)
        beta = math.atan2(v, math.hypot(u, w))
    fax, fay, faz, tax, tay, taz = _body_loads(model, alpha, beta, V, (p, q, r), params.rho)
    fx, fy, fz, tx, ty, tz = _balance(
        (u, v, w), (p, q, r), (-sth, cth * sphi, cth * cphi), (rx, ry, rz), (sx, sy, sz),
        Fl, Fr, params, legacy,
    )

    bx, by, bz = np.asarray(Fbar, dtype=float).tolist()
    mbar = params.mbar
    fx += fax - mbar * bx
    fy += fay - mbar * by
    fz += faz - mbar * bz
    tx += tax - mbar * (ry * bz - rz * by)
    ty += tay - mbar * (rz * bx - rx * bz)
    tz += taz - mbar * (rx * by - ry * bx)

    (lx, ly, lz), (Kxx, Kxy, Kxz, Kyx, Kyy, Kyz, Kzx, Kzy, Kzz) = _mass_terms(params, rx, ry, rz)
    m_tot = params.total_mass
    if legacy:
        wdx, wdy, wdz = _solve3(Kxx, Kxy, Kxz, Kyx, Kyy, Kyz, Kzx, Kzy, Kzz, tx, ty, tz)
        vdx, vdy, vdz = fx / m_tot, fy / m_tot, fz / m_tot
    else:
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

    return np.array([
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
    ])


def reference_integrate(state0, sched, params, model, dt, T, legacy=False):
    """RK4 on numpy 18-vectors through `reference_deriv`, with the
    segment and goto rules of `simulate.integrate`: (states, status, the
    index of the failed step or None).  Overflow in the vector arithmetic
    is silenced here; the post-step finiteness check reports it."""
    n = int(math.floor(T / dt + 1e-9))
    t = np.arange(n + 1) * dt
    states = np.empty((n + 1, 18))
    states[0] = state0.as_vector()
    segs = sched.segments
    seg_idx, profile, prof_k0, seg_planned = 0, np.zeros(0), 0, -1
    y = states[0].copy()
    for k in range(n):
        while seg_idx + 1 < len(segs) and t[k] >= segs[seg_idx].t_end - 1e-9:
            seg_idx += 1
        seg = segs[seg_idx]
        if seg.mm_cmd == "goto" and seg_planned != seg_idx:
            profile = plan_goto_profile(params.rbar0[0] + seg.mm_target - y[12], dt)
            prof_k0, seg_planned = k, seg_idx
        fbar = np.zeros(3)
        if prof_k0 <= k < prof_k0 + profile.size:
            fbar[0] = profile[k - prof_k0]

        def f(x):
            return reference_deriv(x, seg.Fl, seg.Fr, fbar, params, model, legacy)

        with np.errstate(over="ignore", invalid="ignore"):
            try:
                k1 = f(y)
                k2 = f(y + 0.5 * dt * k1)
                k3 = f(y + 0.5 * dt * k2)
                k4 = f(y + dt * k3)
            except GimbalLock:
                return states[: k + 1], "gimbal_lock", k
            except ValueError:
                return states[: k + 1], "non_finite", k
            y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y)):
            return states[: k + 1], "non_finite", k
        states[k + 1] = y
    return states, "ok", None


def _reference_step(J, f, it, fnorm):
    """The Newton step -J^-1 f by `np.linalg.solve`, or the least-norm
    step where that fails or is not finite."""
    try:
        dx = np.linalg.solve(J, -f)
        if not np.all(np.isfinite(dx)):
            raise np.linalg.LinAlgError("non-finite Newton step")
    except np.linalg.LinAlgError:
        dx = np.linalg.lstsq(J, -f, rcond=None)[0]
        if not np.all(np.isfinite(dx)):
            raise NoConvergence(f"singular Jacobian with no usable step at iteration "
                                f"{it} (residual {fnorm:.3e})", it, fnorm)
    return dx


def reference_damped_newton(fun, jac, x0, tol=TOL):
    """Damped simplified Newton with error-oriented damping on numpy
    vectors, ended by one polishing step: (x, residual_norm).  `fun` and
    `jac` return numpy arrays (the residual and the Jacobian).

    A fresh Jacobian's step starts at the predicted damping factor
    min(1, mu) of the last accepted step (1 on the first Jacobian).  A
    trial above `tol` is accepted when its simplified correction on the
    same Jacobian is at most (1 - lam/4) times the step, or when the norm
    falls; a rejected one damps to max(LAMBDA_MIN, min(lam/2, mu')), and
    one at `LAMBDA_MIN` fails.  A full step whose correction is at most
    1/`JACOBIAN_KEEP_CUT` of it keeps the Jacobian, and the correction is
    the next step, tried only in full: if it is rejected, the Jacobian is
    dropped and rebuilt at the same point.  Below `TOL`, one step on a
    fresh Jacobian is kept if it lowers the norm."""
    x = np.asarray(x0, dtype=float).copy()
    f = fun(x)
    fnorm = np.linalg.norm(f)
    J = None
    last = None  # (lam * |dx|, dxbar, |dxbar|) of the last accepted step
    for it in range(1, MAX_NEWTON_ITER + 1):
        if fnorm < tol:
            break
        if J is not None:
            dx = last[1]
            x_new = x + dx
            f_new = fun(x_new)
            fnorm_new = np.linalg.norm(f_new)
            if fnorm_new >= tol:
                bar = (_reference_step(J, f_new, it, fnorm_new)
                       if np.isfinite(fnorm_new) else None)
                if bar is None or not (fnorm_new < fnorm or np.linalg.norm(bar)
                                       <= 0.75 * np.linalg.norm(dx)):
                    J = None
                    continue
            lam = 1.0
        else:
            J = jac(x)
            dx = _reference_step(J, f, it, fnorm)
            lam = 1.0
            if last is not None:
                den = np.linalg.norm(last[1] - dx) * np.linalg.norm(dx)
                if den:
                    lam = max(LAMBDA_MIN, min(1.0, last[0] * last[2] / den))
            while True:
                x_new = x + lam * dx
                f_new = fun(x_new)
                fnorm_new = np.linalg.norm(f_new)
                if fnorm_new < tol:
                    break
                mu = np.inf
                if np.isfinite(fnorm_new):
                    bar = _reference_step(J, f_new, it, fnorm_new)
                    if (fnorm_new < fnorm
                            or np.linalg.norm(bar) <= (1.0 - 0.25 * lam) * np.linalg.norm(dx)):
                        break
                    den = np.linalg.norm(bar - (1.0 - lam) * dx)
                    if den:
                        mu = 0.5 * np.linalg.norm(dx) * lam * lam / den
                if lam == LAMBDA_MIN:
                    raise NoConvergence(f"step halving exhausted at iteration {it} "
                                        f"(residual {fnorm:.3e})", it, fnorm)
                lam = max(LAMBDA_MIN, min(0.5 * lam, mu))
        if fnorm_new < tol:
            last = None
        else:
            last = (lam * np.linalg.norm(dx), bar, np.linalg.norm(bar))
        if last is None or lam != 1.0 or last[2] * JACOBIAN_KEEP_CUT > np.linalg.norm(dx):
            J = None
        x, f, fnorm = x_new, f_new, fnorm_new
    else:
        if not fnorm < tol:
            raise NoConvergence(f"residual {fnorm:.3e} after {MAX_NEWTON_ITER} iterations",
                                MAX_NEWTON_ITER, fnorm)
    if fnorm < TOL:
        x_new = x + _reference_step(jac(x), f, it, fnorm)
        f_new = fun(x_new)
        if np.linalg.norm(f_new) < fnorm:
            x, fnorm = x_new, np.linalg.norm(f_new)
    return x, fnorm


def reference_planar_jacobian(x3, terms, kernel, fscale, tscale):
    """The scaled Jacobian of the planar trim at (theta, V, alpha) as nested
    lists: the rows (fx, fz, ty) and columns (theta, V, alpha) of the
    six-column Jacobian, each entry divided by its row's scale in Python."""
    theta, V, alpha = x3
    cols = _raw_jacobian((theta, 0.0, 0.0, V, alpha, 0.0), terms, kernel)
    return [[cols[j][i] / s for j in (0, 3, 4)]
            for i, s in ((0, fscale), (2, fscale), (4, tscale))]


def reference_spiral_jacobian(x, terms, kernel, fscale, tscale):
    """The scaled six-equation Jacobian at the unknowns x as nested lists:
    the columns transposed with `zip`, each entry divided by its row's
    scale in Python."""
    rows = list(zip(*_raw_jacobian(x, terms, kernel)))
    return ([[v / fscale for v in row] for row in rows[:3]]
            + [[v / tscale for v in row] for row in rows[3:]])


def reference_balance_tangents(terms, v, w, gcol, tangents, params):
    """Directional derivatives of the full-model balance at rbardot = 0
    along each general (dv, dw, dg) of `tangents`: a list of 6-tuples."""
    m_tot, W, g = params.total_mass, params.net_weight, params.g
    vx, vy, vz = v
    wx, wy, wz = w
    (lx, ly, lz), (Ixx, Ixy, Ixz, Iyx, Iyy, Iyz, Izx, Izy, Izz) = terms
    hx = Ixx * wx + Ixy * wy + Ixz * wz
    hy = Iyx * wx + Iyy * wy + Iyz * wz
    hz = Izx * wx + Izy * wy + Izz * wz
    ex, ey, ez = wy * lz - wz * ly, wz * lx - wx * lz, wx * ly - wy * lx

    out = []
    for (ux, uy, uz), (px, py, pz), (gx, gy, gz) in tangents:
        cx = uy * wz - uz * wy + vy * pz - vz * py
        cy = uz * wx - ux * wz + vz * px - vx * pz
        cz = ux * wy - uy * wx + vx * py - vy * px
        kx = Ixx * px + Ixy * py + Ixz * pz
        ky = Iyx * px + Iyy * py + Iyz * pz
        kz = Izx * px + Izy * py + Izz * pz
        qx, qy, qz = py * lz - pz * ly, pz * lx - px * lz, px * ly - py * lx
        out.append((
            m_tot * cx + W * gx + qy * wz - qz * wy + ey * pz - ez * py,
            m_tot * cy + W * gy + qz * wx - qx * wz + ez * px - ex * pz,
            m_tot * cz + W * gz + qx * wy - qy * wx + ex * py - ey * px,
            ky * wz + hy * pz - kz * wy - hz * py + g * (ly * gz - lz * gy) + ly * cz - lz * cy,
            kz * wx + hz * px - kx * wz - hx * pz + g * (lz * gx - lx * gz) + lz * cx - lx * cz,
            kx * wy + hx * py - ky * wx - hy * px + g * (lx * gy - ly * gx) + lx * cy - ly * cx,
        ))
    return out


def reference_raw_jacobian(x, rbar, params, model):
    """The six columns of the steady Jacobian in
    (theta, phi, psidot, V, alpha, beta), each from one general tangent."""
    theta, phi, psidot, V, alpha, beta = x
    sth, cth = math.sin(theta), math.cos(theta)
    sphi, cphi = math.sin(phi), math.cos(phi)
    ca, sa = math.cos(alpha), math.sin(alpha)
    cb, sb = math.cos(beta), math.sin(beta)
    v_b = (ca * cb * V, sb * V, sa * cb * V)
    gcol = (-sth, sphi * cth, cphi * cth)
    w_b = (psidot * gcol[0], psidot * gcol[1], psidot * gcol[2])
    d_alpha, d_beta, d_V, (Kxx, Kxy, Kxz, Kyx, Kyy, Kyz, Kzx, Kzy, Kzz) = (
        aero.bind(model, params.rho).body_load_partials(alpha, beta, V, *w_b))
    zero = (0.0, 0.0, 0.0)
    g_theta = (-cth, -sphi * sth, -cphi * sth)
    g_phi = (0.0, cphi * cth, -sphi * cth)
    tangents = (
        (zero, (psidot * g_theta[0], psidot * g_theta[1], psidot * g_theta[2]), g_theta),
        (zero, (0.0, psidot * g_phi[1], psidot * g_phi[2]), g_phi),
        (zero, gcol, zero),
        ((ca * cb, sb, sa * cb), zero, zero),
        ((-sa * cb * V, 0.0, ca * cb * V), zero, zero),
        ((-ca * sb * V, cb * V, -sa * sb * V), zero, zero),
    )
    cols = reference_balance_tangents(_mass_terms(params, *rbar), v_b, w_b, gcol, tangents,
                                      params)
    for j in range(3):
        fx, fy, fz, tx, ty, tz = cols[j]
        px, py, pz = tangents[j][1]
        cols[j] = (fx, fy, fz,
                   tx + Kxx * px + Kxy * py + Kxz * pz,
                   ty + Kyx * px + Kyy * py + Kyz * pz,
                   tz + Kzx * px + Kzy * py + Kzz * pz)
    for j, (ax, ay, az, amx, amy, amz) in zip((3, 4, 5), (d_V, d_alpha, d_beta)):
        fx, fy, fz, tx, ty, tz = cols[j]
        cols[j] = (fx + ax, fy + ay, fz + az, tx + amx, ty + amy, tz + amz)
    return cols


# Indices of the reduced linearization state within the 18-vector:
# (phi, theta, u, v, w, p, q, r).  Position and yaw are cyclic; the
# moving mass is frozen.
_LIN_IDX = np.array([3, 4, 6, 7, 8, 9, 10, 11])


def reference_linearize(sol, control, rbar, params, model):
    """8x8 Jacobian of the reduced dynamics about a converged equilibrium,
    by central finite differences with per-component steps."""
    rbar = np.asarray(rbar, dtype=float).reshape(3)
    y0 = sol.state(rbar).as_vector()
    deriv = bind(params, model).deriv
    lin_idx = _LIN_IDX.tolist()

    def f8(x8):
        y = y0.tolist()
        for i, xi in zip(lin_idx, x8.tolist()):
            y[i] = xi
        ydot = deriv(*y[3:], control.Fl, control.Fr, 0.0, 0.0, 0.0)
        return np.array([ydot[i] for i in lin_idx])

    x0 = y0[_LIN_IDX]
    A = np.empty((8, 8))
    for i in range(8):
        h = max(1e-6, 1e-4 * abs(x0[i]))
        xp = x0.copy()
        xm = x0.copy()
        xp[i] += h
        xm[i] -= h
        A[:, i] = (f8(xp) - f8(xm)) / (2.0 * h)
    return A
