"""Steady-state solvers for straight-line and spiral flight, linearization
about equilibria, and eigenvalue stability reporting.

A steady solution is parameterized by the six unknowns
(theta, phi, psidot, V, alpha, beta); the body velocity and rates are
derived from them, which keeps the Newton system 6x6 and well-scaled.
Each Newton step uses the exact Jacobian of the residual in those
unknowns (`_raw_jacobian`): the chain rule through the kinematics, the
aero partials and the balance tangents of the vehicle's bound kernel
(`dynamics.bind`), which each solve binds once: theta, phi and psidot
are rate tangents, V, alpha and beta velocity tangents.  A Newton solve
builds the mass terms once.  The residual, the Jacobian (as its columns,
built only for the unknowns being solved for), the trial steps and the
norms are Python float arithmetic; numpy does only the linear solve of
each Newton step, by LAPACK's dgesv gufunc
(`numpy.linalg._umath_linalg.solve1`, the one `np.linalg.solve` calls for a
vector right-hand side), called directly because the argument checks of
`np.linalg.solve` cost about three times the solve itself at 3x3 and 6x6.
A Newton iteration tries at most `MAX_HALVINGS` steps, the full step and
then half the last one, and then fails with the iteration and the
residual norm in its message.  A spiral is one Newton solve at its
thrusts from the planar trim; only where that fails does `solve_spiral`
fall back to a continuation along the moving-mass rail: `RAIL_STEPS`
Euler predictor steps along the branch tangent, from the closed-form
derivative of the residual in the rail position (`_rail_derivative`),
each corrected by a Newton solve.  `linearize` is exact from the same
tangents and the kernel's block solve; nothing here is differentiated by
finite differences.
"""

from dataclasses import dataclass
import math

import numpy as np
from numpy.linalg._umath_linalg import solve1 as _lapack_solve

from . import aero as aeromod
from .dynamics import bind
from .frames import (
    GIMBAL_EPS,
    RAIL_LIMIT,
    V_MIN,
    EulerAngles,
    GimbalLock,
    State,
    rotation_body_to_inertial,
)

# Length scale floor for nondimensionalizing the moment residual [m].
MOMENT_ARM_FLOOR = 0.1

# Predictor-corrector steps of the moving-mass continuation in the spiral
# fallback.
RAIL_STEPS = 2

# Iteration cap and residual-norm tolerance of the damped Newton solve, and
# the trial steps of its step-halving search (the full step, then halved
# after each trial that does not lower the residual norm).
MAX_NEWTON_ITER = 100
TOL = 1e-9
MAX_HALVINGS = 12

# The unknowns (theta, V, alpha) of the planar trim, as indices into the six
# (theta, phi, psidot, V, alpha, beta).
PLANAR_UNKNOWNS = (0, 3, 4)

# Airspeed [m/s] of the Newton seed of the planar trim.
SEED_SPEED = 1.0

# Eigenvalues of modulus at most this are neutral (the cyclic states).
NEUTRAL_TOL = 1e-9


class NoConvergence(RuntimeError):
    """Newton iteration failed: its step-halving search found no step that
    lowers the residual norm, or the residual missed tolerance within the
    iteration cap."""


class ContinuationBreakdown(NoConvergence):
    """An intermediate step of the spiral solver's moving-mass continuation
    failed."""


class EigenFailure(RuntimeError):
    """Dense eigensolve did not converge."""


@dataclass(frozen=True)
class SteadySolution:
    """Converged steady-flight equilibrium."""

    theta: float
    phi: float
    psidot: float
    V: float
    alpha: float
    beta: float
    v_b: np.ndarray
    w_b: np.ndarray
    residual_norm: float
    kind: str
    stalled: bool = False

    def state(self, rbar):
        """Vehicle State at this equilibrium (position and yaw set to zero)."""
        return State(
            p=np.zeros(3),
            e=EulerAngles(self.phi, self.theta, 0.0),
            v=self.v_b,
            w=self.w_b,
            rbar=np.asarray(rbar, dtype=float),
            rbardot=np.zeros(3),
        )


@dataclass(frozen=True)
class StabilityReport:
    eigenvalues: np.ndarray
    slowest_mode: complex
    hurwitz: bool


def _unknowns_to_kinematics(x):
    """Map (theta, phi, psidot, V, alpha, beta) to the body velocity, the
    body rates and the inertial down axis in body axes, as float triples."""
    theta, phi, psidot, V, alpha, beta = x
    sth, cth = math.sin(theta), math.cos(theta)
    sphi, cphi = math.sin(phi), math.cos(phi)
    ca, sa = math.cos(alpha), math.sin(alpha)
    cb, sb = math.cos(beta), math.sin(beta)
    # Body velocity: the wind-to-body rotation applied to (V, 0, 0).
    v_b = (ca * cb * V, sb * V, sa * cb * V)
    # Steady turn: omega = psidot * R^T k, and R^T k is the down axis.
    gcol = (-sth, sphi * cth, cphi * cth)
    w_b = (psidot * gcol[0], psidot * gcol[1], psidot * gcol[2])
    return v_b, w_b, gcol


def _raw_residual(x, Fl, Fr, rbar, terms, kernel):
    """Unscaled force/moment balance of the steady-state equations of the
    vehicle bound in `kernel` (`dynamics.bind`), at the unknowns `x` and
    the moving-mass position `rbar` (float sequences), whose mass terms
    are `terms` (`kernel.mass_terms(*rbar)`); six floats."""
    v_b, w_b, gcol = _unknowns_to_kinematics(x)
    ax, ay, az, amx, amy, amz = kernel.aero.body_loads(x[4], x[5], x[3], *w_b)
    fx, fy, fz, tx, ty, tz = kernel.balance(terms, v_b, w_b, gcol, rbar, (0.0, 0.0, 0.0), Fl, Fr)
    return (ax + fx, ay + fy, az + fz, amx + tx, amy + ty, amz + tz)


def _raw_jacobian(x, terms, kernel, unknowns=range(6)):
    """Exact Jacobian of `_raw_residual` in the unknowns
    (theta, phi, psidot, V, alpha, beta) at the moving-mass position whose
    mass terms are `terms`, by the chain rule through
    `_unknowns_to_kinematics`, as the columns of `unknowns` (ascending
    indices into the six; all six by default), one 6-tuple of floats per
    unknown; the thrusts do not enter it.  A column is built only when it
    is asked for, so the planar trim (`PLANAR_UNKNOWNS`) pays for three.

    theta and phi turn the down axis, and the rates w = psidot * gcol
    follow it; psidot moves the rates along gcol: these three are rate
    tangents, plus the aero damping map.  V, alpha and beta move the body
    velocity: velocity tangents, plus the aero partials."""
    theta, phi, psidot, V, alpha, beta = x
    sth, cth = math.sin(theta), math.cos(theta)
    sphi, cphi = math.sin(phi), math.cos(phi)
    ca, sa = math.cos(alpha), math.sin(alpha)
    cb, sb = math.cos(beta), math.sin(beta)
    gcol = (-sth, sphi * cth, cphi * cth)
    w_b = (psidot * gcol[0], psidot * gcol[1], psidot * gcol[2])
    d_alpha, d_beta, d_V, (Kxx, Kxy, Kxz, Kyx, Kyy, Kyz, Kzx, Kzy, Kzz) = (
        kernel.aero.body_load_partials(alpha, beta, V, *w_b))
    g_theta = (-cth, -sphi * sth, -cphi * sth)
    g_phi = (0.0, cphi * cth, -sphi * cth)
    w_theta = (psidot * g_theta[0], psidot * g_theta[1], psidot * g_theta[2])
    w_phi = (0.0, psidot * g_phi[1], psidot * g_phi[2])
    # (dw, dg) of each rate unknown, and (dv, aero partial) of each velocity one.
    rate_dirs = ((w_theta, g_theta), (w_phi, g_phi), (gcol, (0.0, 0.0, 0.0)))
    vel_dirs = (((ca * cb, sb, sa * cb), d_V),
                ((-sa * cb * V, 0.0, ca * cb * V), d_alpha),
                ((-ca * sb * V, cb * V, -sa * sb * V), d_beta))
    rate = [rate_dirs[i] for i in unknowns if i < 3]
    vel = [vel_dirs[i - 3] for i in unknowns if i >= 3]
    cols = [(fx, fy, fz,
             tx + Kxx * px + Kxy * py + Kxz * pz,
             ty + Kyx * px + Kyy * py + Kyz * pz,
             tz + Kzx * px + Kzy * py + Kzz * pz)
            for (fx, fy, fz, tx, ty, tz), ((px, py, pz), _)
            in zip(kernel.rate_tangents(terms, (ca * cb * V, sb * V, sa * cb * V), w_b, rate),
                   rate)]
    cols += [(fx + ax, fy + ay, fz + az, tx + amx, ty + amy, tz + amz)
             for (fx, fy, fz, tx, ty, tz), (_, (ax, ay, az, amx, amy, amz))
             in zip(kernel.velocity_tangents(terms, w_b, [dv for dv, _ in vel]), vel)]
    return cols


def _rail_derivative(x, rbar, kernel, mbar):
    """Partial derivative of `_raw_residual` in the moving-mass position
    rbar_x at the unknowns x (float sequences, as `rbar`); six floats.

    At rbardot = 0, rbar_x enters the residual only through
    `kernel.mass_terms`, whose derivative is d l_g = (mbar, 0, 0) and
    d Itot = mbar (2 r_x I - e_x r^T - r e_x^T); the aero loads and the
    thrust lever arms do not depend on it.  The balance is affine in the
    mass terms, so the derivative is the balance at the differentiated
    terms less the balance at zero terms."""
    v_b, w_b, gcol = _unknowns_to_kinematics(x)
    rx, ry, rz = rbar
    d_terms = ((mbar, 0.0, 0.0),
               (0.0, -mbar * ry, -mbar * rz,
                -mbar * ry, 2.0 * mbar * rx, 0.0,
                -mbar * rz, 0.0, 2.0 * mbar * rx))
    zero = (0.0, 0.0, 0.0)
    at_d = kernel.balance(d_terms, v_b, w_b, gcol, rbar, zero, 0.0, 0.0)
    at_zero = kernel.balance((zero, (0.0,) * 9), v_b, w_b, gcol, rbar, zero, 0.0, 0.0)
    return tuple(a - b for a, b in zip(at_d, at_zero))


def _rail_position(params, dr_x):
    """Moving-mass position at rail offset dr_x from home, as a float list."""
    rx, ry, rz = params.rbar0.tolist()
    # The adds of the array form it replaces: -0.0 + 0.0 is 0.0.
    return [rx + float(dr_x), ry + 0.0, rz + 0.0]


def _scales(params, rbar):
    fscale = params.total_mass * params.g
    tscale = fscale * max(float(np.linalg.norm(rbar)), MOMENT_ARM_FLOOR)
    return fscale, tscale


def _damped_newton(fun, jac, x0):
    """Newton with step halving; returns (x, residual_norm), x an array.

    `fun(x)` is the residual and `jac(x)` its exact Jacobian (rows) at the
    float list x, so an iteration costs one Jacobian and one residual per
    trial step of the halving search.  The loop steps Python floats;
    numpy does only the linear solve of each Newton step, through
    `_lapack_solve`, LAPACK's dgesv gufunc (`solve1`) that
    `np.linalg.solve` calls for a vector right-hand side: the same bits,
    without the argument checks and error-state set-up that cost
    `np.linalg.solve` about three times the solve.  A singular J gives a
    non-finite step, which the finite check turns into the least-norm
    step."""
    x = [float(v) for v in x0]
    f = fun(x)
    fnorm = math.sqrt(sum(v * v for v in f))
    for it in range(1, MAX_NEWTON_ITER + 1):
        if fnorm < TOL:
            return np.array(x), fnorm
        J = np.array(jac(x))
        minus_f = np.array([-v for v in f])
        try:
            # The gufunc clears every floating-point flag but `invalid`,
            # which it raises (with a non-finite step) on a singular J.
            with np.errstate(invalid="ignore"):
                dx = _lapack_solve(J, minus_f).tolist()
            if not all(map(math.isfinite, dx)):
                raise np.linalg.LinAlgError("non-finite Newton step")
        except np.linalg.LinAlgError:
            if not (np.isfinite(J).all() and np.isfinite(minus_f).all()):
                raise NoConvergence(f"non-finite Jacobian or residual at iteration {it} "
                                    f"(residual {fnorm:.3e})") from None
            # Singular Jacobian: fully balanced configurations have flat
            # directions (e.g. pitch with zero CG offset and no pitch
            # stiffness).  Take the least-norm step, which leaves flat
            # directions untouched.
            dx = np.linalg.lstsq(J, minus_f, rcond=None)[0].tolist()
            if not all(map(math.isfinite, dx)):
                raise NoConvergence(f"singular Jacobian with no usable step at iteration "
                                    f"{it} (residual {fnorm:.3e})")
        lam = 1.0
        for _ in range(MAX_HALVINGS):
            x_new = [a + lam * b for a, b in zip(x, dx)]
            f_new = fun(x_new)
            fnorm_new = math.sqrt(sum(v * v for v in f_new))
            if fnorm_new < fnorm:
                break
            lam *= 0.5
        else:
            raise NoConvergence(f"step halving exhausted at iteration {it} "
                                f"(residual {fnorm:.3e})")
        x, f, fnorm = x_new, f_new, fnorm_new
    if fnorm < TOL:
        return np.array(x), fnorm
    raise NoConvergence(f"residual {fnorm:.3e} after {MAX_NEWTON_ITER} iterations")


def _make_solution(x, fnorm, kind):
    v_b, w_b, _ = _unknowns_to_kinematics(x)
    return SteadySolution(
        theta=float(x[0]),
        phi=float(x[1]),
        psidot=float(x[2]),
        V=float(x[3]),
        alpha=float(x[4]),
        beta=float(x[5]),
        v_b=np.array(v_b),
        w_b=np.array(w_b),
        residual_norm=float(fnorm),
        kind=kind,
        stalled=abs(x[4]) > aeromod.STALL_ALPHA,
    )


def _initial_alpha(params, model):
    """Crude lift-balance guess: C_L at SEED_SPEED must carry the net weight."""
    q = 0.5 * params.rho * SEED_SPEED * SEED_SPEED * model.a_ref
    cl_needed = params.net_weight / q
    if abs(model.cl_a) > 1e-9:
        a0 = (cl_needed - model.cl0) / model.cl_a
    else:
        a0 = 0.0
    return float(min(max(a0, -0.2), 0.3))


def _straight_trim(dr_x, F, params, model, kernel):
    """The planar trim of `solve_straight` on the vehicle bound in
    `kernel`: (x, residual_norm), x the six unknowns as an array."""
    if abs(dr_x) > RAIL_LIMIT + 1e-12:
        raise ValueError(f"dr_x {dr_x} m outside rail limit +-{RAIL_LIMIT} m")
    rbar = _rail_position(params, dr_x)
    terms = kernel.mass_terms(*rbar)
    fscale, tscale = _scales(params, rbar)

    # Rows (fx, fz, ty), columns (theta, V, alpha) of the full system.
    def fun3(x3):
        theta, V, alpha = x3
        fx, _, fz, _, ty, _ = _raw_residual((theta, 0.0, 0.0, V, alpha, 0.0), F, F, rbar,
                                            terms, kernel)
        return (fx / fscale, fz / fscale, ty / tscale)

    def jac3(x3):
        theta, V, alpha = x3
        c_theta, c_V, c_alpha = _raw_jacobian((theta, 0.0, 0.0, V, alpha, 0.0), terms, kernel,
                                              PLANAR_UNKNOWNS)
        return [[c_theta[i] / s, c_V[i] / s, c_alpha[i] / s]
                for i, s in ((0, fscale), (2, fscale), (4, tscale))]

    a0 = _initial_alpha(params, model)
    x3, fnorm = _damped_newton(fun3, jac3, (a0, SEED_SPEED, a0))
    return np.array([x3[0], 0.0, 0.0, x3[1], x3[2], 0.0]), fnorm


def solve_straight(dr_x, F, params, model):
    """Planar straight-line trim at moving-mass displacement dr_x [m] with
    equal per-propeller thrust F [N].  Solves (theta, V, alpha) with
    beta = phi = psidot = 0."""
    x, fnorm = _straight_trim(dr_x, F, params, model, bind(params, model))
    # residual_norm covers the solved planar subsystem; lateral components
    # are identically zero only for a y-symmetric vehicle.
    return _make_solution(x, fnorm, "straight")


def _spiral_newton(x0, Fl, Fr, rbar, params, kernel):
    fscale, tscale = _scales(params, rbar)
    terms = kernel.mass_terms(*rbar)

    def fun6(xx):
        fx, fy, fz, tx, ty, tz = _raw_residual(xx, Fl, Fr, rbar, terms, kernel)
        return (fx / fscale, fy / fscale, fz / fscale, tx / tscale, ty / tscale, tz / tscale)

    def jac6(xx):
        rows = list(zip(*_raw_jacobian(xx, terms, kernel)))
        return ([[v / fscale for v in row] for row in rows[:3]]
                + [[v / tscale for v in row] for row in rows[3:]])

    return _damped_newton(fun6, jac6, x0)


def _solve_spiral_direct(dr_x, Fl, Fr, params, model, kernel):
    """One Newton solve at the given thrusts, seeded from the planar trim
    at the mean thrust."""
    x0, _ = _straight_trim(dr_x, 0.5 * (Fl + Fr), params, model, kernel)
    return _spiral_newton(x0, Fl, Fr, _rail_position(params, dr_x), params, kernel)


def solve_spiral(dr_x, Fl, Fr, params, model):
    """Steady spiral equilibrium under differential thrust.

    Seeds from the straight solution at the mean thrust and solves the
    six-equation balance at the given thrusts in one Newton solve.  With
    equal thrust the result has kind "straight": the solve absorbs the
    mm-scale lateral asymmetries of the vehicle in (typically tiny) phi,
    psidot, beta.  If that solve fails away from dr_x = 0 (at large
    moving-mass offsets the equilibrium can lie on a branch that the
    planar seed does not reach), solves the same thrusts at dr_x = 0 and
    walks the moving mass out to dr_x in `RAIL_STEPS` equal steps.  Each
    step predicts the unknowns at the next rail position from the branch
    tangent, dx/d(dr_x) = -J^-1 dR/d(dr_x) (natural-parameter continuation
    with an Euler predictor), and corrects them with a Newton solve; a
    failed intermediate step raises `ContinuationBreakdown`."""
    kernel = bind(params, model)
    kind = "straight" if Fl == Fr else "spiral"
    try:
        x, fnorm = _solve_spiral_direct(dr_x, Fl, Fr, params, model, kernel)
    except NoConvergence:
        if abs(dr_x) < 1e-12:
            raise
    else:
        return _make_solution(x, fnorm, kind)
    x, fnorm = _solve_spiral_direct(0.0, Fl, Fr, params, model, kernel)
    dr_prev, rbar = 0.0, params.rbar0.tolist()
    for dr_k in np.linspace(dr_x / RAIL_STEPS, dr_x, RAIL_STEPS):
        # Euler predictor; the least-norm solve leaves flat directions of a
        # singular J untouched, as the Newton step does.
        tangent = np.linalg.lstsq(np.array(_raw_jacobian(x, kernel.mass_terms(*rbar), kernel)).T,
                                  np.negative(_rail_derivative(x, rbar, kernel, params.mbar)),
                                  rcond=None)[0]
        x = x + (dr_k - dr_prev) * tangent
        dr_prev, rbar = dr_k, _rail_position(params, dr_k)
        try:
            x, fnorm = _spiral_newton(x, Fl, Fr, rbar, params, kernel)
        except NoConvergence as exc:
            if dr_k != dr_x:
                raise ContinuationBreakdown(
                    f"moving-mass continuation failed at dr_x {dr_k:.4f} m: {exc}"
                ) from exc
            raise
    return _make_solution(x, fnorm, kind)


def turning_radius(sol):
    """Horizontal turning radius of a steady solution [m]; inf for straight."""
    if abs(sol.psidot) < 1e-10:
        return np.inf
    e = EulerAngles(sol.phi, sol.theta, 0.0)
    v_in = rotation_body_to_inertial(e) @ sol.v_b
    return float(np.hypot(v_in[0], v_in[1]) / abs(sol.psidot))


def linearize(sol, control, rbar, params, model):
    """8x8 Jacobian A of the reduced dynamics in (phi, theta, u, v, w, p, q, r)
    about the state of `sol` with the moving mass frozen at `rbar`; exact.

    Position and yaw are cyclic.  The thrusts of `control` enter the
    dynamics additively, so they do not change A.  The phi and theta rows
    are the closed-form derivatives of the Euler-angle rates.  The other
    rows are the body accelerations, and M depends on rbar alone, so each
    column is the kernel's block solve (`Kernel.accelerations`) of the
    tangent of the generalized force and torque:
    - phi and theta turn the down axis: rate tangents (0, dg);
    - p, q and r: rate tangents (e_i, 0), plus the aero damping map;
    - u, v and w: velocity tangents e_i, plus the aero partials chained
      through V = |v|, alpha = atan2(w, u) and beta = atan2(v, hypot(u, w)).
    The aero angles have no derivative where the airspeed or hypot(u, w)
    is below `V_MIN` (`deriv` switches them off there).  That, and
    non-finite Euler angles, raise ValueError; a pitch near +-pi/2 raises
    GimbalLock, as in `deriv`.
    """
    rx, ry, rz = np.asarray(rbar, dtype=float).reshape(3).tolist()
    phi, theta = sol.phi, sol.theta
    u, v, w = sol.v_b.tolist()
    p, q, r = sol.w_b.tolist()
    if abs(theta) >= math.pi / 2 - GIMBAL_EPS:
        raise GimbalLock(f"pitch angle {theta:.4f} rad too close to +-pi/2")
    if not (math.isfinite(phi) and math.isfinite(theta)):
        raise ValueError("non-finite Euler angles")
    V2, h2 = u * u + v * v + w * w, u * u + w * w
    V, h = math.sqrt(V2), math.sqrt(h2)
    if V < V_MIN or h < V_MIN:
        raise ValueError(f"airspeed {V:.3g} m/s or hypot(u, w) {h:.3g} m/s below V_MIN: "
                         "the aero angles have no derivative there")
    sphi, cphi = math.sin(phi), math.cos(phi)
    sth, cth = math.sin(theta), math.cos(theta)
    tth = math.tan(theta)
    kernel = bind(params, model)
    terms = kernel.mass_terms(rx, ry, rz)
    d_alpha, d_beta, d_V, damping = kernel.aero.body_load_partials(
        math.atan2(w, u), math.atan2(v, h), V, p, q, r)

    zero = (0.0, 0.0, 0.0)
    c_phi, c_theta, *c_rate = kernel.rate_tangents(terms, (u, v, w), (p, q, r), (
        (zero, (0.0, cth * cphi, -cth * sphi)),
        (zero, (-cth, -sth * sphi, -sth * cphi)),
        ((1.0, 0.0, 0.0), zero), ((0.0, 1.0, 0.0), zero), ((0.0, 0.0, 1.0), zero)))
    c_rate = [(fx, fy, fz, tx + damping[i], ty + damping[3 + i], tz + damping[6 + i])
              for i, (fx, fy, fz, tx, ty, tz) in enumerate(c_rate)]
    # d(V, alpha, beta)/d(u, v, w), one triple per velocity component.
    chain = ((u / V, -w / h2, -u * v / (h * V2)),
             (v / V, 0.0, h / V2),
             (w / V, u / h2, -w * v / (h * V2)))
    c_vel = [tuple(c + kV * a + ka * b + kb * e for c, a, b, e in zip(col, d_V, d_alpha, d_beta))
             for col, (kV, ka, kb) in zip(
                 kernel.velocity_tangents(terms, (p, q, r),
                                          ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))),
                 chain)]
    A = np.empty((8, 8))
    # phidot = p + tan(theta) (sin(phi) q + cos(phi) r), thetadot = cos(phi) q - sin(phi) r
    A[0] = (tth * (cphi * q - sphi * r), (sphi * q + cphi * r) / (cth * cth), 0.0, 0.0, 0.0,
            1.0, sphi * tth, cphi * tth)
    A[1] = (-sphi * q - cphi * r, 0.0, 0.0, 0.0, 0.0, 0.0, cphi, -sphi)
    A[2:] = np.array(kernel.accelerations(rx, ry, rz, [c_phi, c_theta, *c_vel, *c_rate])).T
    return A


def eigen_report(A):
    """Eigenvalues, Hurwitz flag, and the slowest non-neutral mode."""
    A = np.asarray(A, dtype=float)
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix has non-finite entries")
    try:
        eig = np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc
    nonneutral = eig[np.abs(eig) > NEUTRAL_TOL]
    if nonneutral.size == 0:
        return StabilityReport(eigenvalues=eig, slowest_mode=0.0 + 0.0j, hurwitz=False)
    slowest = nonneutral[np.argmax(nonneutral.real)]
    hurwitz = bool(np.all(nonneutral.real < 0))
    return StabilityReport(eigenvalues=eig, slowest_mode=slowest, hurwitz=hurwitz)
