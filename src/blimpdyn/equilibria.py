"""Steady-state solvers for straight-line and spiral flight, linearization
about equilibria, and eigenvalue stability reporting.

A steady solution is parameterized by the six unknowns
(theta, phi, psidot, V, alpha, beta); the body velocity and rates are
derived from them, which keeps the Newton system 6x6 and well-scaled.
The Jacobian of the residual in those unknowns is exact (`_raw_jacobian`):
the chain rule through the kinematics, the aero partials and the balance
tangents of the vehicle's bound kernel (`dynamics.bind`), which each
solve binds once: theta, phi and psidot are rate tangents, V, alpha and
beta velocity tangents.  A Newton solve builds its moving-mass position,
mass terms and residual scales once (`_rail_system`), and a spiral's
planar seed and its six-equation solve share them.  The residual, the
Jacobian (as its columns, built only for the unknowns being solved for),
the trial steps and the norms are Python float arithmetic, and the
kernel's balance takes the kinematics as separate floats.  numpy scales
each Jacobian the loop builds, as one array of the columns transposed and
divided by a column of the scales (IEEE division is correctly rounded,
so each entry has the bits of a Python division), and solves each step
(`_newton_step`), by LAPACK's dgesv gufunc
(`numpy.linalg._umath_linalg.solve1`, the one `np.linalg.solve` calls for
a vector right-hand side), called directly because the argument checks
of `np.linalg.solve` cost about three times the solve itself at 3x3 and
6x6; one `np.errstate` covers the whole solve.

The Newton loop (`_damped_newton`) is simplified Newton (Deuflhard,
*Newton Methods for Nonlinear Problems*, 2004).  A full step that cuts
the residual norm at least `JACOBIAN_KEEP_CUT` times keeps its Jacobian,
and the next iteration tries only the full step on it; any other step,
or a kept-Jacobian step that does not lower the norm (which is dropped),
builds a fresh Jacobian for the next iteration.  On a fresh Jacobian an
iteration tries at most `MAX_HALVINGS` steps, the full step and then half
the last one, and then fails with the iteration and the residual norm as
attributes of `NoConvergence` and in its message.  Once the norm is below
`TOL`, one Newton step on a fresh Jacobian is kept if it lowers the norm:
this polish ends each solve near the floating-point floor, so the
unknowns do not depend, beyond about 1e-13 relative, on the path that
reached them, and `residual_norm` is the polished norm.  A spiral is one
Newton solve at its thrusts from the planar trim at the mean thrust,
solved only to `SEED_TOL` and not polished; only where that solve fails
does `solve_spiral` fall back to a continuation along the moving-mass
rail: `RAIL_STEPS` Euler predictor steps along the branch tangent, from
the closed-form derivative of the residual in the rail position
(`_rail_derivative`), each corrected by a Newton solve.  `linearize` is
exact from the same tangents and the kernel's block solve; nothing here
is differentiated by finite differences.
"""

from dataclasses import dataclass
import math
from operator import mul

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

# A full Newton step that cuts the residual norm at least this many times
# keeps its Jacobian for the next iteration (simplified Newton).
JACOBIAN_KEEP_CUT = 10.0

# Residual-norm tolerance of the planar trim that seeds a spiral's Newton
# solve: the seed needs only to lie in the spiral's basin.
SEED_TOL = 1e-3

# The unknowns (theta, V, alpha) of the planar trim, as indices into the six
# (theta, phi, psidot, V, alpha, beta).
PLANAR_UNKNOWNS = (0, 3, 4)

# Airspeed [m/s] of the Newton seed of the planar trim.
SEED_SPEED = 1.0

# Eigenvalues of modulus at most this are neutral (the cyclic states).
NEUTRAL_TOL = 1e-9


class NoConvergence(RuntimeError):
    """Newton iteration failed: its step-halving search found no step that
    lowers the residual norm, the step was not finite, or the residual
    missed tolerance within the iteration cap.  `iteration` is the Newton
    iteration that failed and `residual` the residual norm there; both are
    None where the failure did not come from the Newton loop."""

    def __init__(self, message, iteration=None, residual=None):
        super().__init__(message)
        self.iteration = iteration
        self.residual = residual


class ContinuationBreakdown(NoConvergence):
    """An intermediate step of the spiral solver's moving-mass continuation
    failed; `iteration` and `residual` are those of the Newton failure it
    wraps."""


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
    body rates and the inertial down axis in body axes: nine floats
    (vx, vy, vz, wx, wy, wz, gx, gy, gz), in the order `Kernel.balance`
    takes them."""
    theta, phi, psidot, V, alpha, beta = x
    sth, cth = math.sin(theta), math.cos(theta)
    sphi, cphi = math.sin(phi), math.cos(phi)
    ca, sa = math.cos(alpha), math.sin(alpha)
    cb, sb = math.cos(beta), math.sin(beta)
    # Steady turn: omega = psidot * R^T k, and R^T k is the down axis.
    gx, gy, gz = -sth, sphi * cth, cphi * cth
    # Body velocity: the wind-to-body rotation applied to (V, 0, 0).
    return (ca * cb * V, sb * V, sa * cb * V, psidot * gx, psidot * gy, psidot * gz,
            gx, gy, gz)


def _raw_residual(x, Fl, Fr, rbar, terms, kernel):
    """Unscaled force/moment balance of the steady-state equations of the
    vehicle bound in `kernel` (`dynamics.bind`), at the unknowns `x` and
    the moving-mass position `rbar` (float sequences), whose mass terms
    are `terms` (`kernel.mass_terms(*rbar)`); six floats."""
    vx, vy, vz, wx, wy, wz, gx, gy, gz = _unknowns_to_kinematics(x)
    rx, ry, rz = rbar
    ax, ay, az, amx, amy, amz = kernel.aero.body_loads(x[4], x[5], x[3], wx, wy, wz)
    fx, fy, fz, tx, ty, tz = kernel.balance(terms, vx, vy, vz, wx, wy, wz, gx, gy, gz,
                                            rx, ry, rz, 0.0, 0.0, 0.0, Fl, Fr)
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
    k = _unknowns_to_kinematics(x)
    rx, ry, rz = rbar
    d_terms = ((mbar, 0.0, 0.0),
               (0.0, -mbar * ry, -mbar * rz,
                -mbar * ry, 2.0 * mbar * rx, 0.0,
                -mbar * rz, 0.0, 2.0 * mbar * rx))
    at_d = kernel.balance(d_terms, *k, rx, ry, rz, 0.0, 0.0, 0.0, 0.0, 0.0)
    at_zero = kernel.balance(((0.0, 0.0, 0.0), (0.0,) * 9), *k, rx, ry, rz, 0.0, 0.0, 0.0,
                             0.0, 0.0)
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


def _rail_system(dr_x, params, kernel):
    """What a Newton solve at rail offset dr_x [m] needs of it: the
    moving-mass position (a float list), its mass terms and the residual
    scales (`_scales`)."""
    if abs(dr_x) > RAIL_LIMIT + 1e-12:
        raise ValueError(f"dr_x {dr_x} m outside rail limit +-{RAIL_LIMIT} m")
    rbar = _rail_position(params, dr_x)
    return (rbar, kernel.mass_terms(*rbar), *_scales(params, rbar))


def _norm(f):
    """Euclidean norm of a float sequence: the square root of the builtin
    `sum` of the squares."""
    return math.sqrt(sum(map(mul, f, f)))


def _newton_step(J, f, it, fnorm):
    """The Newton step -J^-1 f of iteration `it` (J an array, f the
    residual floats, whose norm is `fnorm`), as a float list.

    numpy solves it through `_lapack_solve`, LAPACK's dgesv gufunc
    (`solve1`) that `np.linalg.solve` calls for a vector right-hand side:
    the same bits, without the argument checks and error-state set-up that
    cost `np.linalg.solve` about three times the solve.  The gufunc clears
    every floating-point flag but `invalid`, which it raises (with a
    non-finite step) on a singular J; the caller runs under
    `np.errstate(invalid="ignore")`.  A non-finite step falls back to the
    least-norm step."""
    minus_f = np.array([-v for v in f])
    try:
        dx = _lapack_solve(J, minus_f).tolist()
        if not all(map(math.isfinite, dx)):
            raise np.linalg.LinAlgError("non-finite Newton step")
    except np.linalg.LinAlgError:
        if not (np.isfinite(J).all() and np.isfinite(minus_f).all()):
            raise NoConvergence(f"non-finite Jacobian or residual at iteration {it} "
                                f"(residual {fnorm:.3e})", it, fnorm) from None
        # Singular Jacobian: fully balanced configurations have flat
        # directions (e.g. pitch with zero CG offset and no pitch
        # stiffness).  Take the least-norm step, which leaves flat
        # directions untouched.
        dx = np.linalg.lstsq(J, minus_f, rcond=None)[0].tolist()
        if not all(map(math.isfinite, dx)):
            raise NoConvergence(f"singular Jacobian with no usable step at iteration "
                                f"{it} (residual {fnorm:.3e})", it, fnorm)
    return dx


def _damped_newton(fun, jac, x0, tol=TOL):
    """Damped simplified Newton to the residual norm `tol`, ended by a
    polishing step; returns (x, residual_norm), x an array.

    `fun(x)` is the residual and `jac(x)` its exact Jacobian (rows; an
    array or nested lists) at the float list x.  Each iteration solves one
    step (`_newton_step`).  On a fresh Jacobian it tries at most
    `MAX_HALVINGS` trial steps, the full step and then half the last one,
    and takes the first that lowers the residual norm.  A full step that
    cuts the norm at least `JACOBIAN_KEEP_CUT` times keeps its Jacobian
    for the next iteration, which tries only the full step on it; any
    other step, or a kept-Jacobian step that does not lower the norm (and
    is then dropped), builds a fresh Jacobian next.  Once the norm is below
    `tol`, and if it is below `TOL` (a seed solved to a looser `tol` is
    not), one Newton step on a fresh Jacobian at that point is kept if it
    lowers the norm, so a solve ends near the floating-point floor
    whichever path it took.  A failure raises `NoConvergence` with the
    iteration and the residual norm.  The loop steps Python floats, takes
    each norm by `_norm` and runs under one `np.errstate(invalid="ignore")`,
    which restores the caller's error state however it ends."""
    with np.errstate(invalid="ignore"):
        x = [float(v) for v in x0]
        f = fun(x)
        fnorm = _norm(f)
        J = None
        for it in range(1, MAX_NEWTON_ITER + 1):
            if fnorm < tol:
                break
            kept = J is not None
            if not kept:
                J = np.asarray(jac(x))
            dx = _newton_step(J, f, it, fnorm)
            for k in range(1 if kept else MAX_HALVINGS):
                lam = 0.5 ** k
                x_new = [a + lam * b for a, b in zip(x, dx)]
                f_new = fun(x_new)
                fnorm_new = _norm(f_new)
                if fnorm_new < fnorm:
                    break
            else:
                if kept:
                    J = None
                    continue
                raise NoConvergence(f"step halving exhausted at iteration {it} "
                                    f"(residual {fnorm:.3e})", it, fnorm)
            if k or JACOBIAN_KEEP_CUT * fnorm_new > fnorm:
                J = None
            x, f, fnorm = x_new, f_new, fnorm_new
        else:
            if not fnorm < tol:
                raise NoConvergence(f"residual {fnorm:.3e} after {MAX_NEWTON_ITER} iterations",
                                    MAX_NEWTON_ITER, fnorm)
        if fnorm < TOL:
            x_new = [a + b for a, b in zip(x, _newton_step(np.asarray(jac(x)), f, it, fnorm))]
            f_new = fun(x_new)
            fnorm_new = _norm(f_new)
            if fnorm_new < fnorm:
                x, fnorm = x_new, fnorm_new
    return np.array(x), fnorm


def _make_solution(x, fnorm, kind):
    k = _unknowns_to_kinematics(x)
    return SteadySolution(
        theta=float(x[0]),
        phi=float(x[1]),
        psidot=float(x[2]),
        V=float(x[3]),
        alpha=float(x[4]),
        beta=float(x[5]),
        v_b=np.array(k[:3]),
        w_b=np.array(k[3:6]),
        residual_norm=float(fnorm),
        kind=kind,
        stalled=bool(abs(x[4]) > aeromod.STALL_ALPHA),
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


def _straight_trim(F, system, params, model, kernel, tol=TOL):
    """The planar trim of `solve_straight` at equal thrust F on the vehicle
    bound in `kernel`, at the rail position of `system` (`_rail_system`),
    solved to the residual norm `tol`: (x, residual_norm), x the six
    unknowns as an array."""
    rbar, terms, fscale, tscale = system
    scale = np.array([[fscale], [fscale], [tscale]])

    # Rows (fx, fz, ty), columns (theta, V, alpha) of the full system.
    def fun3(x3):
        theta, V, alpha = x3
        fx, _, fz, _, ty, _ = _raw_residual((theta, 0.0, 0.0, V, alpha, 0.0), F, F, rbar,
                                            terms, kernel)
        return (fx / fscale, fz / fscale, ty / tscale)

    def jac3(x3):
        theta, V, alpha = x3
        return np.array(_raw_jacobian((theta, 0.0, 0.0, V, alpha, 0.0), terms, kernel,
                                      PLANAR_UNKNOWNS)).T[::2] / scale

    a0 = _initial_alpha(params, model)
    x3, fnorm = _damped_newton(fun3, jac3, (a0, SEED_SPEED, a0), tol)
    return np.array([x3[0], 0.0, 0.0, x3[1], x3[2], 0.0]), fnorm


def solve_straight(dr_x, F, params, model):
    """Planar straight-line trim at moving-mass displacement dr_x [m] with
    equal per-propeller thrust F [N].  Solves (theta, V, alpha) with
    beta = phi = psidot = 0."""
    kernel = bind(params, model)
    x, fnorm = _straight_trim(F, _rail_system(dr_x, params, kernel), params, model, kernel)
    # residual_norm covers the solved planar subsystem; lateral components
    # are identically zero only for a y-symmetric vehicle.
    return _make_solution(x, fnorm, "straight")


def _spiral_newton(x0, Fl, Fr, system, kernel):
    """The six-equation Newton solve at thrusts Fl, Fr from x0, at the rail
    position of `system` (`_rail_system`)."""
    rbar, terms, fscale, tscale = system
    scale = np.array([[fscale]] * 3 + [[tscale]] * 3)

    def fun6(xx):
        fx, fy, fz, tx, ty, tz = _raw_residual(xx, Fl, Fr, rbar, terms, kernel)
        return (fx / fscale, fy / fscale, fz / fscale, tx / tscale, ty / tscale, tz / tscale)

    def jac6(xx):
        return np.array(_raw_jacobian(xx, terms, kernel)).T / scale

    return _damped_newton(fun6, jac6, x0)


def _solve_spiral_direct(dr_x, Fl, Fr, params, model, kernel):
    """One Newton solve at the given thrusts, seeded from the planar trim
    at the mean thrust, solved to `SEED_TOL`; both at the one rail position
    of dr_x."""
    system = _rail_system(dr_x, params, kernel)
    x0, _ = _straight_trim(0.5 * (Fl + Fr), system, params, model, kernel, SEED_TOL)
    return _spiral_newton(x0, Fl, Fr, system, kernel)


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
        system = _rail_system(dr_k, params, kernel)
        dr_prev, rbar = dr_k, system[0]
        try:
            x, fnorm = _spiral_newton(x, Fl, Fr, system, kernel)
        except NoConvergence as exc:
            if dr_k != dr_x:
                raise ContinuationBreakdown(
                    f"moving-mass continuation failed at dr_x {dr_k:.4f} m: {exc}",
                    exc.iteration, exc.residual) from exc
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
