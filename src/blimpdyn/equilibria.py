"""Steady-state solvers for straight-line and spiral flight, linearization
about equilibria, and eigenvalue stability reporting.

A steady solution is parameterized by the six unknowns
(theta, phi, psidot, V, alpha, beta); the body velocity and rates are
derived from them, which keeps the Newton system 6x6 and well-scaled.
`SteadySolution` is the one record of a steady state: the six unknowns,
the setting that flies them (thrusts, moving-mass position, kind) and
the residual norm of the solve, NaN where nothing was solved, so a
system-identification observation (`sysid`) is the same record; its
body velocity and rates are derived, never stored.
The Jacobian of the residual in those unknowns is exact (`_raw_jacobian`):
the chain rule through the kinematics, the aero partials and the balance
tangents of the vehicle's bound kernel (`dynamics.bind`), which each
solve binds once: theta, phi and psidot are rate tangents, V, alpha and
beta velocity tangents.  A Newton solve builds its moving-mass position,
mass terms and residual scales once (`_rail_system`), and a spiral's
planar seed and its six-equation solve share them; the rail check, the
position on the rail and the attitude check of `linearize` are those of
`frames`.  The residual, the
Jacobian (as its six columns), the trial steps and the norms are Python
float arithmetic, and the kernel's balance takes the kinematics as
separate floats.  The planar trim builds only the nine entries it solves
(`_planar_jacobian`): at psidot = 0 the rates vanish, so its V and alpha
columns are the aero partials and its theta column is one rate tangent,
each entry divided by its row's scale in Python.  numpy scales each
six-column Jacobian the loop builds, as one array of the columns
transposed and divided by a column of the scales (IEEE division is
correctly rounded, so each entry has the bits of a Python division), and
solves each step (`_newton_step`), by LAPACK's dgesv gufunc
(`numpy.linalg._umath_linalg.solve1`, the one `np.linalg.solve` calls for
a vector right-hand side), called directly because the argument checks
of `np.linalg.solve` cost about three times the solve itself at 3x3 and
6x6; one `np.errstate` covers the whole solve.

The Newton loop (`_damped_newton`) is simplified Newton with Deuflhard's
error-oriented damping (*Newton Methods for Nonlinear Problems*, 2004,
section 3.3, NLEQ-ERR).  Each trial step also solves its simplified
correction on the same Jacobian; a trial is accepted when the correction
shrinks by the monotonicity factor 1 - lam/4 or the residual norm falls,
and the correction predicts the damping factor of the next trial and of
the next Jacobian's first.  A full step that contracts at least
`JACOBIAN_KEEP_CUT` times keeps its Jacobian, and its correction is the
next step, tried only in full; any other step, or a kept-Jacobian step
that is rejected (which is dropped), builds a fresh Jacobian for the next
iteration.  A rejected trial at `LAMBDA_MIN` ends the solve with the
iteration and the residual norm as attributes of `NoConvergence` and in
its message.  Once the norm is below `TOL`, one Newton step on a fresh
Jacobian is kept if it lowers the norm: this polish ends each solve near
the floating-point floor, so the unknowns do not depend, beyond about
1e-13 relative, on the path that reached them, and `residual_norm` is the
polished norm.  A converged solve whose airspeed V is not positive (the
vehicle flying backwards) is refused with `NoConvergence`.  A spiral is
one Newton solve at its thrusts from the planar trim at the mean thrust,
solved only to `SEED_TOL` and not polished; only where that solve fails
does `solve_spiral` fall back to a continuation along the moving-mass
rail (`_rail_walk`) from the cell solved at the rail's home to
`SEED_TOL`: one Euler predictor step along the branch tangent, from the
closed-form derivative of the residual in the rail position
(`_rail_derivative`), corrected by a Newton solve, and only where that
fails, `RAIL_STEPS` such steps from the same start and tangent (long
step first, shortened on failure).  Tangents and Newton steps share one
solve (`_newton_step`).  `linearize` is exact from the same tangents and
the kernel's block solve; nothing here is differentiated by finite
differences.
"""

from dataclasses import dataclass, field
import math
from operator import mul

import numpy as np
from numpy.linalg._umath_linalg import solve1 as _lapack_solve

from . import aero as aeromod
from .dynamics import bind
from .frames import (
    GIMBAL_EPS,
    V_MIN,
    EulerAngles,
    GimbalLock,
    State,
    _check_attitude,
    _check_rail_offset,
    rotation_body_to_inertial,
    wrap_angle,
)

# Length scale floor for nondimensionalizing the moment residual [m].
MOMENT_ARM_FLOOR = 0.1

# Predictor-corrector steps of the moving-mass continuation in the spiral
# fallback.
RAIL_STEPS = 2

# Iteration cap and residual-norm tolerance of the damped Newton solve, and
# the smallest damping factor it tries: a rejected trial at this factor
# ends the solve.
MAX_NEWTON_ITER = 100
TOL = 1e-9
LAMBDA_MIN = 0.5 ** 11

# A full Newton step whose simplified correction is at most 1/this of the
# step keeps its Jacobian for the next iteration (simplified Newton).
JACOBIAN_KEEP_CUT = 10.0

# Residual-norm tolerance of the planar trim that seeds a spiral's Newton
# solve: the seed needs only to lie in the spiral's basin.
SEED_TOL = 1e-3

# Airspeed [m/s] of the Newton seed of the planar trim.
SEED_SPEED = 1.0

# Eigenvalues of modulus at most this are neutral (the cyclic states).
NEUTRAL_TOL = 1e-9


class NoConvergence(RuntimeError):
    """Newton iteration failed: its damped step search rejected a trial at
    `LAMBDA_MIN`, the step was not finite, or the residual missed tolerance
    within the iteration cap; or a converged equilibrium has an airspeed
    that is not positive.  `iteration` is the Newton iteration that failed
    and `residual` the residual norm there; both are None where the failure
    did not come from the Newton loop."""

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
    """One steady flight condition, solved or observed: the six unknowns of
    the steady balance (attitude, yaw rate, airspeed and aerodynamic
    angles) and the setting that flies it (the thrusts, the moving-mass
    position and the kind).  `residual_norm` is the solve's polished
    residual norm, NaN where nothing was solved (an extracted, averaged or
    mirrored record).  The body velocity `v_b` and rates `w_b`
    psidot * (-sin theta, sin phi cos theta, cos phi cos theta) follow from
    the unknowns (`_unknowns_to_kinematics`), and `stalled` from alpha,
    set as the record is built, so `dataclasses.replace` sets it again."""

    theta: float
    phi: float
    psidot: float
    V: float
    alpha: float
    beta: float
    Fl: float
    Fr: float
    rbar: np.ndarray
    kind: str
    residual_norm: float = math.nan
    mirrored: bool = False
    stalled: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "stalled", bool(abs(self.alpha) > aeromod.STALL_ALPHA))

    @property
    def unknowns(self):
        """(theta, phi, psidot, V, alpha, beta), in the order
        `_unknowns_to_kinematics` takes them."""
        return self.theta, self.phi, self.psidot, self.V, self.alpha, self.beta

    @property
    def v_b(self):
        """Body velocity [m/s]."""
        return np.array(_unknowns_to_kinematics(self.unknowns)[:3])

    @property
    def w_b(self):
        """Body rates [rad/s]."""
        return np.array(_unknowns_to_kinematics(self.unknowns)[3:6])

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


def _raw_jacobian(x, terms, kernel):
    """Exact Jacobian of `_raw_residual` in the unknowns
    (theta, phi, psidot, V, alpha, beta) at the moving-mass position whose
    mass terms are `terms`, by the chain rule through
    `_unknowns_to_kinematics`, as its six columns, one 6-tuple of floats
    per unknown; the thrusts do not enter it.

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
    rate = ((w_theta, g_theta), (w_phi, g_phi), (gcol, (0.0, 0.0, 0.0)))
    vel = (((ca * cb, sb, sa * cb), d_V),
           ((-sa * cb * V, 0.0, ca * cb * V), d_alpha),
           ((-ca * sb * V, cb * V, -sa * sb * V), d_beta))
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


def _planar_jacobian(x3, terms, kernel, fscale, tscale):
    """The scaled Jacobian of the planar trim at (theta, V, alpha): the
    rows (fx, fz, ty) of `_raw_jacobian` at (theta, 0, 0, V, alpha, 0) in
    the columns (theta, V, alpha), each entry divided by its row's scale;
    three 3-tuples of floats.

    At psidot = 0 the rates w vanish, so every velocity tangent (terms in
    dv x w) is zero: the V and alpha columns are the aero partials at
    beta = 0, and the theta column is the rate tangent that turns the down
    axis alone.  The kernel gets the zero rates psidot * gcol that
    `_raw_jacobian` forms, so each entry has its bits, signed zeros
    included, wherever the dynamic pressure is nonzero; where it
    underflows (|V| below about 1e-154) the V and alpha columns are zeros
    whose signs may differ from it."""
    theta, V, alpha = x3
    sth, cth = math.sin(theta), math.cos(theta)
    ca, sa = math.cos(alpha), math.sin(alpha)
    # psidot * gcol at phi = psidot = 0, gcol = (-sth, sin(0) * cth, cos(0) * cth).
    w_b = (0.0 * -sth, 0.0 * (0.0 * cth), 0.0 * cth)
    (afx, _, afz, _, aty, _), _, (vfx, _, vfz, _, vty, _), _ = (
        kernel.aero.body_load_partials(alpha, 0.0, V, *w_b))
    (gfx, _, gfz, _, gty, _), = kernel.rate_tangents(
        terms, (ca * V, 0.0 * V, sa * V), w_b, (((0.0, 0.0, 0.0), (-cth, -0.0 * sth, -sth)),))
    return ((gfx / fscale, vfx / fscale, afx / fscale),
            (gfz / fscale, vfz / fscale, afz / fscale),
            (gty / tscale, vty / tscale, aty / tscale))


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


def _scales(params, rbar):
    fscale = params.total_mass * params.g
    tscale = fscale * max(float(np.linalg.norm(rbar)), MOMENT_ARM_FLOOR)
    return fscale, tscale


def _rail_system(dr_x, params, kernel):
    """What a Newton solve at rail offset dr_x [m] needs of it: the
    moving-mass position (a float list), its mass terms and the residual
    scales (`_scales`)."""
    _check_rail_offset(dr_x)
    rbar = params.rail_position(dr_x).tolist()
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
    """Damped simplified Newton to the residual norm `tol`, with
    Deuflhard's error-oriented damping (NLEQ-ERR; *Newton Methods for
    Nonlinear Problems*, 2004, section 3.3), ended by a polishing step;
    returns (x, residual_norm), x an array.

    `fun(x)` is the residual and `jac(x)` its exact Jacobian (rows; an
    array or nested lists) at the float list x.  A fresh Jacobian's step
    dx (`_newton_step`) starts at the predicted damping factor
    lam = min(1, mu), mu = lam' |dx'| |dxbar| / (|dxbar - dx| |dx|) from
    the last accepted step lam' dx' and the simplified correction dxbar
    at its end (lam = 1 on the first Jacobian).  Each trial x + lam dx
    above `tol` solves its simplified correction dxbar = -J^-1 F(x + lam dx)
    on the same Jacobian, and is accepted when |dxbar| <= (1 - lam/4) |dx|
    or when the residual norm falls.  A rejected trial sets
    lam = max(`LAMBDA_MIN`, min(lam/2, mu')), mu' = lam^2 |dx| / 2
    |dxbar - (1 - lam) dx| (lam/2 where dxbar is not defined); a rejected
    trial at `LAMBDA_MIN` ends the solve.  An accepted full step whose
    contraction |dxbar| / |dx| is at most 1 / `JACOBIAN_KEEP_CUT` keeps
    its Jacobian, and dxbar is the next iteration's step, tried only in
    full; if that trial is rejected, the next iteration builds a fresh
    Jacobian at the same point, as it does after any other step.  Once
    the norm is below `tol`, and if it is below `TOL` (a seed solved to a
    looser `tol` is not), one Newton step on a fresh Jacobian at that
    point is kept if it lowers the norm, so a solve ends near the
    floating-point floor whichever path it took.  A failure raises
    `NoConvergence` with the iteration and the residual norm.  The loop
    steps Python floats, takes each norm by `_norm` and runs under one
    `np.errstate(invalid="ignore")`, which restores the caller's error
    state however it ends."""
    with np.errstate(invalid="ignore"):
        x = [float(v) for v in x0]
        f = fun(x)
        fnorm = _norm(f)
        # `last` is (lam |dx|, dxbar, |dxbar|) of the last accepted step;
        # a kept J takes its dxbar, the step at x on J, as the next step.
        J = last = None
        for it in range(1, MAX_NEWTON_ITER + 1):
            if fnorm < tol:
                break
            kept = J is not None
            lam = 1.0
            if kept:
                _, dx, dx_norm = last
            else:
                J = np.asarray(jac(x))
                dx = _newton_step(J, f, it, fnorm)
                dx_norm = _norm(dx)
                if last is not None:
                    lam_dx, bar, bar_norm = last
                    den = _norm([a - b for a, b in zip(bar, dx)]) * dx_norm
                    if den:
                        lam = max(LAMBDA_MIN, min(1.0, lam_dx * bar_norm / den))
            while True:
                x_new = [a + lam * b for a, b in zip(x, dx)]
                f_new = fun(x_new)
                fnorm_new = _norm(f_new)
                if fnorm_new < tol:
                    last = None
                    break
                mu = math.inf
                if math.isfinite(fnorm_new):
                    bar = _newton_step(J, f_new, it, fnorm_new)
                    bar_norm = _norm(bar)
                    if fnorm_new < fnorm or bar_norm <= (1.0 - 0.25 * lam) * dx_norm:
                        last = (lam * dx_norm, bar, bar_norm)
                        break
                    den = _norm([a - (1.0 - lam) * b for a, b in zip(bar, dx)])
                    if den:
                        mu = 0.5 * dx_norm * lam * lam / den
                if kept:
                    J = None
                    break
                if lam == LAMBDA_MIN:
                    raise NoConvergence(f"step halving exhausted at iteration {it} "
                                        f"(residual {fnorm:.3e})", it, fnorm)
                lam = max(LAMBDA_MIN, min(0.5 * lam, mu))
            if J is None:  # a rejected step on a kept J: rebuild it at x
                continue
            if last is None or lam != 1.0 or JACOBIAN_KEEP_CUT * last[2] > dx_norm:
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


def _make_solution(x, fnorm, kind, Fl, Fr, rbar):
    """The `SteadySolution` of the converged unknowns x at its setting; an
    airspeed that is not positive (the vehicle flying backwards) raises
    `NoConvergence`.  Pitch and roll are wrapped to (-pi, pi] by
    `frames.wrap_angle`, which returns an angle inside it unchanged."""
    if not x[3] > 0.0:
        raise NoConvergence(f"equilibrium airspeed {x[3]:.3g} m/s is not positive "
                            f"(residual {fnorm:.3e})")
    theta, phi, psidot, V, alpha, beta = x.tolist()
    return SteadySolution(wrap_angle(theta), wrap_angle(phi), psidot, V, alpha, beta,
                          Fl=Fl, Fr=Fr, rbar=rbar, kind=kind, residual_norm=float(fnorm))


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

    # Rows (fx, fz, ty), columns (theta, V, alpha) of the full system.
    def fun3(x3):
        theta, V, alpha = x3
        fx, _, fz, _, ty, _ = _raw_residual((theta, 0.0, 0.0, V, alpha, 0.0), F, F, rbar,
                                            terms, kernel)
        return (fx / fscale, fz / fscale, ty / tscale)

    def jac3(x3):
        return np.array(_planar_jacobian(x3, terms, kernel, fscale, tscale))

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
    return _make_solution(x, fnorm, "straight", F, F, params.rail_position(dr_x))


def _spiral_newton(x0, Fl, Fr, system, kernel, tol=TOL):
    """The six-equation Newton solve at thrusts Fl, Fr from x0, at the rail
    position of `system` (`_rail_system`), to the residual norm `tol`."""
    rbar, terms, fscale, tscale = system
    scale = np.array([[fscale]] * 3 + [[tscale]] * 3)

    def fun6(xx):
        fx, fy, fz, tx, ty, tz = _raw_residual(xx, Fl, Fr, rbar, terms, kernel)
        return (fx / fscale, fy / fscale, fz / fscale, tx / tscale, ty / tscale, tz / tscale)

    def jac6(xx):
        return np.array(_raw_jacobian(xx, terms, kernel)).T / scale

    return _damped_newton(fun6, jac6, x0, tol)


def _solve_spiral_direct(dr_x, Fl, Fr, params, model, kernel, tol=TOL):
    """One Newton solve at the given thrusts to the residual norm `tol`,
    seeded from the planar trim at the mean thrust, solved to `SEED_TOL`;
    both at the one rail position of dr_x."""
    system = _rail_system(dr_x, params, kernel)
    x0, _ = _straight_trim(0.5 * (Fl + Fr), system, params, model, kernel, SEED_TOL)
    return _spiral_newton(x0, Fl, Fr, system, kernel, tol)


def _rail_tangent(x, fnorm, rbar, kernel, mbar):
    """The branch tangent dx/d(dr_x) = -J^-1 dR/d(dr_x) at the unknowns x,
    whose residual norm is `fnorm`, and the moving-mass position rbar (a
    float list), as an array: the Newton step (`_newton_step`) of the
    unscaled Jacobian on the rail derivative (`_rail_derivative`), so a
    singular J takes the least-norm tangent, which leaves its flat
    directions untouched."""
    J = np.array(_raw_jacobian(x, kernel.mass_terms(*rbar), kernel)).T
    with np.errstate(invalid="ignore"):
        return np.array(_newton_step(J, _rail_derivative(x, rbar, kernel, mbar), 0, fnorm))


def _rail_walk(x, tangent, dr_x, steps, Fl, Fr, params, kernel):
    """Walk the spiral at thrusts Fl, Fr from the unknowns x at dr_x = 0,
    whose branch tangent is `tangent` (`_rail_tangent`), out to dr_x in
    `steps` equal steps: each an Euler predictor along the tangent at its
    start, corrected by a Newton solve to `TOL`; returns the last solve's
    (x, residual_norm).  A failed intermediate corrector raises
    `ContinuationBreakdown`, a failed last one its `NoConvergence`."""
    dr_prev = 0.0
    for dr_k in np.linspace(dr_x / steps, dr_x, steps):
        if dr_prev:
            tangent = _rail_tangent(x, fnorm, rbar, kernel, params.mbar)
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
    return x, fnorm


def solve_spiral(dr_x, Fl, Fr, params, model):
    """Steady spiral equilibrium under differential thrust.

    Seeds from the straight solution at the mean thrust and solves the
    six-equation balance at the given thrusts in one Newton solve.  With
    equal thrust the result has kind "straight": the solve absorbs the
    mm-scale lateral asymmetries of the vehicle in (typically tiny) phi,
    psidot, beta.  If that solve fails away from dr_x = 0 (at large
    moving-mass offsets the equilibrium can lie on a branch that the
    planar seed does not reach), or lands at an airspeed that is not
    positive, solves the same thrusts at dr_x = 0 to `SEED_TOL` and walks
    the moving mass out to dr_x along the branch (natural-parameter
    continuation, `_rail_walk`): first in one step, an Euler predictor
    along the branch tangent dx/d(dr_x) = -J^-1 dR/d(dr_x) at dr_x = 0
    corrected by a Newton solve, and only where that step fails (or lands
    at an airspeed that is not positive) again from the same start and
    tangent in `RAIL_STEPS` equal steps.  A failed intermediate step of
    that walk raises `ContinuationBreakdown`, a failed last step
    `NoConvergence`."""
    kernel = bind(params, model)
    setting = ("straight" if Fl == Fr else "spiral", Fl, Fr, params.rail_position(dr_x))
    try:
        return _make_solution(*_solve_spiral_direct(dr_x, Fl, Fr, params, model, kernel),
                              *setting)
    except NoConvergence:
        if abs(dr_x) < 1e-12:
            raise
    x, fnorm = _solve_spiral_direct(0.0, Fl, Fr, params, model, kernel, SEED_TOL)
    tangent = _rail_tangent(x, fnorm, params.rbar0.tolist(), kernel, params.mbar)
    try:
        return _make_solution(*_rail_walk(x, tangent, dr_x, 1, Fl, Fr, params, kernel), *setting)
    except NoConvergence:
        pass
    return _make_solution(*_rail_walk(x, tangent, dr_x, RAIL_STEPS, Fl, Fr, params, kernel),
                          *setting)


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
    u, v, w, p, q, r = _unknowns_to_kinematics(sol.unknowns)[:6]
    if abs(theta) >= math.pi / 2 - GIMBAL_EPS:
        raise GimbalLock(f"pitch angle {theta:.4f} rad too close to +-pi/2")
    _check_attitude(phi, theta)
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
