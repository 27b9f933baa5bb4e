"""Steady-state solvers for straight-line and spiral flight, linearization
about equilibria, and eigenvalue stability reporting.

A steady solution is parameterized by the six unknowns
(theta, phi, psidot, V, alpha, beta); the body velocity and rates are
derived from them, which keeps the Newton system 6x6 and well-scaled.
Each Newton step uses the exact Jacobian of the residual in those
unknowns (`_raw_jacobian`): the chain rule through the kinematics, the
aero partials and the balance tangents of the vehicle's bound kernel
(`dynamics.bind`), which each solve binds once.  A spiral is one Newton
solve at its thrusts from the planar trim; only where that fails does
`solve_spiral` fall back to a continuation along the moving-mass rail.
"""

from dataclasses import dataclass
import math

import numpy as np

from . import aero as aeromod
from .dynamics import bind
from .frames import EulerAngles, State, rotation_body_to_inertial

STALL_ALPHA = aeromod.STALL_ALPHA

# Travel limit of the moving-mass rail [m] around its home position.
DEFAULT_RAIL_LIMIT = 0.06

# Length scale floor for nondimensionalizing the moment residual [m].
MOMENT_ARM_FLOOR = 0.1

# Newton steps of the moving-mass continuation in the spiral fallback.
RAIL_STEPS = 10


class NoConvergence(RuntimeError):
    """Newton iteration failed to meet tolerance within the iteration cap."""


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


def _raw_residual(x, Fl, Fr, rbar, kernel):
    """Unscaled force/moment balance of the steady-state equations of the
    vehicle bound in `kernel` (`dynamics.bind`)."""
    x = np.asarray(x, dtype=float).tolist()
    v_b, w_b, gcol = _unknowns_to_kinematics(x)
    rbar = np.asarray(rbar, dtype=float).tolist()
    aero = kernel.aero.body_loads(x[4], x[5], x[3], *w_b)
    rest = kernel.balance(kernel.mass_terms(*rbar), v_b, w_b, gcol, rbar, (0.0, 0.0, 0.0),
                          Fl, Fr)
    return np.array([a + b for a, b in zip(aero, rest)])


def _raw_jacobian(x, rbar, kernel):
    """Exact 6x6 Jacobian of `_raw_residual` in the unknowns
    (theta, phi, psidot, V, alpha, beta), by the chain rule through
    `_unknowns_to_kinematics`; the thrusts do not enter it."""
    x = np.asarray(x, dtype=float).tolist()
    theta, phi, psidot, V, alpha, beta = x
    v_b, w_b, gcol = _unknowns_to_kinematics(x)
    rbar = np.asarray(rbar, dtype=float).tolist()
    d_alpha, d_beta, d_V, (Kxx, Kxy, Kxz, Kyx, Kyy, Kyz, Kzx, Kzy, Kzz) = (
        kernel.aero.body_load_partials(alpha, beta, V, *w_b))
    sth, cth = math.sin(theta), math.cos(theta)
    sphi, cphi = math.sin(phi), math.cos(phi)
    ca, sa = math.cos(alpha), math.sin(alpha)
    cb, sb = math.cos(beta), math.sin(beta)
    zero = (0.0, 0.0, 0.0)
    # theta, phi: the down axis turns and the rates w = psidot * gcol follow
    # it; psidot: the rates move along gcol.  V, alpha, beta: the body
    # velocity moves.
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
    cols = kernel.balance_tangents(kernel.mass_terms(*rbar), v_b, w_b, gcol, tangents)
    # The aero loads see the rates only through their damping map.
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
    return np.array(cols).T


def _scales(params, rbar):
    fscale = params.total_mass * params.g
    tscale = fscale * max(float(np.linalg.norm(rbar)), MOMENT_ARM_FLOOR)
    return fscale, tscale


def steady_residual(sol, control, rbar, params, model):
    """Nondimensional 6-vector steady residual of a candidate solution."""
    rbar = np.asarray(rbar, dtype=float).reshape(3)
    x = np.array([sol.theta, sol.phi, sol.psidot, sol.V, sol.alpha, sol.beta])
    raw = _raw_residual(x, control.Fl, control.Fr, rbar, bind(params, model))
    fscale, tscale = _scales(params, rbar)
    return np.concatenate([raw[:3] / fscale, raw[3:] / tscale])


def _damped_newton(fun, jac, x0, tol=1e-9, max_iter=100):
    """Newton with step halving; returns (x, residual_norm).

    `jac(x)` is the exact Jacobian of `fun` at x, so an iteration costs
    one Jacobian and one residual per trial step of the halving search."""
    x = np.asarray(x0, dtype=float).copy()
    f = fun(x)
    fnorm = np.linalg.norm(f)
    for _ in range(max_iter):
        if fnorm < tol:
            return x, fnorm
        J = jac(x)
        try:
            dx = np.linalg.solve(J, -f)
            if not np.all(np.isfinite(dx)):
                raise np.linalg.LinAlgError("non-finite Newton step")
        except np.linalg.LinAlgError:
            # Singular Jacobian: fully balanced configurations have flat
            # directions (e.g. pitch with zero CG offset and no pitch
            # stiffness).  Take the least-norm step, which leaves flat
            # directions untouched.
            dx = np.linalg.lstsq(J, -f, rcond=None)[0]
            if not np.all(np.isfinite(dx)):
                raise NoConvergence("singular Jacobian with no usable step")
        lam = 1.0
        for _ in range(20):
            x_new = x + lam * dx
            f_new = fun(x_new)
            if np.linalg.norm(f_new) < fnorm:
                break
            lam *= 0.5
        else:
            raise NoConvergence("step halving exhausted")
        x, f = x_new, f_new
        fnorm = np.linalg.norm(f)
    if fnorm < tol:
        return x, fnorm
    raise NoConvergence(f"residual {fnorm:.3e} after {max_iter} iterations")


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
        stalled=abs(x[4]) > STALL_ALPHA,
    )


def _initial_alpha(F_per_prop, params, model, V0=1.0):
    """Crude lift-balance guess: C_L at V0 must carry the net weight."""
    q = 0.5 * params.rho * V0 * V0 * model.a_ref
    cl_needed = params.net_weight / q
    if abs(model.cl_a) > 1e-9:
        a0 = (cl_needed - model.cl0) / model.cl_a
    else:
        a0 = 0.0
    return float(np.clip(a0, -0.2, 0.3))


def solve_straight(dr_x, F, params, model, rail_limit=DEFAULT_RAIL_LIMIT,
                   tol=1e-9, V0=1.0):
    """Planar straight-line trim at moving-mass displacement dr_x [m] with
    equal per-propeller thrust F [N].  Solves (theta, V, alpha) with
    beta = phi = psidot = 0."""
    if abs(dr_x) > rail_limit + 1e-12:
        raise ValueError(f"dr_x {dr_x} m outside rail limit +-{rail_limit} m")
    rbar = params.rbar0 + np.array([dr_x, 0.0, 0.0])
    fscale, tscale = _scales(params, rbar)
    scale = np.concatenate([np.full(3, fscale), np.full(3, tscale)])

    rows, cols = [0, 2, 4], [0, 3, 4]
    kernel = bind(params, model)

    def fun3(x3):
        x = np.array([x3[0], 0.0, 0.0, x3[1], x3[2], 0.0])
        raw = _raw_residual(x, F, F, rbar, kernel)
        return raw[rows] / scale[rows]

    def jac3(x3):
        x = np.array([x3[0], 0.0, 0.0, x3[1], x3[2], 0.0])
        J = _raw_jacobian(x, rbar, kernel)
        return J[np.ix_(rows, cols)] / scale[rows, None]

    a0 = _initial_alpha(F, params, model, V0)
    x3, fnorm = _damped_newton(fun3, jac3, np.array([a0, V0, a0]), tol=tol)
    x = np.array([x3[0], 0.0, 0.0, x3[1], x3[2], 0.0])
    # residual_norm covers the solved planar subsystem; lateral components
    # are identically zero only for a y-symmetric vehicle.
    return _make_solution(x, fnorm, "straight")


def _spiral_newton(x0, Fl, Fr, rbar, params, kernel, tol):
    fscale, tscale = _scales(params, rbar)
    scale = np.concatenate([np.full(3, fscale), np.full(3, tscale)])

    def fun6(xx):
        return _raw_residual(xx, Fl, Fr, rbar, kernel) / scale

    def jac6(xx):
        return _raw_jacobian(xx, rbar, kernel) / scale[:, None]

    return _damped_newton(fun6, jac6, x0, tol=tol)


def _solve_spiral_direct(dr_x, Fl, Fr, params, model, kernel, rail_limit, tol):
    """One Newton solve at the given thrusts, seeded from the planar trim
    at the mean thrust."""
    straight = solve_straight(dr_x, 0.5 * (Fl + Fr), params, model,
                              rail_limit=rail_limit, tol=tol)
    x0 = np.array([straight.theta, 0.0, 0.0, straight.V, straight.alpha, 0.0])
    rbar = params.rbar0 + np.array([dr_x, 0.0, 0.0])
    return _spiral_newton(x0, Fl, Fr, rbar, params, kernel, tol)


def solve_spiral(dr_x, Fl, Fr, params, model, rail_limit=DEFAULT_RAIL_LIMIT, tol=1e-9):
    """Steady spiral equilibrium under differential thrust.

    Seeds from the straight solution at the mean thrust and solves the
    six-equation balance at the given thrusts in one Newton solve.  With
    equal thrust the result has kind "straight": the solve absorbs the
    mm-scale lateral asymmetries of the vehicle in (typically tiny) phi,
    psidot, beta.  If that solve fails away from dr_x = 0 (at large
    moving-mass offsets the equilibrium can lie on a branch that the
    planar seed does not reach), solves the same thrusts at dr_x = 0 and
    walks the moving mass out to dr_x in `RAIL_STEPS` Newton steps; a
    failed intermediate step raises `ContinuationBreakdown`."""
    kernel = bind(params, model)
    kind = "straight" if Fl == Fr else "spiral"
    try:
        x, fnorm = _solve_spiral_direct(dr_x, Fl, Fr, params, model, kernel, rail_limit, tol)
    except NoConvergence:
        if abs(dr_x) < 1e-12:
            raise
    else:
        return _make_solution(x, fnorm, kind)
    x, fnorm = _solve_spiral_direct(0.0, Fl, Fr, params, model, kernel, rail_limit, tol)
    for dr_k in np.linspace(dr_x / RAIL_STEPS, dr_x, RAIL_STEPS):
        rbar = params.rbar0 + np.array([dr_k, 0.0, 0.0])
        try:
            x, fnorm = _spiral_newton(x, Fl, Fr, rbar, params, kernel, tol)
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


# Indices of the reduced linearization state within the 18-vector:
# (phi, theta, u, v, w, p, q, r).  Position and yaw are cyclic; the
# moving mass is frozen.
_LIN_IDX = np.array([3, 4, 6, 7, 8, 9, 10, 11])


def linearize(sol, control, rbar, params, model):
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
        ydot = deriv(y, control.Fl, control.Fr, 0.0, 0.0, 0.0)
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


def eigen_report(A, neutral_tol=1e-9):
    """Eigenvalues, Hurwitz flag, and the slowest non-neutral mode."""
    A = np.asarray(A, dtype=float)
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix has non-finite entries")
    try:
        eig = np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc
    nonneutral = eig[np.abs(eig) > neutral_tol]
    if nonneutral.size == 0:
        return StabilityReport(eigenvalues=eig, slowest_mode=0.0 + 0.0j, hurwitz=False)
    slowest = nonneutral[np.argmax(nonneutral.real)]
    hurwitz = bool(np.all(nonneutral.real < 0))
    return StabilityReport(eigenvalues=eig, slowest_mode=slowest, hurwitz=hurwitz)
