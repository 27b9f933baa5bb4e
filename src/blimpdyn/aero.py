"""Aerodynamic model: coefficient polynomials, loads, and performance analysis.

The six coefficient channels have a fixed polynomial shape in the
aerodynamic angles:

    C_D  = cd0  + cd_a  * alpha^2 + cd_b  * beta^2
    C_S  = cs0  + cs_a  * alpha^2 + cs_b  * beta
    C_L  = cl0  + cl_a  * alpha   + cl_b  * beta^2
    C_M1 = cm1_0 + cm1_a * alpha  + cm1_b * beta
    C_M2 = cm2_0 + cm2_a * alpha  + cm2_b * beta^4
    C_M3 = cm3_0 + cm3_a * alpha  + cm3_b * beta

The shapes are deliberately hard-coded: the identification pipeline fits
exactly these regressors, and a configurable structure would change the
design matrix silently.
"""

from dataclasses import dataclass, replace
import math

import numpy as np

from .frames import AeroAngles, wind_to_body

# Beyond this angle of attack the vehicle stalls and the polynomial model
# is extrapolating; loads are still computed but flagged.
STALL_ALPHA = np.radians(16.0)

#: Ordered names of the 21 model parameters (18 polynomial + 3 damping).
PARAM_NAMES = (
    "cd0", "cd_a", "cd_b",
    "cs0", "cs_a", "cs_b",
    "cl0", "cl_a", "cl_b",
    "cm1_0", "cm1_a", "cm1_b",
    "cm2_0", "cm2_a", "cm2_b",
    "cm3_0", "cm3_a", "cm3_b",
    "k1", "k2", "k3",
)


class DegenerateModel(ValueError):
    """Drag coefficient non-positive somewhere on the requested range."""


@dataclass(frozen=True)
class AeroModel:
    """Polynomial aerodynamic coefficients plus rotational damping.

    Damping coefficients k1..k3 [N m s/rad] must be non-positive.
    beta_limit is the advisory sideslip validity bound (default 30 deg);
    unlike the stall bound it is not reported by the model itself.
    """

    cd0: float
    cd_a: float
    cd_b: float
    cs0: float
    cs_a: float
    cs_b: float
    cl0: float
    cl_a: float
    cl_b: float
    cm1_0: float
    cm1_a: float
    cm1_b: float
    cm2_0: float
    cm2_a: float
    cm2_b: float
    cm3_0: float
    cm3_a: float
    cm3_b: float
    k1: float
    k2: float
    k3: float
    a_ref: float
    beta_limit: float = np.radians(30.0)

    def __post_init__(self):
        if self.k1 > 0 or self.k2 > 0 or self.k3 > 0:
            raise ValueError("damping coefficients k1..k3 must be <= 0")
        if self.a_ref <= 0:
            raise ValueError("reference area must be positive")

    def as_vector(self):
        """The 21 parameters in PARAM_NAMES order."""
        return np.array([getattr(self, n) for n in PARAM_NAMES])

    def with_vector(self, x):
        """Copy of this model with the 21 parameters replaced."""
        x = np.asarray(x, dtype=float).reshape(21)
        return replace(self, **dict(zip(PARAM_NAMES, x)))

    def symmetrized(self):
        """Copy with the terms that break x-O-z reflection symmetry zeroed.

        Side force and the roll/yaw moments must be odd in beta for the
        reflection to map solutions to mirrored solutions, so their
        constant and alpha-only terms are dropped."""
        return replace(self, cs0=0.0, cs_a=0.0, cm1_0=0.0, cm1_a=0.0,
                       cm3_0=0.0, cm3_a=0.0)


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


@dataclass(frozen=True)
class AeroLoads:
    """Wind-frame drag, side force, lift [N] and roll/pitch/yaw moments [N m]."""

    D: float
    S: float
    L: float
    M1: float
    M2: float
    M3: float

    def forces(self):
        return np.array([self.D, self.S, self.L])

    def moments(self):
        return np.array([self.M1, self.M2, self.M3])

    def as_array(self):
        return np.array([self.D, self.S, self.L, self.M1, self.M2, self.M3])


def eval_coeffs(model, alpha, beta):
    """Evaluate the six coefficient polynomials at (alpha, beta) [rad]."""
    a, b = float(alpha), float(beta)
    return Coeffs(
        cd=model.cd0 + model.cd_a * a * a + model.cd_b * b * b,
        cs=model.cs0 + model.cs_a * a * a + model.cs_b * b,
        cl=model.cl0 + model.cl_a * a + model.cl_b * b * b,
        cm1=model.cm1_0 + model.cm1_a * a + model.cm1_b * b,
        cm2=model.cm2_0 + model.cm2_a * a + model.cm2_b * b ** 4,
        cm3=model.cm3_0 + model.cm3_a * a + model.cm3_b * b,
        stalled=abs(a) > STALL_ALPHA,
        beta_exceeded=abs(b) > model.beta_limit,
    )


def _wind_loads(model, alpha, beta, V, w, rho):
    """Drag, side force, lift and the three moments as six floats; `w` is
    a 3-sequence of body rates."""
    c = eval_coeffs(model, alpha, beta)
    q = 0.5 * rho * V * V * model.a_ref
    return (
        q * c.cd,
        q * c.cs,
        q * c.cl,
        q * c.cm1 + model.k1 * w[0],
        q * c.cm2 + model.k2 * w[1],
        q * c.cm3 + model.k3 * w[2],
    )


def aero_loads(model, a, w, rho):
    """Wind-frame loads at aerodynamic state `a` with body rates `w`.

    Forces are dynamic pressure times coefficient; moments additionally
    carry the linear rotational damping k_i times the matching body rate.
    """
    if rho <= 0:
        raise ValueError("air density must be positive")
    w = np.asarray(w, dtype=float).reshape(3)
    return AeroLoads(*_wind_loads(model, a.alpha, a.beta, a.V, w, rho))


def loads_to_body(a, loads):
    """Resolve wind-frame loads into body-frame force and torque vectors."""
    R = wind_to_body(a)
    F = R @ np.array([-loads.D, loads.S, -loads.L])
    T = R @ np.array([loads.M1, loads.M2, loads.M3])
    return F, T


def _body_loads(model, alpha, beta, V, w, rho):
    """Body-frame aerodynamic force and torque as six floats: `aero_loads`
    resolved by `loads_to_body`, in scalar arithmetic for the hot paths.
    `w` is a 3-sequence of body rates; rho is not checked."""
    D, S, L, M1, M2, M3 = _wind_loads(model, alpha, beta, V, w, rho)
    ca, sa = math.cos(alpha), math.sin(alpha)
    cb, sb = math.cos(beta), math.sin(beta)
    # Columns of the wind-to-body rotation applied to (-D, S, -L) and (M1, M2, M3).
    return (
        -ca * cb * D - ca * sb * S + sa * L,
        -sb * D + cb * S,
        -sa * cb * D - sa * sb * S - ca * L,
        ca * cb * M1 - ca * sb * M2 - sa * M3,
        sb * M1 + cb * M2,
        sa * cb * M1 - sa * sb * M2 + ca * M3,
    )


@dataclass(frozen=True)
class LiftDragTable:
    """Grid of (alpha, C_L, C_D, L/D) plus the refined maximum."""

    alpha: np.ndarray
    cl: np.ndarray
    cd: np.ndarray
    ld: np.ndarray
    alpha_star: float
    max_ld: float


def _ld_ratio(model, beta):
    def f(a):
        c = eval_coeffs(model, a, beta)
        return c.cl / c.cd
    return f


def _golden_max(f, lo, hi, tol=1e-4):
    """Golden-section maximization of f on [lo, hi]."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def lift_drag_analysis(model, alpha_range, beta=0.0):
    """L/D table over `alpha_range` and the continuous-argmax maximum.

    The maximum is located by a 0.1 deg grid scan over the span of
    `alpha_range` followed by golden-section refinement to 1e-4 rad.
    """
    alpha = np.asarray(alpha_range, dtype=float)
    if alpha.size == 0:
        raise ValueError("alpha_range must be non-empty")
    lo, hi = float(alpha.min()), float(alpha.max())

    scan = np.arange(lo, hi + 1e-12, np.radians(0.1))
    if scan.size < 2:
        scan = np.array([lo, hi])
    cd_scan = np.array([eval_coeffs(model, a, beta).cd for a in scan])
    if np.any(cd_scan <= 0):
        raise DegenerateModel("drag coefficient non-positive on the alpha range")

    f = _ld_ratio(model, beta)
    k = int(np.argmax([f(a) for a in scan]))
    win_lo = scan[max(0, k - 1)]
    win_hi = scan[min(scan.size - 1, k + 1)]
    if win_hi > win_lo:
        alpha_star, max_ld = _golden_max(f, win_lo, win_hi)
    else:
        alpha_star, max_ld = float(scan[k]), f(scan[k])

    coeffs = [eval_coeffs(model, a, beta) for a in alpha]
    cl = np.array([c.cl for c in coeffs])
    cd = np.array([c.cd for c in coeffs])
    return LiftDragTable(
        alpha=alpha, cl=cl, cd=cd, ld=cl / cd, alpha_star=alpha_star, max_ld=max_ld
    )


def stability_slopes(model):
    """Static-stability slopes: pitch-moment vs alpha and yaw-moment vs beta."""
    return model.cm2_a, model.cm3_b
