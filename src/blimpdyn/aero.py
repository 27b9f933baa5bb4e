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
design matrix silently.  `bind(model, rho)` binds a model's constants once
for the dynamics hot paths and `aero_loads`; `lift_drag_analysis`
evaluates the same polynomials (`_polynomials`) over arrays.

The wind axes and their signs (D along -x, S along +y, L along -z) live
here: `_wind_to_body` and its transpose `_body_to_wind`, which the load
inversion of `sysid` calls.
"""

from dataclasses import dataclass, replace
import math
from typing import Callable, NamedTuple

import numpy as np

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
    it is carried through the ini round trip, but no equation reads it.
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
        for name in (*PARAM_NAMES, "a_ref", "beta_limit"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
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
class AeroLoads:
    """Wind-frame drag, side force, lift [N] and roll/pitch/yaw moments [N m]."""

    D: float
    S: float
    L: float
    M1: float
    M2: float
    M3: float

    def as_array(self):
        return np.array([self.D, self.S, self.L, self.M1, self.M2, self.M3])


def _polynomials(model):
    """The six coefficient polynomials of `model` and their partials, as
    two closures over its constants: `values(a, b)` gives the six
    coefficients at (a, b) [rad] and `partials(a, b)` their partials in
    alpha and in beta, two 6-tuples."""
    cd0, cd_a, cd_b = model.cd0, model.cd_a, model.cd_b
    cs0, cs_a, cs_b = model.cs0, model.cs_a, model.cs_b
    cl0, cl_a, cl_b = model.cl0, model.cl_a, model.cl_b
    cm1_0, cm1_a, cm1_b = model.cm1_0, model.cm1_a, model.cm1_b
    cm2_0, cm2_a, cm2_b = model.cm2_0, model.cm2_a, model.cm2_b
    cm3_0, cm3_a, cm3_b = model.cm3_0, model.cm3_a, model.cm3_b

    def values(a, b):
        return (
            cd0 + cd_a * a * a + cd_b * b * b,
            cs0 + cs_a * a * a + cs_b * b,
            cl0 + cl_a * a + cl_b * b * b,
            cm1_0 + cm1_a * a + cm1_b * b,
            cm2_0 + cm2_a * a + cm2_b * b ** 4,
            cm3_0 + cm3_a * a + cm3_b * b,
        )

    def partials(a, b):
        return (
            (2.0 * cd_a * a, 2.0 * cs_a * a, cl_a, cm1_a, cm2_a, cm3_a),
            (2.0 * cd_b * b, cs_b, 2.0 * cl_b * b, cm1_b, 4.0 * cm2_b * b ** 3, cm3_b),
        )

    return values, partials


def _wind_to_body(ca, sa, cb, sb, D, S, L, M1, M2, M3):
    """The wind-to-body rotation at the angles with cosines/sines (ca, sa)
    and (cb, sb) applied to (-D, S, -L) and (M1, M2, M3), as six floats."""
    return (
        -ca * cb * D - ca * sb * S + sa * L,
        -sb * D + cb * S,
        -sa * cb * D - sa * sb * S - ca * L,
        ca * cb * M1 - ca * sb * M2 - sa * M3,
        sb * M1 + cb * M2,
        sa * cb * M1 - sa * sb * M2 + ca * M3,
    )


def _body_to_wind(ca, sa, cb, sb, fx, fy, fz, tx, ty, tz):
    """The transpose of `_wind_to_body`: the wind-frame loads
    (D, S, L, M1, M2, M3) of a body force and torque, as six floats."""
    return (
        -ca * cb * fx - sb * fy - sa * cb * fz,
        -ca * sb * fx + cb * fy - sa * sb * fz,
        sa * fx - ca * fz,
        ca * cb * tx + sb * ty + sa * cb * tz,
        -ca * sb * tx + cb * ty - sa * sb * tz,
        -sa * tx + ca * tz,
    )


class AeroKernel(NamedTuple):
    """The loads of one `AeroModel` at one air density, as closures over
    its constants (see `bind`).  Each takes the aerodynamic angles
    (alpha, beta) [rad], the airspeed V and the body rates (p, q, r) as
    floats and returns floats; rho is not checked."""

    wind_loads: Callable          # -> D, S, L, M1, M2, M3 (wind frame)
    body_loads: Callable          # -> fx, fy, fz, tx, ty, tz (body frame)
    body_load_partials: Callable  # -> d/dalpha, d/dbeta, d/dV, damping map


def bind(model, rho):
    """Bind `model` and the air density once; returns an `AeroKernel`.

    The hot paths evaluate the loads through these closures, so the
    polynomials, the dynamic pressure and the wind-to-body rotation are
    written once, here and in `_polynomials`/`_wind_to_body`."""
    coeffs, coeff_partials = _polynomials(model)
    k1, k2, k3 = model.k1, model.k2, model.k3
    a_ref = model.a_ref
    half_rho = 0.5 * rho
    cos, sin = math.cos, math.sin

    def wind_loads(alpha, beta, V, p, q, r):
        """Drag, side force, lift and the three moments: dynamic pressure
        times coefficient, the moments plus the damping k_i times the
        matching body rate."""
        cd, cs, cl, cm1, cm2, cm3 = coeffs(alpha, beta)
        qd = half_rho * V * V * a_ref
        return (qd * cd, qd * cs, qd * cl,
                qd * cm1 + k1 * p, qd * cm2 + k2 * q, qd * cm3 + k3 * r)

    def body_loads(alpha, beta, V, p, q, r):
        """Body-frame force and torque: the `wind_loads` expressions
        resolved by the wind-to-body rotation, without the call."""
        cd, cs, cl, cm1, cm2, cm3 = coeffs(alpha, beta)
        qd = half_rho * V * V * a_ref
        return _wind_to_body(cos(alpha), sin(alpha), cos(beta), sin(beta),
                             qd * cd, qd * cs, qd * cl,
                             qd * cm1 + k1 * p, qd * cm2 + k2 * q, qd * cm3 + k3 * r)

    def body_load_partials(alpha, beta, V, p, q, r):
        """Partials of `body_loads` in alpha, beta and V, three 6-tuples,
        and its damping map: the body torque per unit body rate, a
        row-major 3x3 as a 9-tuple (the force does not depend on the rates).

        Each angle partial has two parts: the coefficient partials resolved
        in body axes, and the turn of the rotation itself.  Growing alpha
        turns the loads about body -y, so (fx, fz) gains (-fz, fx); growing
        beta turns them about the wind z axis n = (-sin alpha, 0, cos alpha),
        so they gain n x load.
        """
        ca, sa = cos(alpha), sin(alpha)
        cb, sb = cos(beta), sin(beta)
        cd, cs, cl, cm1, cm2, cm3 = coeffs(alpha, beta)
        (ad, as_, al, am1, am2, am3), (bd, bs, bl, bm1, bm2, bm3) = coeff_partials(alpha, beta)
        qd = half_rho * V * V * a_ref
        qV = rho * V * a_ref                                                        # dq/dV
        fx, fy, fz, tx, ty, tz = _wind_to_body(
            ca, sa, cb, sb, qd * cd, qd * cs, qd * cl,
            qd * cm1 + k1 * p, qd * cm2 + k2 * q, qd * cm3 + k3 * r,
        )
        ax, ay, az, amx, amy, amz = _wind_to_body(
            ca, sa, cb, sb, qd * ad, qd * as_, qd * al, qd * am1, qd * am2, qd * am3)
        bx, by, bz, bmx, bmy, bmz = _wind_to_body(
            ca, sa, cb, sb, qd * bd, qd * bs, qd * bl, qd * bm1, qd * bm2, qd * bm3)
        return (
            (ax - fz, ay, az + fx, amx - tz, amy, amz + tx),
            (bx - ca * fy, by + ca * fx + sa * fz, bz - sa * fy,
             bmx - ca * ty, bmy + ca * tx + sa * tz, bmz - sa * ty),
            _wind_to_body(ca, sa, cb, sb, qV * cd, qV * cs, qV * cl, qV * cm1, qV * cm2, qV * cm3),
            (ca * cb * k1, -ca * sb * k2, -sa * k3,
             sb * k1, cb * k2, 0.0,
             sa * cb * k1, -sa * sb * k2, ca * k3),
        )

    return AeroKernel(wind_loads, body_loads, body_load_partials)


def aero_loads(model, a, w, rho):
    """Wind-frame loads at aerodynamic state `a` with body rates `w`.

    Forces are dynamic pressure times coefficient; moments additionally
    carry the linear rotational damping k_i times the matching body rate.
    """
    if not 0 < rho < math.inf:
        raise ValueError("air density must be finite and positive")
    p, q, r = np.asarray(w, dtype=float).reshape(3)
    return AeroLoads(*bind(model, rho).wind_loads(float(a.alpha), float(a.beta), a.V, p, q, r))


@dataclass(frozen=True)
class LiftDragTable:
    """Grid of (alpha, C_L, C_D, L/D) plus the exact maximum."""

    alpha: np.ndarray
    cl: np.ndarray
    cd: np.ndarray
    ld: np.ndarray
    alpha_star: float
    max_ld: float


def lift_drag_analysis(model, alpha_range):
    """L/D table over `alpha_range` at zero sideslip and the exact maximum
    over its span.

    At zero sideslip C_L is linear and C_D quadratic in alpha, so the
    stationary points of C_L/C_D are the roots of
    cl_a cd_a alpha^2 + 2 cl0 cd_a alpha - cl_a cd0 = 0, and the maximum is
    the best of the span's ends and the roots inside it.  C_D has its
    vertex at alpha = 0, so its least value on the span is at an end or at
    0, where the drag check looks.  The polynomials are evaluated over
    whole arrays, not point by point.
    """
    alpha = np.asarray(alpha_range, dtype=float)
    if alpha.size == 0:
        raise ValueError("alpha_range must be non-empty")
    if not np.all(np.isfinite(alpha)):
        raise ValueError("alpha_range must be finite")
    lo, hi = float(alpha.min()), float(alpha.max())
    values = _polynomials(model)[0]
    if np.any(values(np.array([lo, hi, min(max(0.0, lo), hi)]), 0.0)[0] <= 0):
        raise DegenerateModel("drag coefficient non-positive on the alpha range")

    # The stationarity quadratic a x^2 + b x + c, solved without cancellation.
    a, b, c = model.cl_a * model.cd_a, 2.0 * model.cl0 * model.cd_a, -model.cl_a * model.cd0
    disc = b * b - 4.0 * a * c
    if a == 0:
        roots = [-c / b] if b else []
    elif disc >= 0:
        q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
        roots = [q / a, c / q] if q else [0.0]
    else:
        roots = []
    candidates = np.array([lo, hi] + [x for x in roots if lo <= x <= hi])
    cd, _, cl, _, _, _ = values(candidates, 0.0)
    ld = cl / cd
    k = int(np.argmax(ld))

    cd, _, cl, _, _, _ = values(alpha, 0.0)
    return LiftDragTable(alpha=alpha, cl=cl, cd=cd, ld=cl / cd,
                         alpha_star=float(candidates[k]), max_ld=float(ld[k]))
