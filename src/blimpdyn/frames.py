"""Reference frames, rotation kinematics, and the vehicle parameter model.

Conventions used throughout the package:

- Inertial frame O-xyz with z pointing DOWN (gravity acts along +z).
- Body frame Ob-xb yb zb with origin at the center of buoyancy (CB),
  x forward, y starboard, z down through the gondola.
- Attitude as roll-pitch-yaw Euler angles, rotation R = Rz(psi) Ry(theta) Rx(phi)
  taking body-frame vectors to the inertial frame.
- SI units everywhere inside the library. Gram-force and centimetres appear
  only at file/CLI boundaries (1 gf = 9.80e-3 N).
"""

from dataclasses import dataclass, field, replace
import math

import numpy as np

# Gimbal-lock guard on |theta|; the vehicle never flies near 90 deg pitch.
GIMBAL_EPS = 1e-3
# Below this airspeed the aerodynamic angles are defined as zero.
V_MIN = 1e-6

# 1 gram-force in newtons, using g = 9.80 m/s^2.
GF_TO_N = 9.80e-3


class GimbalLock(ValueError):
    """Pitch angle too close to +-90 deg for the Euler-rate kinematics."""


def wrap_angle(x):
    """Wrap an angle to (-pi, pi]."""
    w = (x + np.pi) % (2.0 * np.pi) - np.pi
    if w <= -np.pi:
        w += 2.0 * np.pi
    return w


@dataclass(frozen=True)
class EulerAngles:
    """Roll, pitch, yaw in radians. phi and psi are wrapped to (-pi, pi]."""

    phi: float
    theta: float
    psi: float

    def __post_init__(self):
        object.__setattr__(self, "phi", wrap_angle(float(self.phi)))
        object.__setattr__(self, "theta", float(self.theta))
        object.__setattr__(self, "psi", wrap_angle(float(self.psi)))
        if not (math.isfinite(self.phi) and math.isfinite(self.theta) and math.isfinite(self.psi)):
            raise ValueError("non-finite Euler angles")

    def as_array(self):
        return np.array([self.phi, self.theta, self.psi])


@dataclass(frozen=True)
class AeroAngles:
    """Angle of attack, sideslip, and airspeed magnitude."""

    alpha: float
    beta: float
    V: float

    def __post_init__(self):
        if self.V < 0:
            raise ValueError("airspeed must be non-negative")
        if abs(self.beta) > np.pi / 2 + 1e-12:
            raise ValueError("sideslip out of range")


def _as_vec3(x, name):
    v = np.asarray(x, dtype=float).reshape(3)
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} has non-finite components")
    return v


@dataclass(frozen=True)
class VehicleParams:
    """Constant physical properties of the vehicle.

    m          stationary mass [kg] (hull, wings, rail; excludes the gondola)
    mbar       moving mass [kg] (gondola on the rail)
    inertia    stationary-body inertia tensor about the CB [kg m^2]
    r          stationary-mass CG offset from the CB [m]
    rbar0      moving-mass home position in the body frame [m]
    d          lateral offset of each propeller from the x-O-z plane [m]
    B          buoyant force [N]
    rho        air density [kg/m^3]
    g          gravitational acceleration [m/s^2]
    V_He       helium volume [m^3]
    A_ref      aerodynamic reference area [m^2]; defaults to V_He^(2/3)
    reynolds   flight Reynolds number; metadata only, unused in any equation
    """

    m: float
    mbar: float
    inertia: np.ndarray
    r: np.ndarray
    rbar0: np.ndarray
    d: float
    B: float
    rho: float
    g: float
    V_He: float
    A_ref: float = None
    reynolds: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "inertia", np.asarray(self.inertia, dtype=float).reshape(3, 3))
        object.__setattr__(self, "r", _as_vec3(self.r, "r"))
        object.__setattr__(self, "rbar0", _as_vec3(self.rbar0, "rbar0"))
        if self.A_ref is None:
            object.__setattr__(self, "A_ref", float(self.V_He) ** (2.0 / 3.0))
        for name in ("m", "mbar", "B", "rho", "g", "V_He", "A_ref", "d"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not np.allclose(self.inertia, self.inertia.T, atol=1e-12):
            raise ValueError("inertia tensor must be symmetric")
        if np.any(np.linalg.eigvalsh(self.inertia) <= 0):
            raise ValueError("inertia tensor must be positive definite")

    @property
    def total_mass(self):
        return self.m + self.mbar

    @property
    def net_weight(self):
        """Weight minus buoyancy [N]; positive means heavier than air."""
        return self.total_mass * self.g - self.B

    @property
    def net_mass(self):
        """Net mass (m + mbar - B/g) [kg]."""
        return self.total_mass - self.B / self.g

    def symmetrized(self):
        """Copy with the x-O-z symmetry-breaking mass terms zeroed.

        Lateral CG offsets and the inertia products coupling the y axis
        are dropped; this is the idealization under which mirrored inputs
        produce exactly mirrored motions."""
        inertia = self.inertia.copy()
        inertia[0, 1] = inertia[1, 0] = 0.0
        inertia[1, 2] = inertia[2, 1] = 0.0
        return replace(
            self,
            r=np.array([self.r[0], 0.0, self.r[2]]),
            rbar0=np.array([self.rbar0[0], 0.0, self.rbar0[2]]),
            inertia=inertia,
        )


@dataclass(frozen=True)
class State:
    """Full 18-component vehicle state.

    p        inertial position [m], z positive downward
    e        Euler angles
    v        body-frame translational velocity (u, v, w) [m/s]
    w        body rates (p, q, r) [rad/s]
    rbar     moving-mass position in the body frame [m]
    rbardot  moving-mass velocity in the body frame [m/s]
    """

    p: np.ndarray
    e: EulerAngles
    v: np.ndarray
    w: np.ndarray
    rbar: np.ndarray
    rbardot: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        for name in ("p", "v", "w", "rbar", "rbardot"):
            object.__setattr__(self, name, _as_vec3(getattr(self, name), name))

    def as_vector(self):
        """Pack into an 18-vector [p, e, v, w, rbar, rbardot]."""
        return np.concatenate(
            [self.p, self.e.as_array(), self.v, self.w, self.rbar, self.rbardot]
        )

    @classmethod
    def from_vector(cls, y):
        y = np.asarray(y, dtype=float).reshape(18)
        return cls(
            p=y[0:3],
            e=EulerAngles(*y[3:6]),
            v=y[6:9],
            w=y[9:12],
            rbar=y[12:15],
            rbardot=y[15:18],
        )


def rotation_body_to_inertial(e):
    """Rotation matrix from the body frame to the inertial frame (RPY sequence)."""
    cphi, sphi = np.cos(e.phi), np.sin(e.phi)
    cth, sth = np.cos(e.theta), np.sin(e.theta)
    cpsi, spsi = np.cos(e.psi), np.sin(e.psi)
    return np.array(
        [
            [cpsi * cth, cpsi * sth * sphi - spsi * cphi, cpsi * sth * cphi + spsi * sphi],
            [spsi * cth, spsi * sth * sphi + cpsi * cphi, spsi * sth * cphi - cpsi * sphi],
            [-sth, cth * sphi, cth * cphi],
        ]
    )


def rotation_matrices(euler):
    """Stacked `rotation_body_to_inertial` matrices, shape (n, 3, 3), of an
    (n, 3) array of roll, pitch and yaw angles."""
    phi, theta, psi = np.asarray(euler, dtype=float).T
    cphi, sphi = np.cos(phi), np.sin(phi)
    cth, sth = np.cos(theta), np.sin(theta)
    cpsi, spsi = np.cos(psi), np.sin(psi)
    return np.stack(
        [
            cpsi * cth, cpsi * sth * sphi - spsi * cphi, cpsi * sth * cphi + spsi * sphi,
            spsi * cth, spsi * sth * sphi + cpsi * cphi, spsi * sth * cphi - cpsi * sphi,
            -sth, cth * sphi, cth * cphi,
        ],
        axis=-1,
    ).reshape(-1, 3, 3)


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

    alpha = atan2(w, u), beta = asin(v_y / V).  For V below V_MIN both
    angles are defined as zero; the aerodynamic loads vanish with V^2 anyway.
    """
    v = np.asarray(v, dtype=float).reshape(3)
    V = float(np.linalg.norm(v))
    if V < V_MIN:
        return AeroAngles(0.0, 0.0, V)
    alpha = math.atan2(v[2], v[0])
    beta = math.asin(min(1.0, max(-1.0, v[1] / V)))
    return AeroAngles(alpha, beta, V)


def aero_angles_array(v):
    """Angle of attack, sideslip and airspeed arrays of an (n, 3) array of
    body-frame velocities, each row as in `aero_angles`."""
    v = np.asarray(v, dtype=float)
    n = v.shape[0]
    V = np.hypot(np.hypot(v[:, 0], v[:, 1]), v[:, 2])
    moving = V >= V_MIN
    alpha = np.where(moving, np.arctan2(v[:, 2], v[:, 0]), 0.0)
    ratio = np.divide(v[:, 1], V, out=np.zeros(n), where=moving)
    beta = np.where(moving, np.arcsin(np.clip(ratio, -1.0, 1.0)), 0.0)
    return alpha, beta, V


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
