"""Reference frames, rotation kinematics, and the vehicle parameter model.

Conventions used throughout the package:

- Inertial frame O-xyz with z pointing DOWN (gravity acts along +z).
- Body frame Ob-xb yb zb with origin at the center of buoyancy (CB),
  x forward, y starboard, z down through the gondola.
- Attitude as roll-pitch-yaw Euler angles, rotation R = Rz(psi) Ry(theta) Rx(phi)
  taking body-frame vectors to the inertial frame.
- SI units everywhere inside the library. Gram-force and centimetres appear
  only at file/CLI boundaries (1 gf = 9.80e-3 N).

The rules the other modules share live here: the rail check, the rail
position (`VehicleParams.rail_position`), the attitude, aero angle and
thrust checks, and the angle wrap, which is exact: an angle inside
(-pi, pi] keeps its bits.  The kernel's `deriv` repeats only the
attitude check, inline, as it runs at every RK4 stage.
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

# Travel limit of the moving-mass rail [m] either side of its home position.
RAIL_LIMIT = 0.06


class GimbalLock(ValueError):
    """Pitch angle too close to +-90 deg for the Euler-rate kinematics."""


def wrap_angle(x):
    """Wrap an angle, or elementwise an array of angles, to (-pi, pi], exactly.

    The result differs from x by an integer multiple of the float 2 pi, and
    an angle inside (-pi, pi] is returned bit for bit (-0.0 as 0.0).  A
    Python float gives a Python float; NaN and +-inf give NaN.  `%` by a
    divisor with the sign of x is fmod, which is exact, and the one 2 pi
    correction of a value in (pi, 2 pi) or (-2 pi, -pi] is exact by
    Sterbenz's lemma."""
    w = x % (d := 2.0 * np.pi * (1 - 2 * (x < 0.0)))   # d: 2 pi with the sign of x
    return w - d * ((w + w > d) ^ (d < 0.0))           # w > pi, or w <= -pi for d < 0


def _check_attitude(phi, theta, psi=0.0):
    """Raise ValueError unless the Euler angles are finite."""
    if not (math.isfinite(phi) and math.isfinite(theta) and math.isfinite(psi)):
        raise ValueError("non-finite Euler angles")


def _check_rail_offset(dr_x):
    """Raise ValueError unless the moving mass's offset dr_x [m] from home
    is within RAIL_LIMIT (1e-12 slack); NaN fails."""
    if not abs(dr_x) <= RAIL_LIMIT + 1e-12:
        raise ValueError(f"dr_x {dr_x} m outside rail limit +-{RAIL_LIMIT} m")


@dataclass(frozen=True)
class EulerAngles:
    """Roll, pitch, yaw in radians.  phi and psi are wrapped to (-pi, pi] by
    `wrap_angle`, so a roll or yaw inside it is stored bit for bit."""

    phi: float
    theta: float
    psi: float

    def __post_init__(self):
        object.__setattr__(self, "phi", wrap_angle(float(self.phi)))
        object.__setattr__(self, "theta", float(self.theta))
        object.__setattr__(self, "psi", wrap_angle(float(self.psi)))
        _check_attitude(self.phi, self.theta, self.psi)

    def as_array(self):
        return np.array([self.phi, self.theta, self.psi])


def _check_aero_angles(alpha, beta, V):
    """Raise ValueError unless the airspeed V is non-negative, the sideslip
    beta within 90 degrees (1e-12 slack) and the angle of attack alpha
    finite; NaN fails all three, as the comparisons are written to be
    false on it."""
    if not V >= 0.0:
        raise ValueError("airspeed must be non-negative")
    if not abs(beta) <= math.pi / 2 + 1e-12:
        raise ValueError("sideslip out of range")
    if not abs(alpha) < math.inf:
        raise ValueError("non-finite angle of attack")


def _check_thrusts(Fl, Fr):
    """Raise ValueError unless both thrusts are finite and non-negative."""
    if not (0 <= Fl < math.inf and 0 <= Fr < math.inf):
        raise ValueError("thrusts must be finite and non-negative")


@dataclass(frozen=True)
class AeroAngles:
    """Angle of attack, sideslip, and airspeed magnitude."""

    alpha: float
    beta: float
    V: float

    def __post_init__(self):
        _check_aero_angles(self.alpha, self.beta, self.V)


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
        object.__setattr__(self, "inertia", np.asarray(self.inertia, dtype=float).reshape(3, 3) + 0.0)
        if not np.all(np.isfinite(self.inertia)):
            raise ValueError("inertia must be finite")
        object.__setattr__(self, "r", _as_vec3(self.r, "r") + 0.0)   # no -0.0 (see dynamics.bind)
        object.__setattr__(self, "rbar0", _as_vec3(self.rbar0, "rbar0"))
        if self.A_ref is None:
            object.__setattr__(self, "A_ref", float(self.V_He) ** (2.0 / 3.0))
        for name in ("m", "mbar", "B", "rho", "g", "V_He", "A_ref", "d", "reynolds"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("m", "mbar", "B", "rho", "g", "V_He", "A_ref", "d"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not np.allclose(self.inertia, self.inertia.T, atol=1e-12):
            raise ValueError("inertia tensor must be symmetric")
        if np.any(np.linalg.eigvalsh(self.inertia) <= 0):
            raise ValueError("inertia tensor must be positive definite")

    def rail_position(self, dr_x):
        """Moving-mass position [m] at offset dr_x [m] along body x from rbar0."""
        return self.rbar0 + np.array([dr_x, 0.0, 0.0])

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
    """Rotation matrix from the body frame to the inertial frame (RPY
    sequence) of the attitude `e`: the one matrix of `rotation_matrices`."""
    return rotation_matrices(e.as_array()[None])[0]


def rotation_matrices(euler):
    """Stacked body-to-inertial rotation matrices (RPY sequence), shape
    (n, 3, 3), of an (n, 3) array of roll, pitch and yaw angles."""
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


def aero_angles_array(v):
    """Angle of attack, sideslip and airspeed arrays of an (n, 3) array of
    body-frame velocities (u, v, w).

    alpha = atan2(w, u), beta = atan2(v, hypot(u, w)), which stays well
    conditioned at |beta| near 90 deg.  Where V is below V_MIN both angles
    are defined as zero; the aerodynamic loads vanish with V^2 anyway.
    """
    v = np.asarray(v, dtype=float)
    V = np.hypot(np.hypot(v[:, 0], v[:, 1]), v[:, 2])
    moving = V >= V_MIN
    alpha = np.where(moving, np.arctan2(v[:, 2], v[:, 0]), 0.0)
    beta = np.where(moving, np.arctan2(v[:, 1], np.hypot(v[:, 0], v[:, 2])), 0.0)
    return alpha, beta, V
