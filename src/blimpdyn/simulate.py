"""Fixed-step RK4 trajectory integration with scripted input schedules,
plus trajectory metrics (turning radius, glide performance).

Inputs are held constant within each step and sampled at segment
boundaries aligned to the time grid, so identical inputs produce
bitwise-identical trajectories.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import dynamics
from .frames import GF_TO_N, RAIL_LIMIT, GimbalLock, State, aero_angles_array, rotation_matrices

# Moving-mass rail motion limits for position-command ("goto") segments.
MM_VMAX = 0.05   # m/s
MM_AMAX = 0.5    # m/s^2

# Yaw rates below this are reported as straight flight (infinite radius).
PSIDOT_MIN = 1e-3


class DegenerateDescent(ValueError):
    """Mean descent rate too small for a meaningful glide ratio."""


@dataclass(frozen=True)
class Segment:
    """One schedule segment: constant thrusts plus a moving-mass command.

    mm_cmd is "goto" (drive the mass to displacement mm_target [m] from its
    home position with a trapezoidal velocity profile) or "hold" (no new
    command: a goto profile still under way runs to its end, so the mass
    stops on that goto's target).  Thrusts must be finite and non-negative and
    |mm_target| within the rail limit.
    """

    t_start: float
    t_end: float
    Fl: float
    Fr: float
    mm_cmd: str = "hold"
    mm_target: float = 0.0

    def __post_init__(self):
        if self.t_end <= self.t_start:
            raise ValueError("segment must have positive duration")
        if self.mm_cmd not in ("hold", "goto"):
            raise ValueError(f"unknown moving-mass command {self.mm_cmd!r}")
        if not (0 <= self.Fl < math.inf and 0 <= self.Fr < math.inf):
            raise ValueError("thrusts must be finite and non-negative")
        if not abs(self.mm_target) <= RAIL_LIMIT + 1e-12:
            raise ValueError(f"mm_target {self.mm_target} m outside rail limit +-{RAIL_LIMIT} m")


@dataclass(frozen=True)
class InputSchedule:
    segments: tuple

    def __post_init__(self):
        segs = tuple(self.segments)
        object.__setattr__(self, "segments", segs)
        if not segs:
            raise ValueError("schedule must have at least one segment")
        for a, b in zip(segs, segs[1:]):
            if not math.isclose(a.t_end, b.t_start, abs_tol=1e-9):
                raise ValueError("segments must be contiguous and sorted")

    @classmethod
    def constant(cls, Fl, Fr, T):
        return cls((Segment(0.0, T, Fl, Fr),))


def read_schedule(path):
    """Load a schedule CSV: t_start,t_end,Fl_gf,Fr_gf,mm_cmd,mm_target_cm."""
    segs = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        expected = ["t_start", "t_end", "Fl_gf", "Fr_gf", "mm_cmd", "mm_target_cm"]
        if reader.fieldnames != expected:
            raise ValueError(f"schedule header must be {','.join(expected)}")
        for row in reader:
            segs.append(
                Segment(
                    t_start=float(row["t_start"]),
                    t_end=float(row["t_end"]),
                    Fl=float(row["Fl_gf"]) * GF_TO_N,
                    Fr=float(row["Fr_gf"]) * GF_TO_N,
                    mm_cmd=row["mm_cmd"].strip(),
                    mm_target=float(row["mm_target_cm"]) * 1e-2,
                )
            )
    return InputSchedule(tuple(segs))


@dataclass(frozen=True)
class Trajectory:
    """Uniform-grid trajectory with derived per-sample quantities."""

    t: np.ndarray
    states: np.ndarray       # (n, 18)
    dt: float
    status: str              # "ok" | "gimbal_lock" | "non_finite"
    V: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    Vz: np.ndarray
    psidot: np.ndarray       # inertial yaw rate from edot = J omega
    R: np.ndarray            # median-smoothed turning radius
    stop_step: int = None    # index of the RK4 step that failed; None when "ok"

    def __len__(self):
        return self.t.size

    def state_at(self, k):
        return State.from_vector(self.states[k])


def plan_goto_profile(delta, dt):
    """Per-step accelerations moving the mass by `delta` with zero final
    velocity.  The velocity profile is a grid-aligned trapezoid, so RK4
    (exact for piecewise-polynomial motion) lands on the target exactly."""
    D = abs(float(delta))
    if D < 1e-12:
        return np.zeros(0)
    s = 1.0 if delta > 0 else -1.0
    n_a = max(1, math.ceil(MM_VMAX / (MM_AMAX * dt)))
    n_c = math.ceil(D / (MM_VMAX * dt)) - n_a
    if n_c >= 0:
        v_pk = D / (dt * (n_a + n_c))
    else:
        n_c = 0
        n_a = max(1, math.ceil(math.sqrt(D / MM_AMAX) / dt))
        v_pk = D / (dt * n_a)
    v = np.concatenate(
        [
            np.linspace(v_pk / n_a, v_pk, n_a),
            np.full(n_c, v_pk),
            np.linspace(v_pk - v_pk / n_a, 0.0, n_a),
        ]
    )
    v_prev = np.concatenate([[0.0], v[:-1]])
    return s * (v - v_prev) / dt


def integrate(state0, sched, params, model, dt=0.005, T=10.0, legacy=False):
    """Classical RK4 integration over [0, T] at fixed step dt.

    The vehicle is bound once (`dynamics.bind`) and the state is stepped
    as a tuple of floats through the kernel's derivative; each step is
    written into the preallocated state array.  Returns a Trajectory; on
    gimbal lock or a non-finite state the partial trajectory is returned
    with the corresponding status flag and the index of the step that
    failed."""
    if not (0.0 < dt <= 0.05):
        raise ValueError("dt must be in (0, 0.05]")
    if not 0.0 < T < math.inf:
        raise ValueError("T must be positive and finite")
    n = int(math.floor(T / dt + 1e-9))
    t = np.arange(n + 1) * dt
    states = np.empty((n + 1, 18))
    states[0] = state0.as_vector()
    deriv = dynamics.bind(params, model, legacy).deriv
    half_dt, sixth_dt = 0.5 * dt, dt / 6.0

    status = "ok"
    stop_step = None
    seg_idx = 0
    segs = sched.segments
    profile = np.zeros(0)
    prof_k0 = 0
    seg_planned = -1

    y = tuple(states[0].tolist())
    for k in range(n):
        tk = t[k]
        while seg_idx + 1 < len(segs) and tk >= segs[seg_idx].t_end - 1e-9:
            seg_idx += 1
        seg = segs[seg_idx]
        Fl, Fr = seg.Fl, seg.Fr
        if seg.mm_cmd == "goto" and seg_planned != seg_idx:
            target_x = params.rbar0[0] + seg.mm_target
            profile = plan_goto_profile(target_x - y[12], dt)
            prof_k0 = k
            seg_planned = seg_idx
        bx = 0.0
        if prof_k0 <= k < prof_k0 + profile.size:
            bx = float(profile[k - prof_k0])

        try:
            k1 = deriv(y, Fl, Fr, bx, 0.0, 0.0)
            k2 = deriv([a + half_dt * b for a, b in zip(y, k1)], Fl, Fr, bx, 0.0, 0.0)
            k3 = deriv([a + half_dt * b for a, b in zip(y, k2)], Fl, Fr, bx, 0.0, 0.0)
            k4 = deriv([a + dt * b for a, b in zip(y, k3)], Fl, Fr, bx, 0.0, 0.0)
        except GimbalLock:
            status, stop_step = "gimbal_lock", k
            break
        except ValueError:
            # An RK4 stage state with non-finite Euler angles.
            status, stop_step = "non_finite", k
            break
        y = tuple([a + sixth_dt * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
                   for a, d1, d2, d3, d4 in zip(y, k1, k2, k3, k4)])
        if not all(map(math.isfinite, y)):
            status, stop_step = "non_finite", k
            break
        states[k + 1] = y
    k_end = n if stop_step is None else stop_step
    return _finish_trajectory(t[: k_end + 1], states[: k_end + 1], dt, status, stop_step)


def _inertial_velocity(states):
    """Inertial velocity R(e) v of every sample of an (n, 18) state array, (n, 3)."""
    return np.einsum("nij,nj->ni", rotation_matrices(states[:, 3:6]), states[:, 6:9])


def _finish_trajectory(t, states, dt, status, stop_step):
    n = t.size
    alpha, beta, V = aero_angles_array(states[:, 6:9])
    Vz = _inertial_velocity(states)[:, 2]
    # Third row of J omega; cos(theta) cannot vanish (gimbal guard upstream).
    phi, theta = states[:, 3], states[:, 4]
    psidot = (np.sin(phi) * states[:, 10] + np.cos(phi) * states[:, 11]) / np.cos(theta)
    traj = Trajectory(
        t=t, states=states, dt=dt, status=status,
        V=V, alpha=alpha, beta=beta, Vz=Vz, psidot=psidot,
        R=np.full(n, np.inf), stop_step=stop_step,
    )
    window = min(1.0, max(10 * dt, (n - 1) * dt)) if n > 1 else 10 * dt
    R_series = turning_radius_series(traj, window) if n >= 3 else np.full(n, np.inf)
    object.__setattr__(traj, "R", R_series)
    return traj


def turning_radius_series(traj, window):
    """Per-sample horizontal turning radius, median-smoothed over `window`
    seconds.  Samples with |psidot| below PSIDOT_MIN report inf."""
    if window < 10 * traj.dt - 1e-12:
        raise ValueError("window must be at least 10 dt")
    n = len(traj)
    hs = np.hypot(*_inertial_velocity(traj.states)[:, :2].T)
    slow = np.abs(traj.psidot) < PSIDOT_MIN
    R = np.where(slow, np.inf, hs / np.maximum(np.abs(traj.psidot), PSIDOT_MIN))
    ksz = int(round(window / traj.dt))
    if ksz % 2 == 0:
        ksz += 1
    ksz = min(ksz, n if n % 2 == 1 else n - 1)
    if ksz >= 3:
        # A running median over ksz samples, zero-padded at both ends; NaN,
        # which has no order, counts as inf.  Rows are taken in blocks so the
        # partitioned copy of the windows stays small.
        h = ksz // 2
        windows = sliding_window_view(np.pad(np.where(np.isnan(R), np.inf, R), h), ksz)
        R = np.concatenate([np.partition(windows[i:i + 4096], h, axis=-1)[:, h]
                            for i in range(0, n, 4096)])
    return R


def glide_metrics(traj):
    """Forward/descent speed series and glide ratio over the steady tail.

    Forward speed is the horizontal inertial speed; descent speed is the
    inertial sink rate (z down).  The glide ratio averages over the last
    half of the samples."""
    if traj.t[-1] - traj.t[0] < 2.0:
        raise ValueError("trajectory must be longer than 2 s")
    forward = np.hypot(*_inertial_velocity(traj.states)[:, :2].T)
    descent = traj.Vz
    k0 = len(traj) // 2
    mean_desc = float(np.mean(descent[k0:]))
    if mean_desc < 1e-3:
        raise DegenerateDescent(f"mean descent {mean_desc:.2e} m/s below 1e-3")
    ratio = float(np.mean(forward[k0:])) / mean_desc
    return forward, descent, ratio
