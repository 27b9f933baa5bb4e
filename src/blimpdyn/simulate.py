"""Fixed-step RK4 trajectory integration with scripted input schedules
(read from CSV by `paramio`'s table reader, which trial manifests and logs
share), plus trajectory metrics (turning radius, glide performance).

Inputs are held constant within each step and sampled at segment
boundaries aligned to the time grid, so identical inputs produce
bitwise-identical trajectories.  A `Trajectory` stores only what the
integration produced; its per-sample series (airspeed, aerodynamic angles,
inertial velocity, yaw rate, turning radius) are derived from its states
when first read.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import dynamics
from .frames import (GF_TO_N, GimbalLock, State, _check_rail_offset, _check_thrusts,
                     aero_angles_array, rotation_matrices)
from .paramio import SchemaError, _csv_rows, _number

# Moving-mass rail motion limits for position-command ("goto") segments.
MM_VMAX = 0.05   # m/s
MM_AMAX = 0.5    # m/s^2

# Yaw rates below this are reported as straight flight (infinite radius).
PSIDOT_MIN = 1e-3


class DegenerateDescent(ValueError):
    """Mean descent rate too small for a meaningful glide ratio."""


class ScheduleGap(ValueError):
    """Segment `index` of a schedule does not start where the one before ends."""

    def __init__(self, index, message):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class Segment:
    """One schedule segment: constant thrusts plus a moving-mass command.

    mm_cmd is "goto" (drive the mass to displacement mm_target [m] from its
    home position with a trapezoidal velocity profile) or "hold" (no new
    command: a goto profile still under way runs to its end, so the mass
    stops on that goto's target).  The times must be finite, thrusts finite
    and non-negative and |mm_target| within the rail limit.
    """

    t_start: float
    t_end: float
    Fl: float
    Fr: float
    mm_cmd: str = "hold"
    mm_target: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.t_start) and math.isfinite(self.t_end)):
            raise ValueError("segment times must be finite")
        if self.t_end <= self.t_start:
            raise ValueError("segment must have positive duration")
        if self.mm_cmd not in ("hold", "goto"):
            raise ValueError(f"unknown moving-mass command {self.mm_cmd!r}")
        _check_thrusts(self.Fl, self.Fr)
        _check_rail_offset(self.mm_target)


@dataclass(frozen=True)
class InputSchedule:
    segments: tuple

    def __post_init__(self):
        segs = tuple(self.segments)
        object.__setattr__(self, "segments", segs)
        if not segs:
            raise ValueError("schedule must have at least one segment")
        for i, (a, b) in enumerate(zip(segs, segs[1:]), 1):
            if not math.isclose(a.t_end, b.t_start, abs_tol=1e-9):
                raise ScheduleGap(i, f"segment {i} starts at {b.t_start:g} s, where the one "
                                     f"before ends at {a.t_end:g} s: segments must be "
                                     "contiguous and sorted")

    @classmethod
    def constant(cls, Fl, Fr, T):
        return cls((Segment(0.0, T, Fl, Fr),))


_SCHEDULE_COLUMNS = ["t_start", "t_end", "Fl_gf", "Fr_gf", "mm_cmd", "mm_target_cm"]


def read_schedule(path):
    """Load a schedule CSV: t_start,t_end,Fl_gf,Fr_gf,mm_cmd,mm_target_cm.

    The table is read by `paramio._csv_rows`, with numbers in all fields
    but mm_cmd.  A malformed or invalid row, or one that starts late
    (`ScheduleGap`), raises SchemaError naming the file, its line and, for
    a bad number, the field."""
    segs, wheres = [], []
    for where, row in _csv_rows(path, _SCHEDULE_COLUMNS):
        t_start, t_end, Fl_gf, Fr_gf, mm_target_cm = (
            _number(where, name, cell)
            for name, cell in zip(_SCHEDULE_COLUMNS, row) if name != "mm_cmd")
        try:
            segs.append(Segment(t_start=t_start, t_end=t_end,
                                Fl=Fl_gf * GF_TO_N, Fr=Fr_gf * GF_TO_N,
                                mm_cmd=row[4].strip(), mm_target=mm_target_cm * 1e-2))
        except ValueError as exc:
            raise SchemaError(f"{where}: {exc}") from None
        wheres.append(where)
    try:
        return InputSchedule(tuple(segs))
    except ScheduleGap as exc:
        raise SchemaError(f"{wheres[exc.index]}: {exc}") from None


@dataclass(frozen=True)
class Trajectory:
    """Uniform-grid trajectory: what `integrate` produced, and the
    per-sample series of its states.

    Each series is derived from `states` the first time it is read and
    kept, so a record made by `dataclasses.replace` derives the series of
    its own states."""

    t: np.ndarray
    states: np.ndarray       # (n, 18)
    dt: float
    status: str              # "ok" | "gimbal_lock" | "non_finite"
    stop_step: int = None    # index of the RK4 step that failed; None when "ok"

    def __len__(self):
        return self.t.size

    @cached_property
    def _aero_angles(self):
        """(alpha, beta, V) of every sample, from one call."""
        return aero_angles_array(self.states[:, 6:9])

    alpha = property(lambda self: self._aero_angles[0])
    beta = property(lambda self: self._aero_angles[1])
    V = property(lambda self: self._aero_angles[2])

    @cached_property
    def v_inertial(self):
        """(n, 3) inertial velocity R(e) v."""
        return np.einsum("nij,nj->ni", rotation_matrices(self.states[:, 3:6]), self.states[:, 6:9])

    @property
    def Vz(self):
        """Inertial sink rate (z down), the last column of `v_inertial`."""
        return self.v_inertial[:, 2]

    @cached_property
    def psidot(self):
        """Inertial yaw rate, the third row of edot = J omega; cos(theta)
        cannot vanish (gimbal guard upstream)."""
        phi, theta, q, r = (self.states[:, i] for i in (3, 4, 10, 11))
        return (np.sin(phi) * q + np.cos(phi) * r) / np.cos(theta)

    @cached_property
    def R(self):
        """Median-smoothed turning radius over the run, within [10 dt, 1 s]
        (inf below 3 samples)."""
        n = len(self)
        window = min(1.0, max(10 * self.dt, (n - 1) * self.dt))
        return _radius_series(self, window) if n >= 3 else np.full(n, np.inf)

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
    """Classical RK4 integration over [0, T] at fixed step dt.  T must be
    a whole number of steps, and the schedule must cover [0, T]: its first
    segment starts at 0 and its last ends at T or later, each to within
    1e-9 s; ValueError otherwise.

    The vehicle is bound once (`dynamics.bind`).  The loop walks the
    schedule one segment at a time and takes each step on float locals:
    every stage passes the kernel's derivative the 15 components it reads,
    y_i + h k_i written out, and the step combines the four stages
    component by component into the row of the preallocated state array.
    Returns the Trajectory of the time grid and the states, and derives no
    series; on gimbal lock or a non-finite state the partial trajectory is
    returned with the corresponding status flag and the index of the step
    that failed."""
    if not (0.0 < dt <= 0.05):
        raise ValueError("dt must be in (0, 0.05]")
    if not 0.0 < T < math.inf:
        raise ValueError("T must be positive and finite")
    t_first, t_last = sched.segments[0].t_start, sched.segments[-1].t_end
    if abs(t_first) > 1e-9 or t_last < T - 1e-9:
        raise ValueError(f"schedule covers [{t_first:g}, {t_last:g}] s, "
                         f"but the run needs [0, {T:g}] s")
    n = round(T / dt)
    if abs(n * dt - T) > 1e-9:
        raise ValueError(f"T = {T:g} s is not a whole number of steps of dt = {dt:g} s")
    deriv = dynamics.bind(params, model, legacy).deriv
    half_dt, sixth_dt = 0.5 * dt, dt / 6.0
    isfinite = math.isfinite

    states = np.empty((n + 1, 18))
    states[0] = state0.as_vector()
    (xe, ye, ze, phi, theta, psi, u, v, w, p, q, r, rx, ry, rz, sx, sy, sz) = states[0].tolist()
    status = "ok"
    stop_step = None
    segs = sched.segments
    last = len(segs) - 1
    profile = []          # moving-mass accelerations of the last goto, from step prof_k0
    prof_k0 = 0
    k0 = 0
    for i, seg in enumerate(segs):
        # The segment holds from step k0 until the step time reaches its
        # end (the last segment holds to T); a segment no step starts in
        # is skipped, its goto unplanned.
        k1 = n
        if i < last:
            k1 = k0
            while k1 < n and k1 * dt < seg.t_end - 1e-9:
                k1 += 1
        if k1 == k0:
            continue
        Fl, Fr = seg.Fl, seg.Fr
        if seg.mm_cmd == "goto":
            profile = plan_goto_profile(params.rail_position(seg.mm_target)[0] - rx, dt).tolist()
            prof_k0 = k0
        prof_end = prof_k0 + len(profile)
        for k in range(k0, k1):
            bx = profile[k - prof_k0] if k < prof_end else 0.0
            try:
                (dxe1, dye1, dze1, dphi1, dth1, dpsi1, du1, dv1, dw1, dp1, dq1, dr1,
                 drx1, dry1, drz1, dsx1, dsy1, dsz1) = deriv(
                    phi, theta, psi, u, v, w, p, q, r, rx, ry, rz, sx, sy, sz,
                    Fl, Fr, bx, 0.0, 0.0)
                (dxe2, dye2, dze2, dphi2, dth2, dpsi2, du2, dv2, dw2, dp2, dq2, dr2,
                 drx2, dry2, drz2, dsx2, dsy2, dsz2) = deriv(
                    phi + half_dt * dphi1, theta + half_dt * dth1, psi + half_dt * dpsi1,
                    u + half_dt * du1, v + half_dt * dv1, w + half_dt * dw1,
                    p + half_dt * dp1, q + half_dt * dq1, r + half_dt * dr1,
                    rx + half_dt * drx1, ry + half_dt * dry1, rz + half_dt * drz1,
                    sx + half_dt * dsx1, sy + half_dt * dsy1, sz + half_dt * dsz1,
                    Fl, Fr, bx, 0.0, 0.0)
                (dxe3, dye3, dze3, dphi3, dth3, dpsi3, du3, dv3, dw3, dp3, dq3, dr3,
                 drx3, dry3, drz3, dsx3, dsy3, dsz3) = deriv(
                    phi + half_dt * dphi2, theta + half_dt * dth2, psi + half_dt * dpsi2,
                    u + half_dt * du2, v + half_dt * dv2, w + half_dt * dw2,
                    p + half_dt * dp2, q + half_dt * dq2, r + half_dt * dr2,
                    rx + half_dt * drx2, ry + half_dt * dry2, rz + half_dt * drz2,
                    sx + half_dt * dsx2, sy + half_dt * dsy2, sz + half_dt * dsz2,
                    Fl, Fr, bx, 0.0, 0.0)
                (dxe4, dye4, dze4, dphi4, dth4, dpsi4, du4, dv4, dw4, dp4, dq4, dr4,
                 drx4, dry4, drz4, dsx4, dsy4, dsz4) = deriv(
                    phi + dt * dphi3, theta + dt * dth3, psi + dt * dpsi3,
                    u + dt * du3, v + dt * dv3, w + dt * dw3,
                    p + dt * dp3, q + dt * dq3, r + dt * dr3,
                    rx + dt * drx3, ry + dt * dry3, rz + dt * drz3,
                    sx + dt * dsx3, sy + dt * dsy3, sz + dt * dsz3,
                    Fl, Fr, bx, 0.0, 0.0)
            except GimbalLock:
                status, stop_step = "gimbal_lock", k
                break
            except ValueError:
                # An RK4 stage state with non-finite Euler angles.
                status, stop_step = "non_finite", k
                break
            xe += sixth_dt * (dxe1 + 2.0 * dxe2 + 2.0 * dxe3 + dxe4)
            ye += sixth_dt * (dye1 + 2.0 * dye2 + 2.0 * dye3 + dye4)
            ze += sixth_dt * (dze1 + 2.0 * dze2 + 2.0 * dze3 + dze4)
            phi += sixth_dt * (dphi1 + 2.0 * dphi2 + 2.0 * dphi3 + dphi4)
            theta += sixth_dt * (dth1 + 2.0 * dth2 + 2.0 * dth3 + dth4)
            psi += sixth_dt * (dpsi1 + 2.0 * dpsi2 + 2.0 * dpsi3 + dpsi4)
            u += sixth_dt * (du1 + 2.0 * du2 + 2.0 * du3 + du4)
            v += sixth_dt * (dv1 + 2.0 * dv2 + 2.0 * dv3 + dv4)
            w += sixth_dt * (dw1 + 2.0 * dw2 + 2.0 * dw3 + dw4)
            p += sixth_dt * (dp1 + 2.0 * dp2 + 2.0 * dp3 + dp4)
            q += sixth_dt * (dq1 + 2.0 * dq2 + 2.0 * dq3 + dq4)
            r += sixth_dt * (dr1 + 2.0 * dr2 + 2.0 * dr3 + dr4)
            rx += sixth_dt * (drx1 + 2.0 * drx2 + 2.0 * drx3 + drx4)
            ry += sixth_dt * (dry1 + 2.0 * dry2 + 2.0 * dry3 + dry4)
            rz += sixth_dt * (drz1 + 2.0 * drz2 + 2.0 * drz3 + drz4)
            sx += sixth_dt * (dsx1 + 2.0 * dsx2 + 2.0 * dsx3 + dsx4)
            sy += sixth_dt * (dsy1 + 2.0 * dsy2 + 2.0 * dsy3 + dsy4)
            sz += sixth_dt * (dsz1 + 2.0 * dsz2 + 2.0 * dsz3 + dsz4)
            y = (xe, ye, ze, phi, theta, psi, u, v, w, p, q, r, rx, ry, rz, sx, sy, sz)
            if not all(map(isfinite, y)):
                status, stop_step = "non_finite", k
                break
            states[k + 1] = y
        if stop_step is not None:
            break
        k0 = k1
    m = n + 1 if stop_step is None else stop_step + 1
    return Trajectory(np.arange(m) * dt, states[:m], dt, status, stop_step)


def turning_radius_series(traj, window):
    """Per-sample horizontal turning radius, median-smoothed over `window`
    seconds.  Samples with |psidot| below PSIDOT_MIN report inf.  At the
    run's window this is `traj.R`: both call one helper."""
    if not 10 * traj.dt - 1e-12 <= window < math.inf:
        raise ValueError(f"window must be finite and at least 10 dt, got {window!r}")
    return _radius_series(traj, window)


def _radius_series(traj, window):
    """Turning radius, the horizontal speed of `traj.v_inertial` over |psidot|
    (inf below PSIDOT_MIN), median-smoothed over `window` s."""
    n, vi, psidot = len(traj), traj.v_inertial, traj.psidot
    hs = np.hypot(vi[:, 0], vi[:, 1])
    slow = np.abs(psidot) < PSIDOT_MIN
    R = np.where(slow, np.inf, hs / np.maximum(np.abs(psidot), PSIDOT_MIN))
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
    forward = np.hypot(*traj.v_inertial[:, :2].T)
    descent = traj.Vz
    k0 = len(traj) // 2
    mean_desc = float(np.mean(descent[k0:]))
    if mean_desc < 1e-3:
        raise DegenerateDescent(f"mean descent {mean_desc:.2e} m/s below 1e-3")
    ratio = float(np.mean(forward[k0:])) / mean_desc
    return forward, descent, ratio
