"""Reference implementations of the steady extraction and the load
inversion, as `blimpdyn.sysid` computed them before the smoother became a
prebuilt operator and the inversion one arithmetic core: the tests compare
the package against these.

- `reference_smooth_velocity`: `scipy.signal.savgol_filter` (order 2,
  `mode="interp"`) followed by `np.gradient`.
- `reference_extract_steady`: the steady extraction over it, with the yaw
  rate from `np.polyfit`.
- `reference_invert_aero`: one observation at a time, through `AeroAngles`,
  `EulerAngles`, the rotation matrices and the reference balance of
  `reference_kernel`.
- `reference_write_trial`: the trial-log writer that formats each cell
  ("%.9g" of the numpy scalar) and writes it through `csv.writer`.
"""

import csv

import numpy as np
from reference_kernel import _balance
from reference_matrix import wind_to_body
from scipy.signal import savgol_filter

from blimpdyn import aero as aeromod
from blimpdyn.frames import (
    AeroAngles,
    EulerAngles,
    aero_angles_array,
    rotation_body_to_inertial,
    rotation_matrices,
)
from blimpdyn.sysid import (
    SAVGOL_ORDER,
    SAVGOL_WINDOW,
    STEADY_THETA_STD,
    STEADY_V_FRAC,
    TRIAL_COLUMNS,
    NotSteady,
    SteadyObservation,
)


def reference_smooth_velocity(t, pos):
    n = pos.shape[0]
    win = min(SAVGOL_WINDOW, n if n % 2 == 1 else n - 1)
    if win > SAVGOL_ORDER + 1:
        sm = savgol_filter(pos, win, SAVGOL_ORDER, axis=0)
    else:
        sm = pos
    return np.gradient(sm, t, axis=0)


def reference_extract_steady(rec, window, params):
    duration = rec.t[-1] - rec.t[0]
    if duration < window + 1.0:
        raise ValueError("record shorter than window + 1 s")

    vel = reference_smooth_velocity(rec.t, rec.pos)
    n = rec.t.size
    v_b = np.einsum("nji,nj->ni", rotation_matrices(rec.euler), vel)
    alpha, beta, V = aero_angles_array(v_b)

    dt_med = float(np.median(np.diff(rec.t)))
    wlen = max(2, int(round(window / dt_med)))
    tail_start = n // 2
    theta = rec.euler[:, 1]
    starts = list(range(tail_start, n - wlen + 1, max(1, wlen // 2)))
    if not starts or starts[-1] != n - wlen:
        starts.append(n - wlen)
    for s0 in starts:
        sl = slice(s0, s0 + wlen)
        if np.std(V[sl]) >= STEADY_V_FRAC * np.mean(V[sl]):
            raise NotSteady(f"{rec.trial_id}: airspeed unsteady in trailing window")
        if np.std(theta[sl]) >= STEADY_THETA_STD:
            raise NotSteady(f"{rec.trial_id}: pitch unsteady in trailing window")

    sl = slice(n - wlen, n)
    psi_unwrapped = np.unwrap(rec.euler[:, 2])
    psidot = float(np.polyfit(rec.t[sl], psi_unwrapped[sl], 1)[0])
    theta_m = float(np.mean(theta[sl]))
    phi_m = float(np.mean(rec.euler[sl, 0]))
    sth, cth = np.sin(theta_m), np.cos(theta_m)
    sphi, cphi = np.sin(phi_m), np.cos(phi_m)
    w_b = psidot * np.array([-sth, sphi * cth, cphi * cth])
    return SteadyObservation(
        theta=theta_m,
        phi=phi_m,
        psidot=psidot,
        V=float(np.mean(V[sl])),
        alpha=float(np.mean(alpha[sl])),
        beta=float(np.mean(beta[sl])),
        w_b=w_b,
        Fl=rec.Fl,
        Fr=rec.Fr,
        rbar=params.rbar0 + np.array([rec.dr_x, 0.0, 0.0]),
        kind=rec.kind,
    )


def reference_invert_aero(obs, params):
    aa = AeroAngles(obs.alpha, obs.beta, obs.V)
    R = rotation_body_to_inertial(EulerAngles(obs.phi, obs.theta, 0.0))
    Rvb = wind_to_body(aa)
    rest = _balance((obs.V * Rvb[:, 0]).tolist(), np.asarray(obs.w_b, dtype=float).tolist(),
                    R[2].tolist(), np.asarray(obs.rbar, dtype=float).tolist(), (0.0, 0.0, 0.0),
                    obs.Fl, obs.Fr, params, False)
    aero = -np.array(rest)
    fw = Rvb.T @ aero[:3]
    mw = Rvb.T @ aero[3:]
    return aeromod.AeroLoads(D=-fw[0], S=fw[1], L=-fw[2], M1=mw[0], M2=mw[1], M3=mw[2])


def reference_write_trial(path, t, pos, euler):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(TRIAL_COLUMNS)
        for k in range(len(t)):
            w.writerow(
                ["%.9g" % v for v in (t[k], *pos[k], *euler[k])]
            )
