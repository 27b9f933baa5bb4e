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

The `prior_*` functions are the array implementations as `blimpdyn.sysid`
had them before the reader passed numpy the path, the extraction smoothed
and differentiated only the tail, and the fit built its designs once per
call; the package must give their outputs bit for bit.

- `prior_read_trial_csv`: numpy parses the open file handle, line by line.
- `prior_extract_steady`: smooths and differentiates the whole record with
  `np.gradient`, and takes `np.median` and one `np.mean` per quantity.
- `prior_fit`: builds the designs from one list per quantity and a stack
  per channel, and rounds the angles in every span check.
"""

import csv
import warnings

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
    CHANNELS,
    MAX_OUTLIER_FRAC,
    SAVGOL_ORDER,
    SAVGOL_WINDOW,
    STEADY_THETA_STD,
    STEADY_V_FRAC,
    TRIAL_COLUMNS,
    FitResult,
    InsufficientSpan,
    NotSteady,
    RankDeficient,
    SchemaError,
    SteadyObservation,
    UnitError,
    _bad_trial_row,
    _invert_loads,
    _lstsq,
    _median,
    _savgol_operator,
    _weights,
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


def prior_read_trial_csv(path):
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
        if header != TRIAL_COLUMNS:
            raise SchemaError(f"{path}: trial header must be {','.join(TRIAL_COLUMNS)}")
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"', ndmin=2)
        except ValueError as exc:
            raise SchemaError(_bad_trial_row(path)) from exc
    if data.shape[1] != 7 or data.shape[0] < 2:
        raise SchemaError(f"{path}: malformed trial data")
    if not np.isfinite(data).all():
        raise SchemaError(_bad_trial_row(path))
    t = data[:, 0]
    if np.any(np.diff(t) <= 0):
        raise SchemaError(f"{path}: time must be strictly increasing")
    if t[-1] - t[0] < 2.0:
        raise SchemaError(f"{path}: trial shorter than 2 s")
    pos = data[:, 1:4]
    euler = data[:, 4:7]
    if np.max(np.abs(pos)) > 20.0:
        raise UnitError(f"{path}: |position| exceeds 20 m; wrong units?")
    if np.max(np.abs(euler)) > np.pi + 1e-9:
        raise UnitError(f"{path}: |angle| exceeds pi rad; wrong units?")
    return t, pos, euler


def prior_smooth_velocity(t, pos):
    n = pos.shape[0]
    win = min(SAVGOL_WINDOW, n if n % 2 == 1 else n - 1)
    if win > SAVGOL_ORDER + 1:
        op, h = _savgol_operator(win), win // 2
        sm = np.empty(pos.shape)
        sm[h:n - h] = np.column_stack([np.correlate(col, op[h], "valid") for col in pos.T])
        sm[:h] = op[:h] @ pos[:win]
        sm[n - h:] = op[win - h:] @ pos[n - win:]
    else:
        sm = pos
    return np.gradient(sm, t, axis=0)


def prior_extract_steady(rec, window, params):
    duration = rec.t[-1] - rec.t[0]
    if duration < window + 1.0:
        raise ValueError("record shorter than window + 1 s")

    vel = prior_smooth_velocity(rec.t, rec.pos)
    n = rec.t.size
    dt_med = float(np.median(np.diff(rec.t)))
    wlen = max(2, int(round(window / dt_med)))
    head = max(0, min(n // 2, n - wlen))
    t, euler = rec.t[head:], rec.euler[head:]
    m = n - head
    v_b = np.einsum("nji,nj->ni", rotation_matrices(euler), vel[head:])
    alpha, beta, V = aero_angles_array(v_b)

    theta = euler[:, 1]
    starts = list(range(n // 2 - head, m - wlen + 1, max(1, wlen // 2)))
    if not starts or starts[-1] != m - wlen:
        starts.append(m - wlen)
    for s0 in starts:
        sl = slice(s0, s0 + wlen)
        if np.std(V[sl]) >= STEADY_V_FRAC * np.mean(V[sl]):
            raise NotSteady(f"{rec.trial_id}: airspeed unsteady in trailing window")
        if np.std(theta[sl]) >= STEADY_THETA_STD:
            raise NotSteady(f"{rec.trial_id}: pitch unsteady in trailing window")

    sl = slice(m - wlen, m)
    tc = t[sl] - np.mean(t[sl])
    psi = np.unwrap(euler[sl, 2])
    psidot = float(tc @ (psi - np.mean(psi)) / (tc @ tc))
    theta_m = float(np.mean(theta[sl]))
    phi_m = float(np.mean(euler[sl, 0]))
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


def prior_check_span(observations):
    if len(observations) < 12:
        raise InsufficientSpan(f"need >= 12 observations, got {len(observations)}")
    alphas = {round(o.alpha, 6) for o in observations}
    betas = {round(o.beta, 6) for o in observations}
    if len(alphas) < 4:
        raise InsufficientSpan(f"need >= 4 distinct alpha values, got {len(alphas)}")
    if len(betas) < 3:
        raise InsufficientSpan(f"need >= 3 distinct beta values, got {len(betas)}")


def prior_regressors(observations, params):
    a = np.array([o.alpha for o in observations])
    b = np.array([o.beta for o in observations])
    V = np.array([o.V for o in observations])
    w_b = np.array([o.w_b for o in observations], dtype=float)
    q = 0.5 * params.rho * V * V * params.A_ref
    qa, qaa, qb, qbb = q * a, q * (a * a), q * b, q * (b * b)
    qb4 = q * np.float_power(b, 4)
    forces = np.stack([
        np.stack([q, qaa, qbb], axis=-1),
        np.stack([q, qaa, qb], axis=-1),
        np.stack([q, qa, qbb], axis=-1),
    ])
    moments = np.stack([
        np.stack([q, qa, qb, w_b[:, 0]], axis=-1),
        np.stack([q, qa, qb4, w_b[:, 1]], axis=-1),
        np.stack([q, qa, qb, w_b[:, 2]], axis=-1),
    ])
    return forces, moments


def _prior_solve_channels(design, loads):
    W = _weights(loads).T
    Y = loads.T * W
    Xs = (design[0] * W[:3, :, None], design[1] * W[3:, :, None])
    (cf, cond_f), (cm, cond_m) = _lstsq(Xs[0], Y[:3]), _lstsq(Xs[1], Y[3:])
    conds = np.concatenate([cond_f, cond_m])
    for ch, cond in zip(CHANNELS, conds):
        if cond > 1e10:
            raise RankDeficient(f"channel {ch}: design condition {cond:.2e} > 1e10")
    return Xs, Y, (cf, cm), conds


def _prior_apply(stacks, coefs):
    return np.concatenate([(X @ c[..., None])[..., 0] for X, c in zip(stacks, coefs)])


def prior_fit(observations, params, loads=None):
    observations = list(observations)
    prior_check_span(observations)
    if loads is None:
        loads = _invert_loads(observations, params)
    else:
        loads = np.asarray(loads, dtype=float).reshape(len(loads), 6)
        if len(loads) != len(observations):
            raise ValueError("loads must align with observations")

    design = prior_regressors(observations, params)
    Xs, Y, coefs, conds = _prior_solve_channels(design, loads)

    r = np.abs(Y - _prior_apply(Xs, coefs)).T
    mad = _median(np.abs(r - _median(r)))
    scores = np.max(r / np.maximum(3.0 * mad, 1e-4), axis=1)
    flagged = np.argsort(-scores)
    n_max = int(MAX_OUTLIER_FRAC * len(observations))
    drop = sorted(int(k) for k in flagged[:n_max] if scores[k] > 1.0)
    if drop:
        kept = np.delete(np.arange(len(observations)), drop)
        try:
            prior_check_span([observations[i] for i in kept])
        except InsufficientSpan:
            drop = []
        else:
            design = (design[0][:, kept], design[1][:, kept])
            loads = loads[kept]
            Xs, Y, coefs, conds = _prior_solve_channels(design, loads)

    cf, cm = coefs
    for j in np.flatnonzero(cm[:, 3] > 0.0):
        cm[j] = np.append(_lstsq(Xs[1][j, :, :3], Y[3 + j])[0], 0.0)

    x = np.concatenate([cf.ravel(), cm[:, :3].ravel(), cm[:, 3]])
    model = aeromod.AeroModel(*x, a_ref=params.A_ref)
    per_ch = np.sqrt(np.mean((_prior_apply(design, coefs) - loads.T) ** 2, axis=1))
    return FitResult(
        model=model,
        rms={ch: float(per_ch[i]) for i, ch in enumerate(CHANNELS)},
        condition={ch: float(c) for ch, c in zip(CHANNELS, conds)},
        excluded=tuple(drop),
        final_rms=float(np.sqrt(np.mean((Y - _prior_apply(Xs, coefs)) ** 2))),
    )
