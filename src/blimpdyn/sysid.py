"""Aerodynamic identification from steady-flight logs.

Pipeline: load motion-capture trial logs, reduce each to an averaged
steady observation, invert the steady-state balance for the wind-frame
aerodynamic loads, mirror-augment the spiral data about the vehicle's
symmetry plane, reject outliers, and fit the polynomial coefficient model
plus rotational damping (linear least squares, then bound-constrained
trust-region refinement).
"""

import csv
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import least_squares
from scipy.signal import savgol_filter

from . import aero as aeromod
from .dynamics import _balance
from .frames import (
    GF_TO_N,
    AeroAngles,
    EulerAngles,
    aero_angles,
    rotation_body_to_inertial,
    wind_to_body,
)

SAVGOL_WINDOW = 11
SAVGOL_ORDER = 2

# Steadiness thresholds over the averaging window.
STEADY_V_FRAC = 0.05
STEADY_THETA_STD = np.radians(1.0)

MAX_OUTLIER_FRAC = 0.20

CHANNELS = ("D", "S", "L", "M1", "M2", "M3")


class SchemaError(ValueError):
    """Manifest or trial file does not match the expected schema."""


class UnitError(ValueError):
    """Trial data outside physical sanity bounds (wrong units?)."""


class NotSteady(ValueError):
    """The trailing portion of the record fails the steadiness test."""


class RankDeficient(RuntimeError):
    """A regression design matrix is numerically rank deficient."""


class InsufficientSpan(ValueError):
    """Observations do not span enough distinct aerodynamic angles."""


@dataclass(frozen=True)
class TrialRecord:
    trial_id: str
    kind: str                  # "straight" | "spiral"
    dr_x: float                # m
    Fl: float                  # N
    Fr: float                  # N
    t: np.ndarray              # s, strictly increasing
    pos: np.ndarray            # (n, 3) m
    euler: np.ndarray          # (n, 3) rad (phi, theta, psi)


@dataclass(frozen=True)
class SteadyObservation:
    theta: float
    phi: float
    psidot: float
    V: float
    alpha: float
    beta: float
    w_b: np.ndarray
    Fl: float
    Fr: float
    rbar: np.ndarray
    kind: str
    weight: float = 1.0
    mirrored: bool = False


@dataclass(frozen=True)
class FitResult:
    model: "aeromod.AeroModel"
    rms: dict                  # per-channel RMS residual after the final fit
    condition: dict            # per-channel design-matrix condition number
    excluded: tuple            # indices of observations dropped as outliers
    stage1_rms: float
    final_rms: float


MANIFEST_COLUMNS = ["trial_id", "file", "kind", "dr_x_cm", "Fl_gf", "Fr_gf"]
TRIAL_COLUMNS = ["t", "x", "y", "z", "phi", "theta", "psi"]


def load_trials(manifest_path):
    """Load a manifest CSV and its referenced trial CSVs, converting to SI."""
    base = os.path.dirname(os.path.abspath(manifest_path))
    records = []
    with open(manifest_path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != MANIFEST_COLUMNS:
            raise SchemaError(
                f"manifest header must be {','.join(MANIFEST_COLUMNS)}, "
                f"got {reader.fieldnames}"
            )
        for i, row in enumerate(reader, start=2):
            path = row["file"]
            if not os.path.isabs(path):
                path = os.path.join(base, path)
            if not os.path.exists(path):
                raise SchemaError(f"manifest row {i}: trial file {row['file']} not found")
            kind = row["kind"].strip()
            if kind not in ("straight", "spiral"):
                raise SchemaError(f"manifest row {i}: unknown kind {kind!r}")
            t, pos, euler = _read_trial_csv(path)
            records.append(
                TrialRecord(
                    trial_id=row["trial_id"],
                    kind=kind,
                    dr_x=float(row["dr_x_cm"]) * 1e-2,
                    Fl=float(row["Fl_gf"]) * GF_TO_N,
                    Fr=float(row["Fr_gf"]) * GF_TO_N,
                    t=t,
                    pos=pos,
                    euler=euler,
                )
            )
    return records


def _read_trial_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != TRIAL_COLUMNS:
            raise SchemaError(f"{path}: trial header must be {','.join(TRIAL_COLUMNS)}")
        data = np.array([[float(v) for v in row] for row in reader])
    if data.ndim != 2 or data.shape[1] != 7 or data.shape[0] < 2:
        raise SchemaError(f"{path}: malformed trial data")
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


def write_trial(path, t, pos, euler):
    """Write a trial CSV (t,x,y,z,phi,theta,psi in s, m, rad)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(TRIAL_COLUMNS)
        for k in range(len(t)):
            w.writerow(
                ["%.9g" % v for v in (t[k], *pos[k], *euler[k])]
            )


def trajectory_to_trial(traj, trial_id, kind, dr_x, Fl, Fr):
    """Repackage a simulated Trajectory as a TrialRecord (mocap-like log).

    Roll and yaw are wrapped to (-pi, pi] as a motion-capture export
    would report them; the integrator keeps yaw continuous internally."""
    euler = traj.states[:, 3:6].copy()
    for col in (0, 2):
        euler[:, col] = (euler[:, col] + np.pi) % (2.0 * np.pi) - np.pi
    return TrialRecord(
        trial_id=trial_id,
        kind=kind,
        dr_x=dr_x,
        Fl=Fl,
        Fr=Fr,
        t=traj.t.copy(),
        pos=traj.states[:, 0:3].copy(),
        euler=euler,
    )


def _smooth_velocity(t, pos):
    """Inertial velocity by central differences on locally smoothed position."""
    n = pos.shape[0]
    win = min(SAVGOL_WINDOW, n if n % 2 == 1 else n - 1)
    if win > SAVGOL_ORDER + 1:
        sm = savgol_filter(pos, win, SAVGOL_ORDER, axis=0)
    else:
        sm = pos
    return np.gradient(sm, t, axis=0)


def extract_steady(rec, window, params):
    """Reduce a trial to one averaged SteadyObservation over its tail.

    The steadiness test (std(V) < 5% of mean V, std(theta) < 1 deg) must
    hold on windows sliding over the trailing 50% of the record; the
    observation averages over the final window."""
    duration = rec.t[-1] - rec.t[0]
    if duration < window + 1.0:
        raise ValueError("record shorter than window + 1 s")

    vel = _smooth_velocity(rec.t, rec.pos)
    n = rec.t.size
    V = np.empty(n)
    alpha = np.empty(n)
    beta = np.empty(n)
    for k in range(n):
        e = EulerAngles(*rec.euler[k])
        v_b = rotation_body_to_inertial(e).T @ vel[k]
        a = aero_angles(v_b)
        V[k], alpha[k], beta[k] = a.V, a.alpha, a.beta

    dt_med = float(np.median(np.diff(rec.t)))
    wlen = max(2, int(round(window / dt_med)))
    tail_start = n // 2
    theta = rec.euler[:, 1]
    # Slide the steadiness window over the trailing half at half-window stride.
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


def observation_from_solution(sol, dr_x, Fl, Fr, params):
    """Build a SteadyObservation directly from a converged equilibrium
    (noise-free synthetic data for identification studies)."""
    return SteadyObservation(
        theta=sol.theta,
        phi=sol.phi,
        psidot=sol.psidot,
        V=sol.V,
        alpha=sol.alpha,
        beta=sol.beta,
        w_b=sol.w_b.copy(),
        Fl=Fl,
        Fr=Fr,
        rbar=params.rbar0 + np.array([dr_x, 0.0, 0.0]),
        kind=sol.kind,
    )


def invert_aero(obs, params):
    """Wind-frame aerodynamic loads implied by one steady observation.

    The steady balance says the aero loads cancel the rest of the
    generalized force and torque (`dynamics._balance`, which is computable
    from the observation and parameters); the negated remainder is resolved
    into the wind frame with the sign conventions D = -x, S = +y, L = -z."""
    aa = AeroAngles(obs.alpha, obs.beta, obs.V)
    R = rotation_body_to_inertial(EulerAngles(obs.phi, obs.theta, 0.0))
    Rvb = wind_to_body(aa)
    rest = _balance((obs.V * Rvb[:, 0]).tolist(), np.asarray(obs.w_b, dtype=float).tolist(),
                    R[2].tolist(), np.asarray(obs.rbar, dtype=float).tolist(), (0.0, 0.0, 0.0),
                    obs.Fl, obs.Fr, params)
    aero = -np.array(rest)
    fw = Rvb.T @ aero[:3]
    mw = Rvb.T @ aero[3:]
    return aeromod.AeroLoads(D=-fw[0], S=fw[1], L=-fw[2], M1=mw[0], M2=mw[1], M3=mw[2])


def average_by_setting(observations):
    """Average observations sharing the same (kind, rbar, Fl, Fr) setting.

    Repeated trials of one setting collapse to a single observation with
    field-wise means; the default identification pipeline is per-trial,
    this is the per-setting alternative."""
    groups = {}
    for obs in observations:
        key = (obs.kind, round(obs.rbar[0], 9), round(obs.Fl, 12), round(obs.Fr, 12), obs.mirrored)
        groups.setdefault(key, []).append(obs)
    out = []
    for group in groups.values():
        first = group[0]
        if len(group) == 1:
            out.append(first)
            continue
        out.append(
            replace(
                first,
                theta=float(np.mean([o.theta for o in group])),
                phi=float(np.mean([o.phi for o in group])),
                psidot=float(np.mean([o.psidot for o in group])),
                V=float(np.mean([o.V for o in group])),
                alpha=float(np.mean([o.alpha for o in group])),
                beta=float(np.mean([o.beta for o in group])),
                w_b=np.mean([o.w_b for o in group], axis=0),
            )
        )
    return out


def mirror_augment(observations):
    """Append the x-O-z mirror image of every spiral observation.

    The reflection negates (phi, psidot, beta, p, r), preserves
    (theta, V, alpha, q), swaps the thrusts, and negates rbar_y.
    Straight observations are their own mirror and are not duplicated."""
    out = list(observations)
    for obs in observations:
        if obs.kind != "spiral" or obs.mirrored:
            continue
        w = obs.w_b
        rbar = obs.rbar.copy()
        rbar[1] = -rbar[1]
        out.append(
            replace(
                obs,
                phi=-obs.phi,
                psidot=-obs.psidot,
                beta=-obs.beta,
                w_b=np.array([-w[0], w[1], -w[2]]),
                Fl=obs.Fr,
                Fr=obs.Fl,
                rbar=rbar,
                mirrored=True,
            )
        )
    return out


# Regressor shapes per channel: basis functions of (alpha, beta), plus the
# body-rate index for the damping term on moment channels (None for forces).
_CHANNEL_BASIS = {
    "D": (lambda a, b: (1.0, a * a, b * b), None),
    "S": (lambda a, b: (1.0, a * a, b), None),
    "L": (lambda a, b: (1.0, a, b * b), None),
    "M1": (lambda a, b: (1.0, a, b), 0),
    "M2": (lambda a, b: (1.0, a, b ** 4), 1),
    "M3": (lambda a, b: (1.0, a, b), 2),
}

# Parameter-vector offsets (into PARAM_NAMES order) per channel.
_CHANNEL_OFFSET = {"D": 0, "S": 3, "L": 6, "M1": 9, "M2": 12, "M3": 15}
_DAMPING_OFFSET = {"M1": 18, "M2": 19, "M3": 20}


def _check_span(observations):
    if len(observations) < 12:
        raise InsufficientSpan(f"need >= 12 observations, got {len(observations)}")
    alphas = {round(o.alpha, 6) for o in observations}
    betas = {round(o.beta, 6) for o in observations}
    if len(alphas) < 4:
        raise InsufficientSpan(f"need >= 4 distinct alpha values, got {len(alphas)}")
    if len(betas) < 3:
        raise InsufficientSpan(f"need >= 3 distinct beta values, got {len(betas)}")


def _channel_regression(channel, observations, loads, params, a_ref):
    basis, rate_idx = _CHANNEL_BASIS[channel]
    ci = CHANNELS.index(channel)
    ncoef = 3 if rate_idx is None else 4
    X = np.empty((len(observations), ncoef))
    y = np.empty(len(observations))
    for k, obs in enumerate(observations):
        q = 0.5 * params.rho * obs.V * obs.V * a_ref
        row = [q * bf for bf in basis(obs.alpha, obs.beta)]
        if rate_idx is not None:
            row.append(obs.w_b[rate_idx])
        X[k] = row
        y[k] = loads[k][ci]
    # Relative-error weighting (measurement error is multiplicative), with
    # a floor so near-zero loads do not dominate the regression.
    floor = max(1e-3 * float(np.median(np.abs(y))), 1e-12)
    w = np.array([obs.weight for obs in observations]) / np.maximum(np.abs(y), floor)
    return X * w[:, None], y * w


def _solve_channel(channel, X, y):
    cond = float(np.linalg.cond(X))
    if cond > 1e10:
        raise RankDeficient(f"channel {channel}: design condition {cond:.2e} > 1e10")
    Q, R = np.linalg.qr(X)
    coef = np.linalg.solve(R, Q.T @ y)
    resid = y - X @ coef
    return coef, resid, cond


def _predicted_loads(model, obs, params):
    aa = AeroAngles(obs.alpha, obs.beta, obs.V)
    return aeromod.aero_loads(model, aa, obs.w_b, params.rho).as_array()


def fit(observations, params, a_ref=None, loads=None, refine=True):
    """Two-stage fit of the aerodynamic model from steady observations.

    Stage 1 is per-channel linear least squares (the model is linear in its
    coefficients); stage 2 refines all 21 parameters jointly with a
    bound-constrained trust-region solve (damping <= 0) and is only
    accepted if it does not increase the total RMS.  Between the stages an
    outlier pass drops observations whose residual on any channel exceeds
    3x the channel MAD, capped at 20% of the data.
    """
    observations = list(observations)
    _check_span(observations)
    if a_ref is None:
        a_ref = params.A_ref
    if loads is None:
        loads = [invert_aero(o, params).as_array() for o in observations]
    else:
        loads = [np.asarray(l, dtype=float).reshape(6) for l in loads]
        if len(loads) != len(observations):
            raise ValueError("loads must align with observations")

    def stage1(idx):
        obs_sel = [observations[i] for i in idx]
        loads_sel = [loads[i] for i in idx]
        coefs = {}
        resids = {}
        conds = {}
        for ch in CHANNELS:
            X, y = _channel_regression(ch, obs_sel, loads_sel, params, a_ref)
            coefs[ch], resids[ch], conds[ch] = _solve_channel(ch, X, y)
        return coefs, resids, conds

    idx = list(range(len(observations)))
    coefs, resids, conds = stage1(idx)

    # Outlier pass: per-channel 3x MAD on the weighted (relative) residuals,
    # with an absolute floor well below any plausible measurement noise so
    # that machine-precision residuals on clean data never trigger drops.
    scores = np.zeros(len(idx))
    for ch in CHANNELS:
        r = np.abs(resids[ch])
        mad = np.median(np.abs(r - np.median(r)))
        thresh = max(3.0 * mad, 1e-4)
        scores = np.maximum(scores, r / thresh)
    flagged = np.argsort(-scores)
    n_max = int(MAX_OUTLIER_FRAC * len(idx))
    drop = [int(k) for k in flagged[:n_max] if scores[k] > 1.0]
    if drop:
        idx = [i for i in idx if i not in set(drop)]
        try:
            _check_span([observations[i] for i in idx])
        except InsufficientSpan:
            idx = list(range(len(observations)))
            drop = []
        else:
            coefs, resids, conds = stage1(idx)

    x0 = np.empty(21)
    for ch in CHANNELS:
        x0[_CHANNEL_OFFSET[ch]:_CHANNEL_OFFSET[ch] + 3] = coefs[ch][:3]
        if ch in _DAMPING_OFFSET:
            x0[_DAMPING_OFFSET[ch]] = min(0.0, coefs[ch][3])

    template = aeromod.AeroModel(*([0.0] * 18), 0.0, 0.0, 0.0, a_ref=a_ref)
    obs_kept = [observations[i] for i in idx]
    loads_kept = np.array([loads[i] for i in idx])
    # Same relative-error scaling as stage 1, element by element.
    floor = np.maximum(1e-3 * np.median(np.abs(loads_kept), axis=0), 1e-12)
    sigma = np.maximum(np.abs(loads_kept), floor)

    def packed_residual(x):
        m = template.with_vector(x)
        pred = np.array([_predicted_loads(m, o, params) for o in obs_kept])
        return ((pred - loads_kept) / sigma).ravel()

    res0 = packed_residual(x0)
    rms0 = float(np.sqrt(np.mean(res0 ** 2)))
    x_final = x0
    rms_final = rms0

    if refine:
        lb = np.full(21, -np.inf)
        ub = np.full(21, np.inf)
        ub[18:21] = 0.0
        sol = least_squares(
            packed_residual, np.clip(x0, lb, ub), bounds=(lb, ub),
            method="trf", xtol=1e-14, ftol=1e-14, gtol=1e-14, max_nfev=200,
        )
        rms_ref = float(np.sqrt(np.mean(sol.fun ** 2)))
        if rms_ref <= rms0 + 1e-15:
            x_final = sol.x
            rms_final = rms_ref

    model = template.with_vector(x_final)
    pred = np.array([_predicted_loads(model, o, params) for o in obs_kept])
    per_ch = np.sqrt(np.mean((pred - loads_kept) ** 2, axis=0))
    return FitResult(
        model=model,
        rms={ch: float(per_ch[i]) for i, ch in enumerate(CHANNELS)},
        condition={ch: conds[ch] for ch in CHANNELS},
        excluded=tuple(sorted(drop)),
        stage1_rms=rms0,
        final_rms=rms_final,
    )
