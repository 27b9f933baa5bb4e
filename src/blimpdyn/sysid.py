"""Aerodynamic identification from steady-flight logs.

Pipeline: load motion-capture trial logs (the manifest and each log's
header by `paramio`'s table reader, each log body by numpy's C text
reader, given the log's path so that it reads the file in chunks; a bad
row is rejected, named by file and line), reduce each to an averaged
steady observation, invert the steady-state balance for the
wind-frame aerodynamic loads, mirror-augment the spiral data about the
vehicle's symmetry plane, reject outliers, and fit the polynomial
coefficient model plus rotational damping.  `write_trial` writes a log
through `paramio`'s writer, its body by `paramio._float_rows`: every value
in `paramio.FLOAT_FMT`, in one formatting pass over the whole table.

The position smoother is a Savitzky-Golay operator built once per window
length: the least-squares projection onto quadratics, whose middle row is
the interior convolution and whose outer rows are the edge fits.  The
extraction smooths and differentiates only the tail of a log that its
windows read.  A steady observation is the solvers' own record,
`equilibria.SteadySolution`: the six unknowns
(theta, phi, psidot, V, alpha, beta) and the setting, with a NaN residual
norm where nothing was solved (`fit` never reads it), so `fit` and
`invert_aero` take solver output directly; its body velocity, body rates
and down axis are derived from the unknowns by the solvers' kinematics
(`equilibria._unknowns_to_kinematics`), never stored.  The load inversion
is one function of an observation, on floats (those kinematics, the bound
balance of `dynamics._bind_balance` and `aero._body_to_wind`), which `fit`
maps over the observations and `invert_aero` calls on one; the rail,
attitude and angle rules are those of `frames`.  The model is linear in
its coefficients and each load channel has its own, so the fit is an
exact weighted least-squares solve per channel, done as two stacked
solves (the three forces and the three moments), each one batched SVD
that also gives the condition numbers; the bound damping <= 0 is met by
one active-set step.
"""

import functools
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from . import aero as aeromod
from .dynamics import _bind_balance
from .equilibria import SteadySolution, _unknowns_to_kinematics
from .frames import (
    GF_TO_N,
    _check_aero_angles,
    _check_attitude,
    _check_rail_offset,
    _check_thrusts,
    aero_angles_array,
    rotation_matrices,
    wrap_angle,
)
from .paramio import SchemaError, _csv_rows, _float_rows, _number, _write_table

SAVGOL_WINDOW = 11
SAVGOL_ORDER = 2

# Steadiness thresholds over the averaging window.
STEADY_V_FRAC = 0.05
STEADY_THETA_STD = np.radians(1.0)

MAX_OUTLIER_FRAC = 0.20

CHANNELS = ("D", "S", "L", "M1", "M2", "M3")


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
class FitResult:
    model: "aeromod.AeroModel"
    rms: dict                  # per-channel RMS residual after the final fit
    condition: dict            # per-channel design-matrix condition number
    excluded: tuple            # indices of observations dropped as outliers
    final_rms: float           # RMS relative residual over all channels


MANIFEST_COLUMNS = ["trial_id", "file", "kind", "dr_x_cm", "Fl_gf", "Fr_gf"]
TRIAL_COLUMNS = ["t", "x", "y", "z", "phi", "theta", "psi"]


def load_trials(manifest_path):
    """Load a manifest CSV and its referenced trial CSVs, converting to SI.

    The manifest is read by `paramio._csv_rows`, with numbers in dr_x_cm,
    Fl_gf and Fr_gf.  A malformed or invalid row raises SchemaError naming
    the manifest file, its line and, for a bad number, the field."""
    base = os.path.dirname(os.path.abspath(manifest_path))
    records = []
    for where, row in _csv_rows(manifest_path, MANIFEST_COLUMNS):
        trial_id, file, kind = row[0], row[1], row[2].strip()
        path = file if os.path.isabs(file) else os.path.join(base, file)
        if not os.path.exists(path):
            raise SchemaError(f"{where}: trial file {file} not found")
        if kind not in ("straight", "spiral"):
            raise SchemaError(f"{where}: unknown kind {kind!r}")
        dr_x_cm, Fl_gf, Fr_gf = (_number(where, name, cell)
                                 for name, cell in zip(MANIFEST_COLUMNS[3:], row[3:]))
        Fl, Fr, dr_x = Fl_gf * GF_TO_N, Fr_gf * GF_TO_N, dr_x_cm * 1e-2
        try:
            _check_thrusts(Fl, Fr)
            _check_rail_offset(dr_x)
        except ValueError as exc:
            raise SchemaError(f"{where}: {exc}") from None
        t, pos, euler = _read_trial_csv(path)
        records.append(TrialRecord(trial_id=trial_id, kind=kind, dr_x=dr_x, Fl=Fl, Fr=Fr,
                                   t=t, pos=pos, euler=euler))
    return records


def _read_trial_csv(path):
    """Time, position and Euler angles of a trial log.  The table reader
    checks the header and that a first row follows it, of seven fields;
    numpy reads the body from the path, in chunks, and one column-wise max
    of |data| gives the finiteness and unit checks (NaN propagates
    through it)."""
    next(_csv_rows(path, TRIAL_COLUMNS))
    try:
        data = np.loadtxt(path, delimiter=",", comments=None, quotechar='"', ndmin=2,
                          skiprows=1)
    except ValueError as exc:
        raise SchemaError(_bad_trial_row(path)) from exc
    if data.shape[1] != 7 or data.shape[0] < 2:
        raise SchemaError(f"{path}: malformed trial data")
    peak = np.abs(data).max(axis=0)
    if not np.isfinite(peak).all():
        raise SchemaError(_bad_trial_row(path))
    t = data[:, 0]
    if np.any(np.diff(t) <= 0):
        raise SchemaError(f"{path}: time must be strictly increasing")
    if t[-1] - t[0] < 2.0:
        raise SchemaError(f"{path}: trial shorter than 2 s")
    if peak[1:4].max() > 20.0:
        raise UnitError(f"{path}: |position| exceeds 20 m; wrong units?")
    if peak[4:7].max() > np.pi + 1e-9:
        raise UnitError(f"{path}: |angle| exceeds pi rad; wrong units?")
    return t, data[:, 1:4], data[:, 4:7]


def _bad_trial_row(path):
    """Message naming the first data row of a trial CSV that is not seven
    finite numbers, by its line in the file; the table reader
    (`paramio._csv_rows`) skips blank lines and raises its SchemaError on
    a row that is not seven fields."""
    for where, row in _csv_rows(path, TRIAL_COLUMNS):
        for v in row:
            try:
                x = float(v)
            except ValueError:
                return f"{where}: non-numeric value {v!r}"
            if not math.isfinite(x):
                return f"{where}: non-finite value {v!r}"
    return f"{path}: malformed trial data"


def write_trial(path, t, pos, euler):
    """Write a trial CSV (t,x,y,z,phi,theta,psi in s, m, rad): `t` of shape
    (n,), `pos` and `euler` of shape (n, 3).  Every value is printed with
    `paramio.FLOAT_FMT` from a Python float, the whole body in one
    formatting pass."""
    t, pos, euler = np.asarray(t), np.asarray(pos), np.asarray(euler)
    if t.ndim != 1 or pos.shape != (t.size, 3) or euler.shape != (t.size, 3):
        raise ValueError(f"write_trial needs t of shape (n,) and pos, euler of shape (n, 3), "
                         f"got {t.shape}, {pos.shape}, {euler.shape}")
    _write_table(path, TRIAL_COLUMNS, _float_rows(t, pos, euler))


def trajectory_to_trial(traj, trial_id, kind, dr_x, Fl, Fr):
    """Repackage a simulated Trajectory as a TrialRecord (mocap-like log).

    Roll and yaw are wrapped to (-pi, pi] as a motion-capture export
    would report them; the integrator keeps yaw continuous internally."""
    euler = traj.states[:, 3:6].copy()
    euler[:, 0::2] = wrap_angle(euler[:, 0::2])
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


@functools.lru_cache(maxsize=None)
def _savgol_operator(win):
    """The (win, win) least-squares projection of `win` equally spaced
    samples onto polynomials of order SAVGOL_ORDER: row k weights the
    window's samples into the fitted value at sample k.  Its middle row is
    the Savitzky-Golay smoothing kernel; its first and last `win // 2` rows
    fit the record's edges, as `scipy.signal.savgol_filter(mode="interp")`.
    Read-only, since the cache hands the same array to every caller."""
    x = np.arange(win, dtype=float) - win // 2
    vander = np.vander(x, SAVGOL_ORDER + 1)
    op = vander @ np.linalg.pinv(vander)
    op.setflags(write=False)
    return op


def _smooth_velocity(dt, pos, head):
    """Inertial velocity of samples `head` to n - 1 (0 <= head <= n // 2),
    from the spacings `dt = np.diff(t)` of the n sample times: np.gradient
    (edge order 1) of the locally smoothed position, bit for bit, from the
    smoothed rows `head - 1` on (row 0 if `head` is 0)."""
    n = pos.shape[0]
    lo = max(head - 1, 0)
    win = min(SAVGOL_WINDOW, n if n % 2 == 1 else n - 1)
    if win > SAVGOL_ORDER + 1:
        op, h = _savgol_operator(win), win // 2
        # Rows lo to n - 1: the front edge fits (none unless lo < h), the
        # interior convolution and the back edge fits.
        mid = max(lo, h)
        sm = np.concatenate([
            (op[:h] @ pos[:win])[lo:],
            np.column_stack([np.correlate(col, op[h], "valid") for col in pos[mid - h:].T]),
            op[win - h:] @ pos[n - win:],
        ])
    else:
        sm = pos[lo:]
    vel = np.empty(sm.shape)
    vel[0] = (sm[1] - sm[0]) / dt[lo]          # the first-row edge, kept only if head is 0
    vel[-1] = (sm[-1] - sm[-2]) / dt[-1]
    if (dt == dt[0]).all():
        # np.gradient's form for uniform spacing, which it takes when every
        # spacing of the record is equal.
        vel[1:-1] = (sm[2:] - sm[:-2]) / (2.0 * dt[0])
    else:
        dx1, dx2 = dt[lo:-1, None], dt[lo + 1:, None]
        vel[1:-1] = (-dx2 / (dx1 * (dx1 + dx2)) * sm[:-2] + (dx2 - dx1) / (dx1 * dx2) * sm[1:-1]
                     + dx1 / (dx2 * (dx1 + dx2)) * sm[2:])
    return vel[head - lo:]


def extract_steady(rec, window, params):
    """Reduce a trial to one averaged steady observation over its tail: a
    `SteadySolution` whose residual norm is NaN, since nothing was solved.

    A window is `window` seconds of samples at the median sample spacing
    (`wlen` samples), and the final window is the last `wlen` samples.  The
    steadiness test (std(V) < 5% of mean V, std(theta) < 1 deg) must hold
    on windows sliding at half-window stride over the trailing half of the
    record, and on the final window; the observation averages over the
    final window.  Where the window is longer than half the record, the
    final window is the only one and starts before the half: the 4 s
    window on a 6 s log covers its last two thirds.  Velocities are
    smoothed and differentiated on the tail only."""
    if not 0.0 < window < math.inf:
        raise ValueError(f"window must be positive and finite, got {window!r}")
    duration = rec.t[-1] - rec.t[0]
    if duration < window + 1.0:
        raise ValueError("record shorter than window + 1 s")

    n = rec.t.size
    dt = np.diff(rec.t)
    # np.median of the spacings, from one partition.
    part = np.partition(dt, ((n - 2) // 2, (n - 1) // 2))
    dt_med = float((part[(n - 2) // 2] + part[(n - 1) // 2]) / 2.0)
    wlen = max(2, int(round(window / dt_med)))
    # Every window below lies in the tail: the trailing half, or the final
    # window where that is longer (the whole record if the window is longer
    # still).  Indices from here on count from its first sample.
    head = max(0, min(n // 2, n - wlen))
    t, euler = rec.t[head:], rec.euler[head:]
    m = n - head
    # Body-frame velocity R(e)^T v of every tail sample.
    v_b = np.einsum("nji,nj->ni", rotation_matrices(euler), _smooth_velocity(dt, rec.pos, head))
    alpha, beta, V = aero_angles_array(v_b)

    theta = euler[:, 1]
    # Slide the steadiness window over the trailing half at half-window stride.
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
    psi = np.unwrap(euler[sl, 2])
    # The means over the final window, one row each, from one reduction.
    t_m, psi_m, theta_m, phi_m, V_m, alpha_m, beta_m = np.array(
        [t[sl], psi, theta[sl], euler[sl, 0], V[sl], alpha[sl], beta[sl]]).mean(axis=1).tolist()
    # Yaw rate: the least-squares slope of the unwrapped yaw over the window.
    tc = t[sl] - t_m
    psidot = float(tc @ (psi - psi_m) / (tc @ tc))
    return SteadySolution(
        theta=theta_m,
        phi=phi_m,
        psidot=psidot,
        V=V_m,
        alpha=alpha_m,
        beta=beta_m,
        Fl=rec.Fl,
        Fr=rec.Fr,
        rbar=params.rail_position(rec.dr_x),
        kind=rec.kind,
    )


def _bind_inversion(params):
    """The load inversion of `params`: one function of a steady observation
    that returns its wind-frame loads (D, S, L, M1, M2, M3) as six floats.

    The steady balance says the aero loads cancel the rest of the
    generalized force and torque (the balance bound by
    `dynamics._bind_balance`), at the body velocity, body rates and down
    axis that `equilibria._unknowns_to_kinematics` derives from the
    observation's six unknowns, as the Newton residual does; the negated
    remainder is resolved into the wind frame by `aero._body_to_wind`, the
    one use of alpha and beta here.  An observation whose airspeed,
    aerodynamic angles or attitude lie outside the domain of `AeroAngles`
    or `EulerAngles` (a NaN included) raises their ValueError, from the
    checks of `frames` they call."""
    mass_terms, balance = _bind_balance(params, False)[:2]
    cos, sin = math.cos, math.sin
    body_to_wind = aeromod._body_to_wind

    def invert(obs):
        """Wind-frame loads (D, S, L, M1, M2, M3) of one observation."""
        a, b = obs.alpha, obs.beta
        _check_aero_angles(a, b, obs.V)
        _check_attitude(obs.phi, obs.theta)
        rx, ry, rz = obs.rbar.tolist()
        fx, fy, fz, tx, ty, tz = balance(
            mass_terms(rx, ry, rz), *_unknowns_to_kinematics(obs.unknowns),
            rx, ry, rz, 0.0, 0.0, 0.0, obs.Fl, obs.Fr)
        return body_to_wind(cos(a), sin(a), cos(b), sin(b), -fx, -fy, -fz, -tx, -ty, -tz)

    return invert


def invert_aero(obs, params):
    """Wind-frame aerodynamic loads implied by one steady observation (see
    `_bind_inversion`)."""
    return aeromod.AeroLoads(*_bind_inversion(params)(obs))


def average_by_setting(observations):
    """Average observations sharing the same (kind, rbar, Fl, Fr) setting.

    Repeated trials of one setting collapse to a single observation whose
    six unknowns are the means of theirs, so its body rates are those of
    its mean attitude and yaw rate, and whose residual norm is NaN; the
    default identification pipeline is per-trial, this is the per-setting
    alternative."""
    groups = {}
    for obs in observations:
        key = (obs.kind, round(obs.rbar[0], 9), round(obs.Fl, 12), round(obs.Fr, 12), obs.mirrored)
        groups.setdefault(key, []).append(obs)
    return [replace(group[0], residual_norm=math.nan,
                    **{name: float(np.mean([getattr(o, name) for o in group]))
                       for name in ("theta", "phi", "psidot", "V", "alpha", "beta")})
            for group in groups.values()]


def mirror_augment(observations):
    """Append the x-O-z mirror image of every spiral observation.

    The reflection negates (phi, psidot, beta), preserves
    (theta, V, alpha), swaps the thrusts, and negates rbar_y; the body
    rates follow, p and r negated and q kept.  A mirror image was not
    solved, so its residual norm is NaN.  Straight observations are
    their own mirror and are not duplicated."""
    out = list(observations)
    for obs in observations:
        if obs.kind != "spiral" or obs.mirrored:
            continue
        rbar = obs.rbar.copy()
        rbar[1] = -rbar[1]
        out.append(
            replace(
                obs,
                phi=-obs.phi,
                psidot=-obs.psidot,
                beta=-obs.beta,
                Fl=obs.Fr,
                Fr=obs.Fl,
                rbar=rbar,
                residual_norm=math.nan,
                mirrored=True,
            )
        )
    return out


def _check_span(angles):
    """Raise InsufficientSpan unless the observations' (alpha, beta) pairs
    `angles`, each rounded to 6 decimals, number at least 12 and span at
    least 4 distinct alpha and 3 distinct beta values."""
    if len(angles) < 12:
        raise InsufficientSpan(f"need >= 12 observations, got {len(angles)}")
    alphas = {a for a, _ in angles}
    betas = {b for _, b in angles}
    if len(alphas) < 4:
        raise InsufficientSpan(f"need >= 4 distinct alpha values, got {len(alphas)}")
    if len(betas) < 3:
        raise InsufficientSpan(f"need >= 3 distinct beta values, got {len(betas)}")


# Columns of the array that `_regressors` gathers both stacks from, with Q
# the dynamic pressure times the reference area and p, q, r the body rates:
# Q, Q a, Q a^2, Q b, Q b^2, Q b^4, p, q, r.
_FORCE_COLUMNS = np.array([[0, 2, 4],          # D: 1, a^2, b^2
                           [0, 2, 3],          # S: 1, a^2, b
                           [0, 1, 4]])         # L: 1, a, b^2
_MOMENT_COLUMNS = np.array([[0, 1, 3, 6],      # M1: 1, a, b; p
                            [0, 1, 5, 7],      # M2: 1, a, b^4; q
                            [0, 1, 3, 8]])     # M3: 1, a, b; r


def _regressors(x, params):
    """Unweighted designs of the six channels as two stacks: forces
    (D, S, L) of shape (3, n, 3) and moments (M1, M2, M3) of shape (3, n, 4),
    from the (n, 6) rows (alpha, beta, V, p, q, r) of the observations.

    Each force channel is dynamic pressure times three basis functions of
    (alpha, beta); each moment channel adds its damping column, the
    matching body rate.  Both stacks are gathered from one array of the
    nine distinct columns."""
    a, b, V = x[:, 0], x[:, 1], x[:, 2]
    q = 0.5 * params.rho * V * V * params.A_ref
    # float_power is libm pow, as Python's float ** is; the SIMD loop of
    # `b ** 4` may differ from it in the last bit.
    cols = np.column_stack([q, q * a, q * (a * a), q * b, q * (b * b), q * np.float_power(b, 4),
                            x[:, 3:]])
    rows = np.arange(x.shape[0])[:, None]
    return cols[rows, _FORCE_COLUMNS[:, None]], cols[rows, _MOMENT_COLUMNS[:, None]]


def _median(a):
    """`np.median(a, axis=0)`, bitwise, from one sort: the middle row of the
    sorted columns, or the mean of the two middle rows; NaN in a column
    that holds one (the sort puts NaN last)."""
    s = np.sort(a, axis=0)
    h = s.shape[0] // 2
    med = s[h] if s.shape[0] % 2 else (s[h - 1] + s[h]) / 2.0
    return np.where(np.isnan(s[-1]), np.nan, med)


def _weights(loads):
    """Relative-error weights of the (n, 6) loads: 1 / |load|, with a
    per-channel floor of 1e-3 of the channel's median magnitude so that
    near-zero loads do not dominate (measurement error is multiplicative)."""
    mag = np.abs(loads)
    floor = np.maximum(1e-3 * _median(mag), 1e-12)
    return 1.0 / np.maximum(mag, floor)


def _lstsq(X, y):
    """Least squares of the stacked (..., n, k) designs X and (..., n)
    targets y by one batched SVD.  Returns the coefficients and the 2-norm
    condition numbers of the designs, as `np.linalg.cond` gives them (inf
    for a zero singular value); a singular design's coefficients are not
    finite."""
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = s[..., 0] / s[..., -1]
        uy = (np.swapaxes(U, -1, -2) @ y[..., None]) / s[..., None]
    return (np.swapaxes(Vt, -1, -2) @ uy)[..., 0], np.where(np.isnan(cond), np.inf, cond)


def _solve_channels(design, loads):
    """Unconstrained weighted least squares of the six channels, as one
    batched solve per stack of `design` (see `_regressors`) against the
    (n, 6) `loads`.  Returns the two weighted design stacks, the (6, n)
    weighted targets, the coefficients of each stack and the list of the
    six condition numbers."""
    W = _weights(loads).T
    Y = loads.T * W
    Xs = (design[0] * W[:3, :, None], design[1] * W[3:, :, None])
    (cf, cond_f), (cm, cond_m) = _lstsq(Xs[0], Y[:3]), _lstsq(Xs[1], Y[3:])
    conds = np.concatenate([cond_f, cond_m]).tolist()
    for ch, cond in zip(CHANNELS, conds):
        if cond > 1e10:
            raise RankDeficient(f"channel {ch}: design condition {cond:.2e} > 1e10")
    return Xs, Y, (cf, cm), conds


def _apply(stacks, coefs):
    """The (6, n) products X @ coef of both stacks, in CHANNELS order."""
    return np.concatenate([(X @ c[..., None])[..., 0] for X, c in zip(stacks, coefs)])


def fit(observations, params, loads=None):
    """Fit the aerodynamic model to steady observations.

    The model is linear in its coefficients and each load channel depends
    only on its own three polynomial coefficients (plus one damping term
    for the moments), so the fit is a weighted linear least-squares solve
    per channel, with each row weighted by the inverse of its load
    magnitude (relative error, floored at 1e-3 of the channel median).
    Without `loads`, each observation's loads are inverted by one function
    bound once per call (`_bind_inversion`).  A non-finite unknown
    (theta, phi, psidot, V, alpha, beta) or load, given or inverted, raises
    ValueError naming the first observation that has one; the damping
    columns are the body rates that `equilibria._unknowns_to_kinematics`
    derives from the unknowns.  The designs are built once, as arrays, and
    the six channels are solved as two stacked problems, forces (3, n, 3)
    and moments (3, n, 4), each with one batched SVD that gives both the
    condition numbers and the solution.
    After a first solve an outlier pass drops observations whose weighted
    residual on any channel exceeds 3x the channel MAD, capped at 20% of
    the data, and both stacks are solved again on the rest.  The damping
    bound k <= 0 is then met exactly: a moment channel whose damping comes
    out positive is solved again without its rate column, with k = 0,
    which is the optimum of the convex problem with that one bound active.
    The dynamic pressure of the designs and the fitted model use the
    vehicle's reference area `params.A_ref`.
    """
    observations = list(observations)
    # Rounded once, for the span checks before and after the outlier pass.
    angles = [(round(o.alpha, 6), round(o.beta, 6)) for o in observations]
    _check_span(angles)
    if loads is None:
        loads = np.array(list(map(_bind_inversion(params), observations)), dtype=float)
    else:
        loads = np.asarray(loads, dtype=float).reshape(len(loads), 6)
        if len(loads) != len(observations):
            raise ValueError("loads must align with observations")

    unknowns = [o.unknowns for o in observations]
    for what, rows in (("aerodynamic angles, airspeed or body rates", unknowns), ("loads", loads)):
        finite = np.isfinite(rows)
        if not finite.all():
            bad = np.flatnonzero(~finite.all(axis=1))[0]
            raise ValueError(f"observation {bad} has non-finite {what}")
    # The rows (alpha, beta, V, p, q, r) of `_regressors`.
    x = np.array([(u[4], u[5], u[3], *_unknowns_to_kinematics(u)[3:6]) for u in unknowns],
                 dtype=float)
    design = _regressors(x, params)
    Xs, Y, coefs, conds = _solve_channels(design, loads)

    # Outlier pass: per-channel 3x MAD on the weighted (relative) residuals,
    # with an absolute floor well below any plausible measurement noise so
    # that machine-precision residuals on clean data never trigger drops.
    r = np.abs(Y - _apply(Xs, coefs)).T
    mad = _median(np.abs(r - _median(r)))
    scores = np.max(r / np.maximum(3.0 * mad, 1e-4), axis=1)
    flagged = np.argsort(-scores)
    n_max = int(MAX_OUTLIER_FRAC * len(observations))
    drop = sorted(int(k) for k in flagged[:n_max] if scores[k] > 1.0)
    if drop:
        kept = [i for i in range(len(observations)) if i not in drop]
        try:
            _check_span([angles[i] for i in kept])
        except InsufficientSpan:
            drop = []
        else:
            design = (design[0][:, kept], design[1][:, kept])
            loads = loads[kept]
            Xs, Y, coefs, conds = _solve_channels(design, loads)

    cf, cm = coefs
    for j in np.flatnonzero(cm[:, 3] > 0.0):
        # Active-set step: the bound k <= 0 binds, so k = 0 and the
        # polynomial coefficients are refitted without the rate column.
        cm[j] = np.append(_lstsq(Xs[1][j, :, :3], Y[3 + j])[0], 0.0)

    x = np.concatenate([cf.ravel(), cm[:, :3].ravel(), cm[:, 3]])
    model = aeromod.AeroModel(*x, a_ref=params.A_ref)
    # The model is linear in its coefficients, so the unweighted designs
    # times the coefficients are its predicted loads.
    per_ch = np.sqrt(np.mean((_apply(design, coefs) - loads.T) ** 2, axis=1))
    return FitResult(
        model=model,
        rms=dict(zip(CHANNELS, per_ch.tolist())),
        condition=dict(zip(CHANNELS, conds)),
        excluded=tuple(drop),
        final_rms=float(np.sqrt(np.mean((Y - _apply(Xs, coefs)) ** 2))),
    )
