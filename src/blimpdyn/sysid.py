"""Aerodynamic identification from steady-flight logs.

Pipeline: load motion-capture trial logs (numpy's C text reader parses
each log body into one array, given the log's path so that it reads the
file in chunks, not line by line; a log holding a non-finite value, and a
manifest row of the wrong length, with a non-numeric number field or
whose moving mass lies off the rail, are rejected), reduce each to an
averaged steady observation, invert the steady-state balance for the
wind-frame aerodynamic loads, mirror-augment the spiral data about the
vehicle's symmetry plane, reject outliers, and fit the polynomial
coefficient model plus rotational damping.  `write_trial` writes a log in
one formatting pass: one "%.9g" template over the Python floats of the
whole table.

The position smoother is a Savitzky-Golay operator built once per window
length: the least-squares projection onto quadratics, whose middle row is
the interior convolution and whose outer rows are the edge fits.  The
extraction smooths and differentiates only the tail of a log that its
windows read.  The load inversion is one function of an observation, on
floats (`math` trig, the bound balance of `dynamics._bind_balance` and
the body-to-wind rotation), which `fit` maps over the observations and
`invert_aero` calls on one.  The model is linear in its coefficients and
each load channel has its own, so the fit is an exact weighted
least-squares solve per channel, done as two stacked solves (the three
forces and the three moments), each one batched SVD that also gives the
condition numbers; the bound damping <= 0 is met by one active-set step.
"""

import csv
import functools
import math
import os
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import aero as aeromod
from .dynamics import _bind_balance
from .frames import GF_TO_N, RAIL_LIMIT, aero_angles_array, rotation_matrices

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
    mirrored: bool = False


@dataclass(frozen=True)
class FitResult:
    model: "aeromod.AeroModel"
    rms: dict                  # per-channel RMS residual after the final fit
    condition: dict            # per-channel design-matrix condition number
    excluded: tuple            # indices of observations dropped as outliers
    final_rms: float           # RMS relative residual over all channels


MANIFEST_COLUMNS = ["trial_id", "file", "kind", "dr_x_cm", "Fl_gf", "Fr_gf"]
TRIAL_COLUMNS = ["t", "x", "y", "z", "phi", "theta", "psi"]
# One row of a written trial log; no "%.9g" text holds a comma or a quote.
_TRIAL_ROW = ",".join(["%.9g"] * len(TRIAL_COLUMNS)) + "\n"


def load_trials(manifest_path):
    """Load a manifest CSV and its referenced trial CSVs, converting to SI.

    Each manifest row must hold the six fields of MANIFEST_COLUMNS, with
    numbers in dr_x_cm, Fl_gf and Fr_gf; blank lines are skipped."""
    base = os.path.dirname(os.path.abspath(manifest_path))
    records = []
    with open(manifest_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != MANIFEST_COLUMNS:
            raise SchemaError(
                f"manifest header must be {','.join(MANIFEST_COLUMNS)}, "
                f"got {header}"
            )
        for i, row in enumerate((r for r in reader if r), start=2):
            if len(row) != len(MANIFEST_COLUMNS):
                raise SchemaError(f"manifest row {i}: {len(row)} fields, "
                                  f"expected {len(MANIFEST_COLUMNS)}")
            row = dict(zip(MANIFEST_COLUMNS, row))
            path = row["file"]
            if not os.path.isabs(path):
                path = os.path.join(base, path)
            if not os.path.exists(path):
                raise SchemaError(f"manifest row {i}: trial file {row['file']} not found")
            kind = row["kind"].strip()
            if kind not in ("straight", "spiral"):
                raise SchemaError(f"manifest row {i}: unknown kind {kind!r}")
            Fl, Fr = (_manifest_number(i, row, f) * GF_TO_N for f in ("Fl_gf", "Fr_gf"))
            if not (0 <= Fl < math.inf and 0 <= Fr < math.inf):
                raise SchemaError(f"manifest row {i}: thrusts must be finite and non-negative")
            dr_x = _manifest_number(i, row, "dr_x_cm") * 1e-2
            if not abs(dr_x) <= RAIL_LIMIT + 1e-12:
                raise SchemaError(f"manifest row {i}: dr_x_cm must be finite and within "
                                  f"the rail limit +-{RAIL_LIMIT * 1e2:g} cm")
            t, pos, euler = _read_trial_csv(path)
            records.append(
                TrialRecord(
                    trial_id=row["trial_id"],
                    kind=kind,
                    dr_x=dr_x,
                    Fl=Fl,
                    Fr=Fr,
                    t=t,
                    pos=pos,
                    euler=euler,
                )
            )
    return records


def _manifest_number(i, row, field):
    """The number in `field` of manifest row `i`, or SchemaError naming both."""
    try:
        return float(row[field])
    except ValueError:
        raise SchemaError(f"manifest row {i}: {field} must be a number, "
                          f"got {row[field]!r}") from None


def _read_trial_csv(path):
    """Time, position and Euler angles of a trial log.  The header line is
    checked with the csv module; numpy reads the body from the path, in
    chunks, and one column-wise max of |data| gives the finiteness and unit
    checks (NaN propagates through it)."""
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
    if header != TRIAL_COLUMNS:
        raise SchemaError(f"{path}: trial header must be {','.join(TRIAL_COLUMNS)}")
    try:
        with warnings.catch_warnings():
            # A header-only file is reported below as malformed data.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
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
    finite numbers, by its line in the file; empty lines are skipped, as
    the reader skips them."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        for row in reader:
            if not row:
                continue
            if len(row) != len(TRIAL_COLUMNS):
                return (f"{path}: line {reader.line_num}: {len(row)} fields, "
                        f"expected {len(TRIAL_COLUMNS)}")
            for v in row:
                try:
                    x = float(v)
                except ValueError:
                    return f"{path}: line {reader.line_num}: non-numeric value {v!r}"
                if not math.isfinite(x):
                    return f"{path}: line {reader.line_num}: non-finite value {v!r}"
    return f"{path}: malformed trial data"


def write_trial(path, t, pos, euler):
    """Write a trial CSV (t,x,y,z,phi,theta,psi in s, m, rad): `t` of shape
    (n,), `pos` and `euler` of shape (n, 3).  Every value is printed with
    "%.9g" from a Python float, the whole body in one formatting pass."""
    t, pos, euler = np.asarray(t), np.asarray(pos), np.asarray(euler)
    if t.ndim != 1 or pos.shape != (t.size, 3) or euler.shape != (t.size, 3):
        raise ValueError(f"write_trial needs t of shape (n,) and pos, euler of shape (n, 3), "
                         f"got {t.shape}, {pos.shape}, {euler.shape}")
    flat = np.column_stack((t, pos, euler)).ravel().tolist()
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRIAL_COLUMNS) + "\n")
        fh.write((_TRIAL_ROW * t.size) % tuple(flat))


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
    """Reduce a trial to one averaged SteadyObservation over its tail.

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
    sth, cth = np.sin(theta_m), np.cos(theta_m)
    sphi, cphi = np.sin(phi_m), np.cos(phi_m)
    w_b = psidot * np.array([-sth, sphi * cth, cphi * cth])
    return SteadyObservation(
        theta=theta_m,
        phi=phi_m,
        psidot=psidot,
        V=V_m,
        alpha=alpha_m,
        beta=beta_m,
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


def _bind_inversion(params):
    """The load inversion of `params`: one function of a steady observation
    that returns its wind-frame loads (D, S, L, M1, M2, M3) as six floats.

    The steady balance says the aero loads cancel the rest of the
    generalized force and torque (the balance bound by
    `dynamics._bind_balance`, computable from the observation and
    parameters); the negated remainder is resolved into the wind frame by
    the transpose of the wind-to-body rotation, with the sign conventions
    D = -x, S = +y, L = -z.  An observation whose airspeed, sideslip or
    attitude lies outside the domain of `AeroAngles` or `EulerAngles`, or
    whose airspeed or sideslip is NaN, raises their ValueError
    (`_check_angles`)."""
    mass_terms, balance = _bind_balance(params, False)[:2]
    cos, sin = math.cos, math.sin

    def invert(obs):
        """Wind-frame loads (D, S, L, M1, M2, M3) of one observation."""
        _check_angles(obs)
        V, a, b, th, ph = obs.V, obs.alpha, obs.beta, obs.theta, obs.phi
        ca, sa, cb, sb = cos(a), sin(a), cos(b), sin(b)
        cth, sth, cphi, sphi = cos(th), sin(th), cos(ph), sin(ph)
        rx, ry, rz = obs.rbar.tolist()
        # The body velocity is V times the first column of the wind-to-body
        # rotation; gcol, the inertial down axis, is independent of yaw.
        cacb, sacb = ca * cb, sa * cb
        fx, fy, fz, tx, ty, tz = balance(
            mass_terms(rx, ry, rz), V * cacb, V * sb, V * sacb, *obs.w_b.tolist(),
            -sth, cth * sphi, cth * cphi, rx, ry, rz, 0.0, 0.0, 0.0, obs.Fl, obs.Fr)
        casb, sasb = ca * sb, sa * sb
        return (
            cacb * fx + sb * fy + sacb * fz,
            casb * fx - cb * fy + sasb * fz,
            ca * fz - sa * fx,
            -(cacb * tx + sb * ty + sacb * tz),
            casb * tx - cb * ty + sasb * tz,
            sa * tx - ca * tz,
        )

    return invert


def _check_angles(obs):
    """Raise the ValueError of `AeroAngles` or `EulerAngles`, with its
    message, if the observation's airspeed, sideslip or attitude is outside
    their domain: a negative airspeed, a sideslip beyond 90 degrees or a
    non-finite pitch or roll.  Unlike `AeroAngles`, it also rejects a NaN
    airspeed or sideslip, whose loads would be NaN."""
    if not obs.V >= 0.0:
        raise ValueError("airspeed must be non-negative")
    if not abs(obs.beta) <= math.pi / 2 + 1e-12:
        raise ValueError("sideslip out of range")
    if not (math.isfinite(obs.phi) and math.isfinite(obs.theta)):
        raise ValueError("non-finite Euler angles")


def invert_aero(obs, params):
    """Wind-frame aerodynamic loads implied by one steady observation (see
    `_bind_inversion`)."""
    return aeromod.AeroLoads(*_bind_inversion(params)(obs))


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
    bound once per call (`_bind_inversion`).  The designs are built once,
    as arrays, and the six channels are solved as two stacked problems,
    forces (3, n, 3) and moments (3, n, 4), each with one batched SVD that
    gives both the condition numbers and the solution.
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

    x = np.array([(o.alpha, o.beta, o.V, *o.w_b.tolist()) for o in observations], dtype=float)
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
