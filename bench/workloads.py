"""The four benchmark workloads: fixed operation catalogues, seeded
per-run input generation, and the operations themselves.

Every workload draws the inputs of a run from a fixed catalogue, so the
outputs recorded in `reference.json` cover every operation any seed can
produce.  The workload seed picks which catalogue entries a run uses and
in which order; the package only ever sees the generated inputs.

The operations look package functions up through their modules at call
time (`simulate.integrate`, not a name imported here), so the timing
wrappers that `spans.py` installs see every call.
"""

import contextlib
import hashlib
import io
import itertools
import json
import math
import os

import numpy as np

from blimpdyn import cli, dynamics, equilibria, paramio, simulate, sysid
from blimpdyn.frames import GF_TO_N, GimbalLock

# Typed failures of the package: an operation raising one of these is a
# failed operation, not a crash of the benchmark.
DOMAIN_ERRORS = (
    equilibria.NoConvergence,      # ContinuationBreakdown is a subclass
    GimbalLock,
    sysid.NotSteady,
    sysid.RankDeficient,
    sysid.InsufficientSpan,
)

# Survey envelope of the stock vehicle: the whole moving-mass rail, total
# thrust from 5 to 8 gf, and a signed differential of at most 0.7 of the
# total, the largest ratio of the spiral campaign (4.9 gf of 7 gf).  Three
# thrust levels keep a pass short enough for several passes per run; they
# straddle the fold at 4 and 5 cm.  The lowest level is 5 gf, not the trim
# setting of 4 gf: every cell of this envelope converges, while at 4 and
# 4.5 gf cells with the mass 4 to 6 cm aft and a differential of 0.5 to
# 0.7 of the total raise NoConvergence or ContinuationBreakdown.
RAIL_CM = tuple(range(-6, 7))
TOTAL_GF = (5.0, 6.0, 8.0)
DIFF_RATIO = (-0.7, -0.5, -0.3, 0.0, 0.3, 0.5, 0.7)

# Trajectories fly at low total thrust, where the vehicle descends and has
# a glide ratio; from 4 gf up it climbs at most rail positions.
GLIDE_TOTAL_GF = (1.5, 2.0, 2.5, 3.0)
SIM_T = 3.0       # simulated seconds per trajectory
SIM_DT = 0.005    # the CLI's default step
RADIUS_WINDOW = 1.0

# Steady-helix trial logs of the identification campaigns.
TRIAL_T = 6.0
TRIAL_DT = 0.005
MOCAP_POS_SIGMA = 3e-4             # m
MOCAP_ANGLE_SIGMA = np.radians(0.1)
NOISE_REFITS = 16
NOISE_LEVEL = 0.02

# Constant seed of the catalogues; the reference outputs are keyed to them.
CATALOGUE_SEED = 20230606


def entry_key(entry):
    """Canonical text of a catalogue entry, the key of its reference outputs."""
    return json.dumps(entry, sort_keys=True, separators=(",", ":"))


def _thrusts(total_gf, ratio):
    diff = ratio * total_gf
    return 0.5 * (total_gf + diff), 0.5 * (total_gf - diff)


def _solve_start(cell, params, model):
    fl, fr = _thrusts(cell["total_gf"], cell["ratio"])
    return equilibria.solve_spiral(cell["drx_cm"] * 1e-2, fl * GF_TO_N, fr * GF_TO_N,
                                   params, model)


# ---------------------------------------------------------------- survey

def survey_catalogue():
    return [
        {"drx_cm": d, "total_gf": t, "ratio": r}
        for d, t, r in itertools.product(RAIL_CM, TOTAL_GF, DIFF_RATIO)
    ]


def survey_inputs(seed):
    """One round per thrust level, each with one differential cell per rail
    position and three equal-thrust cells.  The totals of the differential
    cells form a Latin square over the rounds, so every (rail position,
    total) pair appears once per pass and every pass has the same mix of
    solver paths; the seed draws the square, the differentials and the
    equal-thrust cells."""
    rng = np.random.default_rng([seed, 3])
    order = rng.permutation(len(TOTAL_GF))
    nonzero = [r for r in DIFF_RATIO if r != 0.0]
    ops = []
    for j in range(len(TOTAL_GF)):
        rnd = [
            {"drx_cm": d, "total_gf": TOTAL_GF[order[(i + j) % len(TOTAL_GF)]],
             "ratio": float(rng.choice(nonzero))}
            for i, d in enumerate(RAIL_CM)
        ]
        rnd += [
            {"drx_cm": int(rng.choice(RAIL_CM)), "total_gf": float(rng.choice(TOTAL_GF)),
             "ratio": 0.0}
            for _ in range(3)
        ]
        rng.shuffle(rnd)
        ops += rnd
    return ops


def survey_op(entry, ctx):
    params, model = ctx["params"], ctx["model"]
    fl, fr = _thrusts(entry["total_gf"], entry["ratio"])
    Fl, Fr = fl * GF_TO_N, fr * GF_TO_N
    dr_x = entry["drx_cm"] * 1e-2
    if Fl != Fr:
        sol = equilibria.solve_spiral(dr_x, Fl, Fr, params, model)
        return {"unknowns": _unknowns(sol)}
    sol = equilibria.solve_straight(dr_x, Fl, params, model)
    rbar = params.rbar0 + np.array([dr_x, 0.0, 0.0])
    A = equilibria.linearize(sol, dynamics.ControlInput(Fl, Fr), rbar, params, model)
    report = equilibria.eigen_report(A)
    eig = sorted(report.eigenvalues, key=lambda z: (z.real, z.imag))
    return {"unknowns": _unknowns(sol), "eigenvalues": [[z.real, z.imag] for z in eig]}


def _unknowns(sol):
    return [sol.theta, sol.phi, sol.psidot, sol.V, sol.alpha, sol.beta]


# ---------------------------------------------------------------- sim_hold

def sim_hold_catalogue():
    """Hold-only schedules from steady glides: constant plateaus, a
    three-step differential staircase, and a turn reversal."""
    rng = np.random.default_rng([CATALOGUE_SEED, 1])
    out = []
    k = 0
    while len(out) < 16:
        start = {
            "drx_cm": int(rng.integers(-2, 5)),
            "total_gf": float(rng.choice(GLIDE_TOTAL_GF)),
            "ratio": float(rng.choice((-0.5, -0.3, 0.0, 0.3, 0.5))),
        }
        kind = ("plateau", "staircase", "reversal")[k % 3]
        k += 1
        t, r = start["total_gf"], start["ratio"]
        if kind == "plateau":
            plateaus = [(0.0, SIM_T, t, r)]
        elif kind == "staircase":
            step = 0.1 if r <= 0.0 else -0.1
            plateaus = [(i * 1.0, (i + 1) * 1.0, t, round(r + i * step, 2)) for i in range(3)]
        else:
            flip = -r if r != 0.0 else 0.3
            plateaus = [(0.0, 1.5, t, r), (1.5, SIM_T, t, flip)]
        entry = {"start": start, "plateaus": plateaus}
        if entry not in out:
            out.append(entry)
    return out


def sim_hold_inputs(seed):
    cat = sim_hold_catalogue()
    rng = np.random.default_rng([seed, 1])
    return [cat[i] for i in rng.choice(len(cat), size=3, replace=False)]


def sim_hold_prepare(ops, ctx):
    """Start states: the steady equilibrium of each operation's start cell."""
    params, model = ctx["params"], ctx["model"]
    starts = {}
    for entry in ops:
        key = entry_key(entry["start"])
        if key not in starts:
            sol = _solve_start(entry["start"], params, model)
            rbar = params.rbar0 + np.array([entry["start"]["drx_cm"] * 1e-2, 0.0, 0.0])
            starts[key] = sol.state(rbar)
    ctx["starts"] = starts


def sim_hold_op(entry, ctx):
    params, model = ctx["params"], ctx["model"]
    segs = []
    for t0, t1, total, ratio in entry["plateaus"]:
        fl, fr = _thrusts(total, ratio)
        segs.append(simulate.Segment(t0, t1, fl * GF_TO_N, fr * GF_TO_N))
    state0 = ctx["starts"][entry_key(entry["start"])]
    traj = simulate.integrate(state0, simulate.InputSchedule(tuple(segs)), params, model,
                              dt=SIM_DT, T=SIM_T)
    if traj.status != "ok":
        raise TrajectoryFailed(traj.status)
    R = simulate.turning_radius_series(traj, RADIUS_WINDOW)
    _, _, ratio = simulate.glide_metrics(traj)
    return {
        "final_state": traj.states[-1].tolist(),
        "glide_ratio": ratio,
        "median_radius": float(np.median(R)),
    }


class TrajectoryFailed(RuntimeError):
    """An integration ended with a status other than ok."""


# ---------------------------------------------------------------- sim_maneuver

def sim_maneuver_catalogue():
    """Five back-to-back moving-mass `goto` segments with changing thrusts,
    flown from rest; a quarter of the schedules use the legacy model."""
    rng = np.random.default_rng([CATALOGUE_SEED, 2])
    out = []
    for k in range(16):
        segs = []
        target = 0.0
        for i in range(5):
            while True:
                nxt = float(rng.integers(-10, 11)) * 0.5
                if abs(nxt - target) >= 1.5:
                    break
            target = nxt
            total = float(rng.integers(15, 41)) / 10.0
            ratio = float(rng.integers(-6, 7)) / 10.0
            fl, fr = _thrusts(total, ratio)
            segs.append([round(i * 0.6, 1), round((i + 1) * 0.6, 1),
                         round(fl, 2), round(fr, 2), target])
        out.append({"legacy": k % 4 == 3, "segments": segs})
    return out


def sim_maneuver_inputs(seed):
    """Two legacy-model schedules and six others: the legacy model costs
    about a quarter less per step, so every run keeps the catalogue's
    share, and eight schedules keep the seed's choice from moving the
    median operation."""
    cat = sim_maneuver_catalogue()
    rng = np.random.default_rng([seed, 2])
    legacy = [e for e in cat if e["legacy"]]
    full = [e for e in cat if not e["legacy"]]
    ops = [legacy[i] for i in rng.choice(len(legacy), size=2, replace=False)]
    ops += [full[i] for i in rng.choice(len(full), size=6, replace=False)]
    rng.shuffle(ops)
    return ops


def sim_maneuver_prepare(ops, ctx):
    """Write each operation's schedule CSV; the CLI reads it per call."""
    base = ctx["workdir"]
    os.makedirs(os.path.join(base, "out"), exist_ok=True)
    paths = {}
    for entry in ops:
        key = entry_key(entry)
        if key in paths:
            continue
        path = os.path.join(base, "sched-%s.csv" % hashlib.sha256(key.encode()).hexdigest()[:12])
        with open(path, "w", newline="\n") as fh:
            fh.write("t_start,t_end,Fl_gf,Fr_gf,mm_cmd,mm_target_cm\n")
            for t0, t1, fl, fr, target in entry["segments"]:
                fh.write(f"{t0:g},{t1:g},{fl:g},{fr:g},goto,{target:g}\n")
        paths[key] = path
    ctx["schedules"] = paths
    ctx["sim_out"] = os.path.join(base, "out")


def sim_maneuver_op(entry, ctx):
    argv = ["simulate", "--schedule", ctx["schedules"][entry_key(entry)],
            "--out", ctx["sim_out"], "--T", repr(SIM_T), "--dt", repr(SIM_DT)]
    if entry["legacy"]:
        argv.append("--legacy-model")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise CliFailed(f"exit {rc}")
    return ctx["sim_out"]


def sim_maneuver_outputs(out_dir):
    """Final row, glide ratio and median turning radius read back from
    sim.csv; the digest makes traced and untraced runs comparable bit for bit."""
    path = os.path.join(out_dir, "sim.csv")
    with open(path, "rb") as fh:
        raw = fh.read()
    lines = raw.decode().splitlines()
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:] if not ln.startswith("#")])
    xy, z = rows[:, 1:3], rows[:, 3]
    half = rows.shape[0] // 2
    path_len = float(np.sum(np.hypot(*np.diff(xy[half:], axis=0).T)))
    return {
        "final_state": rows[-1, 1:].tolist(),
        "glide_ratio": path_len / float(z[-1] - z[half]),
        "median_radius": float(np.median(rows[:, 17])),
        "digest": hashlib.sha256(raw).hexdigest(),
    }


class CliFailed(RuntimeError):
    """The CLI returned a nonzero exit code."""


# ---------------------------------------------------------------- identify

STRAIGHT_SETTINGS = tuple(("straight", d, 2.0, 2.0) for d in (-5, -3, -1, 1, 3, 5))
SPIRAL_DIFFS = (-3.2, -4.4)


def identify_catalogue():
    """Campaigns of the six equal-thrust trims plus one spiral per rail
    position from -1 to 4 cm, each with its own motion-capture noise."""
    rng = np.random.default_rng([CATALOGUE_SEED, 4])
    out = []
    for k in range(8):
        settings = [list(s) for s in STRAIGHT_SETTINGS]
        for d in (-1, 0, 1, 2, 3, 4):
            diff = float(rng.choice(SPIRAL_DIFFS))
            settings.append(["spiral", d, 0.5 * (7.0 + diff), 0.5 * (7.0 - diff)])
        out.append({"settings": settings, "noise_seed": int(rng.integers(2**31))})
    return out


def identify_inputs(seed):
    cat = identify_catalogue()
    rng = np.random.default_rng([seed, 4])
    return [cat[i] for i in rng.choice(len(cat), size=3, replace=False)]


def identify_prepare(ops, ctx):
    """Write each campaign's manifest and steady-helix trial logs."""
    params, model = ctx["params"], ctx["model"]
    base = ctx["workdir"]
    sols = {}
    manifests = {}
    for entry in ops:
        key = entry_key(entry)
        if key in manifests:
            continue
        cdir = os.path.join(base, hashlib.sha256(key.encode()).hexdigest()[:12])
        os.makedirs(cdir, exist_ok=True)
        rng = np.random.default_rng([entry["noise_seed"], 0])
        rows = []
        for i, (kind, drx_cm, fl_gf, fr_gf) in enumerate(entry["settings"]):
            skey = (drx_cm, fl_gf, fr_gf)
            if skey not in sols:
                sols[skey] = equilibria.solve_spiral(drx_cm * 1e-2, fl_gf * GF_TO_N,
                                                     fr_gf * GF_TO_N, params, model)
            t, pos, euler = _helix_log(sols[skey], rng)
            fname = f"trial_{i:02d}.csv"
            sysid.write_trial(os.path.join(cdir, fname), t, pos, euler)
            rows.append(f"t{i:02d},{fname},{kind},{drx_cm},{fl_gf!r},{fr_gf!r}")
        manifest = os.path.join(cdir, "manifest.csv")
        with open(manifest, "w", newline="\n") as fh:
            fh.write(",".join(sysid.MANIFEST_COLUMNS) + "\n")
            fh.write("\n".join(rows) + "\n")
        manifests[key] = manifest
    ctx["manifests"] = manifests


def _helix_log(sol, rng):
    """Motion-capture log of a steady helix: constant roll, pitch and body
    velocity, yaw advancing at psidot, plus Gaussian sensor noise."""
    n = int(round(TRIAL_T / TRIAL_DT))
    t = np.arange(n + 1) * TRIAL_DT
    cphi, sphi = math.cos(sol.phi), math.sin(sol.phi)
    cth, sth = math.cos(sol.theta), math.sin(sol.theta)
    R0 = np.array([
        [cth, sth * sphi, sth * cphi],
        [0.0, cphi, -sphi],
        [-sth, cth * sphi, cth * cphi],
    ])
    vx, vy, vz = R0 @ sol.v_b
    w = sol.psidot
    psi = w * t
    if abs(w) > 1e-12:
        x = (vx * np.sin(psi) + vy * (np.cos(psi) - 1.0)) / w
        y = (vx * (1.0 - np.cos(psi)) + vy * np.sin(psi)) / w
    else:
        x, y = vx * t, vy * t
    pos = np.column_stack([x, y, vz * t]) + MOCAP_POS_SIGMA * rng.standard_normal((n + 1, 3))
    euler = np.column_stack([np.full(n + 1, sol.phi), np.full(n + 1, sol.theta), psi])
    euler += MOCAP_ANGLE_SIGMA * rng.standard_normal(euler.shape)
    euler[:, 2] = (euler[:, 2] + np.pi) % (2.0 * np.pi) - np.pi
    return t, pos, euler


def identify_op(entry, ctx):
    params = ctx["params"]
    records = sysid.load_trials(ctx["manifests"][entry_key(entry)])
    obs = [sysid.extract_steady(rec, cli.STEADY_WINDOW_S, params) for rec in records]
    obs = sysid.mirror_augment(obs)
    result = sysid.fit(obs, params)
    loads0 = np.array([sysid.invert_aero(o, params).as_array() for o in obs])
    rng = np.random.default_rng([entry["noise_seed"], 1])
    fits = []
    for _ in range(NOISE_REFITS):
        noisy = loads0 * (1.0 + NOISE_LEVEL * rng.standard_normal(loads0.shape))
        fits.append(sysid.fit(obs, params, loads=list(noisy)).model.as_vector())
    return {
        "coeffs": result.model.as_vector().tolist(),
        "excluded": list(result.excluded),
        "noise_median": np.median(np.array(fits), axis=0).tolist(),
    }


# ---------------------------------------------------------------- registry

class Workload:
    """Catalogue, seeded inputs, set-up and operation of one workload."""

    def __init__(self, name, catalogue, inputs, op, prepare=None, outputs=None,
                 sim_seconds=0.0):
        self.name = name
        self.catalogue = catalogue
        self.inputs = inputs
        self.op = op
        self.prepare = prepare
        self.outputs = outputs
        self.sim_seconds = sim_seconds

    def setup(self, ops, workdir):
        """Load the stock vehicle and generate the files and start states
        that the operations `ops` need."""
        params, model = paramio.load_bundled()
        ctx = {"params": params, "model": model, "workdir": workdir}
        if self.prepare is not None:
            self.prepare(ops, ctx)
        return ctx

    def collect(self, raw):
        """Outputs of a finished operation (work done outside its timing)."""
        return raw if self.outputs is None else self.outputs(raw)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sim_hold", sim_hold_catalogue, sim_hold_inputs, sim_hold_op,
                 prepare=sim_hold_prepare, sim_seconds=SIM_T),
        Workload("sim_maneuver", sim_maneuver_catalogue, sim_maneuver_inputs,
                 sim_maneuver_op, prepare=sim_maneuver_prepare,
                 outputs=sim_maneuver_outputs, sim_seconds=SIM_T),
        Workload("survey", survey_catalogue, survey_inputs, survey_op),
        Workload("identify", identify_catalogue, identify_inputs, identify_op,
                 prepare=identify_prepare),
    )
}

FAILURES = DOMAIN_ERRORS + (TrajectoryFailed, CliFailed)
