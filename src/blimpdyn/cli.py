"""Command-line entry point.

The verb table `_VERBS` gives each verb (params-check, polar, trim, spiral,
linearize, simulate, identify, validate) its function and the options it
reads; `build_parser` gives each verb a subparser that accepts those and
no others, so an option the verb would ignore is a usage error.  `main`
checks for the verb's input file (`--schedule`, `--manifest`), loads the
configuration and runs the verb.  For every verb that takes `--out` and
returns (exit code 0 or 1), it then writes `run-manifest.txt`: the tool
version, the options of the verb's table row (their defaults included) and
SHA-256 checksums of the input files, so a run is reproducible from its
manifest alone.  A verb that raises leaves no manifest.  Every file is
written by `paramio`'s writer, its numbers in `paramio.FLOAT_FMT`.

Exit codes: 0 success, 1 domain error (non-convergence, unsteady data,
degenerate model), 2 usage or I/O error.
"""

import argparse
import functools
import hashlib
import os
import sys

import numpy as np

from . import __version__
from .aero import DegenerateModel, lift_drag_analysis
from .dynamics import ControlInput
from .equilibria import (
    NoConvergence,
    eigen_report,
    linearize,
    solve_spiral,
    solve_straight,
    turning_radius,
)
from .frames import GF_TO_N, EulerAngles, State
from .paramio import (
    FLOAT_FMT,
    _float_rows,
    _read_config,
    _write_lines,
    _write_table,
    bundled_config,
    write_aero_section,
)
from .simulate import integrate, read_schedule
from .sysid import (
    CHANNELS,
    InsufficientSpan,
    NotSteady,
    RankDeficient,
    average_by_setting,
    extract_steady,
    fit,
    load_trials,
    mirror_augment,
)

# Survey grids from the steady-flight experiment campaign; the acceptance
# criteria in `validation` use the same grids.  Trim: equal thrust on each
# propeller along the rail.  Spiral: a fixed total thrust split by each
# differential (left minus right) at each rail position.  Polar: 0-16 deg of
# angle of attack at 0.1 deg, in radians.
TRIM_DRX_CM = tuple(range(-5, 6))
TRIM_THRUST_GF = 2.0
TRIM_THRUST = TRIM_THRUST_GF * GF_TO_N
SPIRAL_DRX_CM = (-1, 0, 1, 2, 3, 4)
SPIRAL_DIFF_GF = (-3.2, -3.7, -4.2, -4.3, -4.4, -4.9)
SPIRAL_TOTAL_GF = 7.0
POLAR_ALPHA = np.radians(np.arange(0.0, 16.0 + 1e-9, 0.1))
POLAR_ALPHA.setflags(write=False)

STEADY_WINDOW_S = 4.0

_DOMAIN_ERRORS = (
    NoConvergence,
    DegenerateModel,
    NotSteady,
    RankDeficient,
    InsufficientSpan,
)
_USAGE_ERRORS = (OSError, KeyError, ValueError)


def spiral_thrusts_gf(diff_gf):
    """Left and right thrust [gf] of the spiral cell with differential
    `diff_gf`: SPIRAL_TOTAL_GF split so that left minus right is diff_gf."""
    return 0.5 * (SPIRAL_TOTAL_GF + diff_gf), 0.5 * (SPIRAL_TOTAL_GF - diff_gf)


def spiral_cells():
    """The spiral survey grid in CSV row order: (dr_x_cm, diff_gf, Fl, Fr)
    per cell, the thrusts in N."""
    for drx in SPIRAL_DRX_CM:
        for diff in SPIRAL_DIFF_GF:
            fl, fr = spiral_thrusts_gf(diff)
            yield drx, diff, fl * GF_TO_N, fr * GF_TO_N


def _fmt(x):
    return FLOAT_FMT % x


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _config_paths(args):
    """The parameter file, `--params` or the bundled file `--wingless`
    picks, and the aero file, `--aero` or the parameter file."""
    params_path = args.params or bundled_config(args.wingless)
    return params_path, args.aero or params_path


def _load_config(args):
    params_path, aero_path = _config_paths(args)
    return (*_read_config(params_path, aero_path), params_path, aero_path)


def _write_manifest(args, options, inputs):
    """Write `run-manifest.txt` under `--out`: the verb, the version, each
    of `options` that is set, in `_OPTIONS` order, and the checksum of
    each of `inputs` once, in first-seen order."""
    lines = [f"verb = {args.verb}", f"version = {__version__}"]
    for dest in _OPTIONS:
        val = getattr(args, dest) if dest in options and dest != "out" else None
        if val is not None and val is not False:
            lines.append(f"{dest.replace('_', '-')} = {'true' if val is True else val}")
    for path in dict.fromkeys(inputs):
        lines.append(f"sha256 {os.path.basename(path)} = {_sha256(path)}")
    _write_lines(os.path.join(args.out, "run-manifest.txt"), lines)


def cmd_params_check(args, params, model):
    params_path, aero_path = _config_paths(args)
    out = sys.stdout
    out.write(f"parameter file: {params_path}\n")
    out.write(f"aero file:      {aero_path}\n")
    out.write(f"total mass      = {params.total_mass * 1e3:.3f} g\n")
    out.write(f"buoyancy        = {params.B:.6f} N ({params.B / GF_TO_N:.2f} gf)\n")
    out.write(f"net mass        = {params.net_mass * 1e3:.3f} g\n")
    out.write(f"net weight      = {params.net_weight:.6f} N\n")
    out.write(f"reference area  = {params.A_ref:.6f} m^2\n")
    out.write(f"moving-mass home= ({params.rbar0[0]:.4f}, {params.rbar0[1]:.4f}, "
              f"{params.rbar0[2]:.4f}) m\n")
    return 0


def cmd_polar(args, params, model):
    table = lift_drag_analysis(model, POLAR_ALPHA)
    rows = _float_rows(np.degrees(table.alpha), table.cl, table.cd, table.ld)
    footer = [f"# max_LD={_fmt(table.max_ld)} at alpha_deg={_fmt(np.degrees(table.alpha_star))}"]
    _write_table(os.path.join(args.out, "polar.csv"),
                 ["alpha_deg", "C_L", "C_D", "LD"], rows, footer)
    print(f"max L/D = {table.max_ld:.4f} at alpha = {np.degrees(table.alpha_star):.3f} deg")
    return 0


_STEADY_HEADER = [
    "dr_x_cm", "Fl_gf", "Fr_gf", "theta_deg", "phi_deg", "psidot_dps",
    "V_mps", "alpha_deg", "beta_deg", "R_m", "residual", "status",
]


def _steady_row(dr_x_cm, Fl, Fr, sol):
    return ",".join([
        _fmt(dr_x_cm), _fmt(Fl / GF_TO_N), _fmt(Fr / GF_TO_N),
        _fmt(np.degrees(sol.theta)), _fmt(np.degrees(sol.phi)),
        _fmt(np.degrees(sol.psidot)), _fmt(sol.V),
        _fmt(np.degrees(sol.alpha)), _fmt(np.degrees(sol.beta)),
        _fmt(turning_radius(sol)), _fmt(sol.residual_norm), "ok",
    ])


def _fail_row(dr_x_cm, Fl, Fr):
    return ",".join([_fmt(dr_x_cm), _fmt(Fl / GF_TO_N), _fmt(Fr / GF_TO_N)] + [""] * 8 + ["fail"])


def _sweep(args, params, model, name, cells, solve):
    """Solve each (dr_x_cm, Fl, Fr) cell of `cells` with `solve`, which has
    the `solve_spiral` signature, and write `<name>.csv`, a fail row for
    each cell that does not converge; exit code 1 if any did not."""
    rows = []
    failures = 0
    for drx, Fl, Fr in cells:
        try:
            rows.append(_steady_row(drx, Fl, Fr, solve(drx * 1e-2, Fl, Fr, params, model)))
        except NoConvergence:
            rows.append(_fail_row(drx, Fl, Fr))
            failures += 1
    _write_table(os.path.join(args.out, f"{name}.csv"), _STEADY_HEADER, rows)
    print(f"{name} sweep: {len(rows) - failures}/{len(rows)} converged")
    return 1 if failures else 0


def cmd_trim(args, params, model):
    F = TRIM_THRUST
    return _sweep(args, params, model, "trim", ((drx, F, F) for drx in TRIM_DRX_CM),
                  lambda dr_x, Fl, Fr, params, model: solve_straight(dr_x, Fl, params, model))


def cmd_spiral(args, params, model):
    return _sweep(args, params, model, "spiral",
                  ((drx, Fl, Fr) for drx, _, Fl, Fr in spiral_cells()), solve_spiral)


def cmd_simulate(args, params, model):
    sched = read_schedule(args.schedule)
    state0 = State(
        p=np.zeros(3), e=EulerAngles(0.0, 0.0, 0.0),
        v=np.zeros(3), w=np.zeros(3),
        rbar=params.rbar0, rbardot=np.zeros(3),
    )
    traj = integrate(state0, sched, params, model, dt=args.dt, T=args.T,
                     legacy=args.legacy_model)
    header = ["t", "x", "y", "z", "phi", "theta", "psi",
              "u", "v", "w", "p", "q", "r", "rbar_x",
              "alpha", "beta", "V", "R", "Vz"]
    # Per sample t, the first 13 states (through rbar_x) and the analysis columns.
    rows = _float_rows(traj.t, traj.states[:, :13], traj.alpha, traj.beta, traj.V,
                       traj.R, traj.Vz)
    _write_table(os.path.join(args.out, "sim.csv"), header, rows, [f"# status={traj.status}"])
    print(f"simulated {traj.t[-1]:.2f} s, status {traj.status}")
    return 0 if traj.status == "ok" else 1


def cmd_identify(args, params, model):
    records = load_trials(args.manifest)
    observations = [extract_steady(rec, STEADY_WINDOW_S, params) for rec in records]
    if args.average_settings:
        observations = average_by_setting(observations)
    observations = mirror_augment(observations)
    result = fit(observations, params)
    write_aero_section(
        os.path.join(args.out, "aero_fit.ini"), result.model,
        comment=f"fitted from {os.path.basename(args.manifest)} "
                f"({len(observations)} observations, {len(result.excluded)} excluded)",
    )
    # The model's parameters in PARAM_NAMES order: three polynomial
    # coefficients per channel, in CHANNELS order, then the damping of M1..M3.
    x = result.model.as_vector().tolist()
    rows = [",".join([ch, *map(_fmt, x[3 * i:3 * i + 3]), _fmt(x[15 + i]) if i >= 3 else "",
                      _fmt(result.rms[ch]), _fmt(result.condition[ch])])
            for i, ch in enumerate(CHANNELS)]
    _write_table(os.path.join(args.out, "identify.csv"),
                 ["channel", "c0", "c_alpha", "c_beta", "K", "rms", "condition"], rows)
    print(f"fitted {len(observations)} observations, "
          f"{len(result.excluded)} excluded, final rms {result.final_rms:.3e}")
    return 0


def cmd_linearize(args, params, model):
    F = TRIM_THRUST
    sol = solve_straight(0.0, F, params, model)
    A = linearize(sol, ControlInput(F, F), sol.rbar, params, model)
    report = eigen_report(A)
    evs = np.array(sorted(report.eigenvalues, key=lambda z: z.real))
    rows = _float_rows(np.arange(len(evs)), evs.real, evs.imag)
    slowest = report.slowest_mode.real
    footer = [f"# hurwitz={'true' if report.hurwitz else 'false'}",
              f"# slowest_real={_fmt(slowest)}"]
    _write_table(os.path.join(args.out, "eigenvalues.csv"),
                 ["index", "real", "imag"], rows, footer)
    print(f"hurwitz={report.hurwitz} slowest mode {slowest:.4f} 1/s")
    return 0


def cmd_validate(args, params, model):
    """Run the acceptance suite, which is defined on the bundled vehicle
    (`params` and `model`), and write `validate.csv`."""
    from . import validation

    results = validation.run_all()
    rows = [f"{r.number},{r.name},{'PASS' if r.passed else 'FAIL'},\"{r.detail}\""
            for r in results]
    _write_table(os.path.join(args.out, "validate.csv"),
                 ["criterion", "name", "result", "detail"], rows)
    for res in results:
        print(res.line())
    return 0 if all(r.passed for r in results) else 1


# Every option a verb may take, dest -> add_argument keywords, in the order
# run-manifest.txt records them; the flag is the dest with dashes.
_OPTIONS = {
    "out": dict(default=".", help="output directory (default: current)"),
    "params": dict(help="vehicle parameter file, and aero file without --aero"),
    "aero": dict(help="aerodynamic coefficient file (default: the parameter file)"),
    "schedule": dict(help="input schedule CSV (required)"),
    "manifest": dict(help="trial manifest CSV (required)"),
    "dt": dict(type=float, default=0.005, help="integration step [s]"),
    "T": dict(type=float, default=10.0, help="simulation horizon [s]"),
    "wingless": dict(action="store_true", help="use the bundled wingless vehicle"),
    "legacy_model": dict(action="store_true", help="drop the CG-offset coupling terms"),
    "average_settings": dict(action="store_true", help="average repeated trials per setting"),
}
_CONFIG = ("params", "aero", "wingless")
# The input file options: a verb that takes one requires it.
_INPUTS = ("schedule", "manifest")

# The verb table: each verb's function and the options it reads.  A verb
# that takes `--out` writes its artifacts and run-manifest.txt there.
_VERBS = {
    "params-check": (cmd_params_check, _CONFIG),
    "polar": (cmd_polar, ("out", *_CONFIG)),
    "trim": (cmd_trim, ("out", *_CONFIG)),
    "spiral": (cmd_spiral, ("out", *_CONFIG)),
    "linearize": (cmd_linearize, ("out", *_CONFIG)),
    "simulate": (cmd_simulate, ("out", *_CONFIG, "schedule", "dt", "T", "legacy_model")),
    "identify": (cmd_identify, ("out", *_CONFIG, "manifest", "average_settings")),
    "validate": (cmd_validate, ("out",)),
}


@functools.cache
def build_parser():
    """One subparser per verb of `_VERBS`, taking that verb's options only;
    built once per process."""
    p = argparse.ArgumentParser(
        prog="blimpdyn",
        description="Flight-dynamics workbench for a buoyant glider with "
                    "moving-mass actuation",
    )
    # validate takes no configuration option and loads the bundled vehicle.
    p.set_defaults(params=None, aero=None, wingless=False)
    verbs = p.add_subparsers(dest="verb", required=True)
    for verb, (_, options) in _VERBS.items():
        sub = verbs.add_parser(verb)
        bundled_or_file = sub.add_mutually_exclusive_group()
        for dest in _OPTIONS:
            if dest in options:
                group = bundled_or_file if dest in ("params", "wingless") else sub
                group.add_argument("--" + dest.replace("_", "-"), **_OPTIONS[dest])
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    run, options = _VERBS[args.verb]
    inputs = {key: getattr(args, key) for key in _INPUTS if key in options}
    try:
        for key, path in inputs.items():
            if path is None:
                raise ValueError(f"{args.verb} requires --{key}")
        params, model, params_path, aero_path = _load_config(args)
        if "out" in options:
            os.makedirs(args.out, exist_ok=True)
        code = run(args, params, model)
        if "out" in options:
            _write_manifest(args, options, [params_path, aero_path, *inputs.values()])
        return code
    except (*_DOMAIN_ERRORS, *_USAGE_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, _DOMAIN_ERRORS) else 2


if __name__ == "__main__":
    sys.exit(main())
