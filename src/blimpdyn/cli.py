"""Command-line entry point.

Verbs: params-check, trim, spiral, simulate, identify, linearize, polar,
validate.  Every verb that writes artifacts also writes `run-manifest.txt`
recording the full configuration, tool version, and SHA-256 checksums of
the input files, so a run is reproducible from its manifest alone.

Exit codes: 0 success, 1 domain error (non-convergence, unsteady data,
degenerate model), 2 usage or I/O error.
"""

import argparse
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
from .paramio import _read_config, bundled_path, write_aero_section
from .simulate import integrate, read_schedule
from .sysid import (
    CHANNELS,
    InsufficientSpan,
    NotSteady,
    RankDeficient,
    SchemaError,
    UnitError,
    average_by_setting,
    extract_steady,
    fit,
    load_trials,
    mirror_augment,
)

FLOAT_FMT = "%.9g"

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
_USAGE_ERRORS = (OSError, KeyError, ValueError, SchemaError, UnitError)


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


def _load_config(args):
    if args.wingless:
        params_path = args.params or bundled_path("wingless.ini")
        aero_path = args.aero or bundled_path("wingless.ini")
    else:
        params_path = args.params or bundled_path("vehicle.ini")
        aero_path = args.aero or params_path
    params, model = _read_config(params_path, aero_path)
    return params, model, params_path, aero_path


def _write_manifest(args, inputs):
    os.makedirs(args.out, exist_ok=True)
    lines = [f"verb = {args.verb}", f"version = {__version__}"]
    for key in ("params", "aero", "schedule", "manifest", "dt", "T"):
        val = getattr(args, key, None)
        if val is not None:
            lines.append(f"{key} = {val}")
    for key in ("wingless", "legacy_model", "average_settings"):
        if getattr(args, key, False):
            lines.append(f"{key.replace('_', '-')} = true")
    for path in dict.fromkeys(inputs):      # each file once, in first-seen order
        lines.append(f"sha256 {os.path.basename(path)} = {_sha256(path)}")
    with open(os.path.join(args.out, "run-manifest.txt"), "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_csv(path, header, rows, footer=()):
    """Write the header cells, the `rows` (each one or more formatted CSV
    lines, without the last newline) and the footer lines."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(row + "\n")
        for line in footer:
            fh.write(line + "\n")


def cmd_params_check(args):
    params, model, params_path, aero_path = _load_config(args)
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


def cmd_polar(args):
    params, model, params_path, aero_path = _load_config(args)
    _write_manifest(args, [params_path, aero_path])
    table = lift_drag_analysis(model, POLAR_ALPHA)
    rows = [
        ",".join([_fmt(np.degrees(a)), _fmt(cl), _fmt(cd), _fmt(ld)])
        for a, cl, cd, ld in zip(table.alpha, table.cl, table.cd, table.ld)
    ]
    footer = [f"# max_LD={_fmt(table.max_ld)} at alpha_deg={_fmt(np.degrees(table.alpha_star))}"]
    _write_csv(os.path.join(args.out, "polar.csv"),
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


def cmd_trim(args):
    params, model, params_path, aero_path = _load_config(args)
    _write_manifest(args, [params_path, aero_path])
    F = TRIM_THRUST
    rows = []
    failures = 0
    for drx in TRIM_DRX_CM:
        try:
            sol = solve_straight(drx * 1e-2, F, params, model)
            rows.append(_steady_row(drx, F, F, sol))
        except NoConvergence:
            rows.append(_fail_row(drx, F, F))
            failures += 1
    _write_csv(os.path.join(args.out, "trim.csv"), _STEADY_HEADER, rows)
    print(f"trim sweep: {len(rows) - failures}/{len(rows)} converged")
    return 1 if failures else 0


def cmd_spiral(args):
    params, model, params_path, aero_path = _load_config(args)
    _write_manifest(args, [params_path, aero_path])
    rows = []
    failures = 0
    for drx, _, Fl, Fr in spiral_cells():
        try:
            sol = solve_spiral(drx * 1e-2, Fl, Fr, params, model)
            rows.append(_steady_row(drx, Fl, Fr, sol))
        except NoConvergence:
            rows.append(_fail_row(drx, Fl, Fr))
            failures += 1
    _write_csv(os.path.join(args.out, "spiral.csv"), _STEADY_HEADER, rows)
    print(f"spiral sweep: {len(rows) - failures}/{len(rows)} converged")
    return 1 if failures else 0


def cmd_simulate(args):
    if not args.schedule:
        raise SystemExit2("simulate requires --schedule")
    params, model, params_path, aero_path = _load_config(args)
    sched = read_schedule(args.schedule)
    _write_manifest(args, [params_path, aero_path, args.schedule])
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
    # The body in one formatting pass over Python floats: per sample t,
    # the first 13 states (through rbar_x) and the analysis columns.
    flat = np.column_stack((traj.t, traj.states[:, :13], traj.alpha, traj.beta, traj.V,
                            traj.R, traj.Vz)).ravel().tolist()
    body = "\n".join([",".join([FLOAT_FMT] * len(header))] * len(traj)) % tuple(flat)
    footer = [f"# status={traj.status}"]
    _write_csv(os.path.join(args.out, "sim.csv"), header, [body], footer)
    print(f"simulated {traj.t[-1]:.2f} s, status {traj.status}")
    return 0 if traj.status == "ok" else 1


def cmd_identify(args):
    if not args.manifest:
        raise SystemExit2("identify requires --manifest")
    params, model, params_path, aero_path = _load_config(args)
    _write_manifest(args, [params_path, aero_path, args.manifest])
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
    rows = []
    m = result.model
    groups = {
        "D": (m.cd0, m.cd_a, m.cd_b, ""),
        "S": (m.cs0, m.cs_a, m.cs_b, ""),
        "L": (m.cl0, m.cl_a, m.cl_b, ""),
        "M1": (m.cm1_0, m.cm1_a, m.cm1_b, m.k1),
        "M2": (m.cm2_0, m.cm2_a, m.cm2_b, m.k2),
        "M3": (m.cm3_0, m.cm3_a, m.cm3_b, m.k3),
    }
    for ch in CHANNELS:
        c0, ca, cb, K = groups[ch]
        rows.append(",".join([
            ch, _fmt(c0), _fmt(ca), _fmt(cb),
            _fmt(K) if K != "" else "",
            _fmt(result.rms[ch]), _fmt(result.condition[ch]),
        ]))
    _write_csv(os.path.join(args.out, "identify.csv"),
               ["channel", "c0", "c_alpha", "c_beta", "K", "rms", "condition"], rows)
    print(f"fitted {len(observations)} observations, "
          f"{len(result.excluded)} excluded, final rms {result.final_rms:.3e}")
    return 0


def cmd_linearize(args):
    params, model, params_path, aero_path = _load_config(args)
    _write_manifest(args, [params_path, aero_path])
    F = TRIM_THRUST
    sol = solve_straight(0.0, F, params, model)
    A = linearize(sol, ControlInput(F, F), params.rbar0, params, model)
    report = eigen_report(A)
    rows = [
        ",".join([str(i), _fmt(ev.real), _fmt(ev.imag)])
        for i, ev in enumerate(sorted(report.eigenvalues, key=lambda z: z.real))
    ]
    slowest = report.slowest_mode.real
    footer = [f"# hurwitz={'true' if report.hurwitz else 'false'}",
              f"# slowest_real={_fmt(slowest)}"]
    _write_csv(os.path.join(args.out, "eigenvalues.csv"),
               ["index", "real", "imag"], rows, footer)
    print(f"hurwitz={report.hurwitz} slowest mode {slowest:.4f} 1/s")
    return 0


def cmd_validate(args):
    from . import validation

    results = validation.run_all(out_dir=args.out)
    for res in results:
        print(res.line())
    return 0 if all(r.passed for r in results) else 1


class SystemExit2(Exception):
    """Usage error carrying an explanatory message (exit code 2)."""


_VERBS = {
    "params-check": cmd_params_check,
    "trim": cmd_trim,
    "spiral": cmd_spiral,
    "simulate": cmd_simulate,
    "identify": cmd_identify,
    "linearize": cmd_linearize,
    "polar": cmd_polar,
    "validate": cmd_validate,
}


def build_parser():
    p = argparse.ArgumentParser(
        prog="blimpdyn",
        description="Flight-dynamics workbench for a buoyant glider with "
                    "moving-mass actuation",
    )
    p.add_argument("verb", choices=sorted(_VERBS))
    p.add_argument("--params", help="vehicle parameter file (default: bundled)")
    p.add_argument("--aero", help="aerodynamic coefficient file (default: from params file)")
    p.add_argument("--out", default=".", help="output directory (default: current)")
    p.add_argument("--dt", type=float, default=0.005, help="integration step [s]")
    p.add_argument("--T", type=float, default=10.0, help="simulation horizon [s]")
    p.add_argument("--schedule", help="input schedule CSV (simulate)")
    p.add_argument("--manifest", help="trial manifest CSV (identify)")
    p.add_argument("--legacy-model", action="store_true",
                   help="drop CG-offset coupling terms (comparison model)")
    p.add_argument("--wingless", action="store_true",
                   help="use the bundled wingless comparison vehicle")
    p.add_argument("--average-settings", action="store_true",
                   help="average repeated trials per setting before fitting")
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _VERBS[args.verb](args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
