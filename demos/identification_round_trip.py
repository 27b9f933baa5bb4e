"""Identify the aerodynamic model from synthetic steady-flight data and
compare it against the truth model that generated the data.

Builds the full survey grid (11 equal-thrust trims plus 36 differential
spirals), inverts the rigid-body balance for the aerodynamic loads at
each point, and fits the polynomial coefficient model to the solutions
themselves: a solved equilibrium is an identification observation.
Noise-free, the fit recovers every coefficient to within 1e-6 relative
error; with 2% multiplicative load noise the significant coefficients are
still recovered to within about 10%.
"""

import numpy as np

from blimpdyn import fit, load_bundled, solve_spiral
from blimpdyn.aero import PARAM_NAMES
from blimpdyn.cli import TRIM_DRX_CM, TRIM_THRUST, spiral_cells
from blimpdyn.sysid import invert_aero


def build_grid(params, model):
    """The equilibria of the trim and spiral survey grids of the CLI, the
    steady observations of the fit."""
    cells = [(drx_cm, TRIM_THRUST, TRIM_THRUST) for drx_cm in TRIM_DRX_CM]
    cells += [(drx_cm, Fl, Fr) for drx_cm, _, Fl, Fr in spiral_cells()]
    return [solve_spiral(drx_cm * 1e-2, Fl, Fr, params, model) for drx_cm, Fl, Fr in cells]


def report(label, truth, fitted, min_magnitude=0.0):
    t = truth.as_vector()
    rel = np.abs(fitted.as_vector() - t) / np.abs(t)
    keep = np.abs(t) > min_magnitude
    worst = PARAM_NAMES[int(np.flatnonzero(keep)[np.argmax(rel[keep])])]
    print(f"{label}: max relative error {np.max(rel[keep]):.3e} (worst: {worst})")


def main():
    params, model = load_bundled()
    obs = build_grid(params, model)
    print(f"grid: {len(obs)} steady observations")

    clean = fit(obs, params)
    report("noise-free fit", model, clean.model)

    rng = np.random.default_rng(7)
    loads = [invert_aero(o, params).as_array() for o in obs]
    noisy = [ld * (1.0 + 0.02 * rng.standard_normal(6)) for ld in loads]
    noisy_fit = fit(obs, params, loads=noisy)
    # Relative error is only meaningful for coefficients of non-trivial size.
    report("2% load noise", model, noisy_fit.model, min_magnitude=0.05)
    print(f"excluded trials: {noisy_fit.excluded}")


if __name__ == "__main__":
    main()
