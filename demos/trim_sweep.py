"""Sweep the longitudinal moving-mass offset at fixed equal thrust and
print the resulting straight-flight trims.

The moving mass is the pitch actuator: sliding it forward pitches the
vehicle down and steepens the flight path, sliding it aft does the
opposite.  The sweep shows the monotone attitude response across the
full rail.
"""

import numpy as np

from blimpdyn import load_bundled, solve_straight
from blimpdyn.cli import TRIM_DRX_CM, TRIM_THRUST


def main():
    params, model = load_bundled()

    print(f"{'dr_x [cm]':>10} {'theta [deg]':>12} {'V [m/s]':>9} "
          f"{'alpha [deg]':>12} {'stalled':>8}")
    for drx_cm in TRIM_DRX_CM:
        sol = solve_straight(drx_cm * 1e-2, TRIM_THRUST, params, model)
        print(f"{drx_cm:>10d} {np.degrees(sol.theta):>12.3f} {sol.V:>9.4f} "
              f"{np.degrees(sol.alpha):>12.3f} {str(sol.stalled):>8}")


if __name__ == "__main__":
    main()
