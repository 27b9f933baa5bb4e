"""Flight-dynamics workbench for a hybrid buoyant-aerodynamic vehicle with
moving-mass actuation: nonlinear 6-DOF simulation, steady trim and spiral
solving, linearized stability analysis, and aerodynamic coefficient
identification from steady-flight logs."""

__version__ = "0.1.0"

from .aero import AeroLoads, AeroModel, aero_loads, lift_drag_analysis
from .dynamics import ControlInput
from .equilibria import (
    SteadySolution,
    StabilityReport,
    eigen_report,
    linearize,
    solve_spiral,
    solve_straight,
    turning_radius,
)
from .frames import (
    AeroAngles,
    EulerAngles,
    GimbalLock,
    State,
    VehicleParams,
    rotation_body_to_inertial,
)
from .paramio import load_bundled, read_aero, read_params
from .simulate import InputSchedule, Segment, Trajectory, glide_metrics, integrate, turning_radius_series
from .sysid import FitResult, TrialRecord, extract_steady, fit, invert_aero, load_trials, mirror_augment
