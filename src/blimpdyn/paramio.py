"""Reading and writing the plain-text parameter files.

Files are `key = value` lines in named sections.  Units are fixed per key
and documented in each file's header comment:

  [mass]      stationary_kg, moving_kg, inertia_* [kg m^2],
              r_*_m, rbar0_*_m, buoyancy_n
  [geometry]  prop_offset_m, helium_volume_m3, air_density_kgm3 [kg/m^3],
              gravity_ms2 [m/s^2], reference_area_m2 (optional),
              reynolds (optional)
  [aero]      the 18 polynomial coefficients, k1..k3 [N m s/rad],
              beta_limit_deg (optional)
"""

import configparser
from importlib import resources

import numpy as np

from .aero import PARAM_NAMES, AeroModel
from .frames import VehicleParams


def _parser(path):
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    with open(path) as fh:
        cp.read_file(fh)
    return cp


def read_params(path):
    """Load a VehicleParams from the [mass]/[geometry] sections of a file."""
    cp = _parser(path)
    try:
        mass = cp["mass"]
        geom = cp["geometry"]
        get = lambda sec, key: float(sec[key])
        inertia = np.array(
            [
                [get(mass, "inertia_xx"), get(mass, "inertia_xy"), get(mass, "inertia_xz")],
                [get(mass, "inertia_xy"), get(mass, "inertia_yy"), get(mass, "inertia_yz")],
                [get(mass, "inertia_xz"), get(mass, "inertia_yz"), get(mass, "inertia_zz")],
            ]
        )
        a_ref = float(geom["reference_area_m2"]) if "reference_area_m2" in geom else None
        return VehicleParams(
            m=get(mass, "stationary_kg"),
            mbar=get(mass, "moving_kg"),
            inertia=inertia,
            r=[get(mass, "r_x_m"), get(mass, "r_y_m"), get(mass, "r_z_m")],
            rbar0=[get(mass, "rbar0_x_m"), get(mass, "rbar0_y_m"), get(mass, "rbar0_z_m")],
            d=get(geom, "prop_offset_m"),
            B=get(mass, "buoyancy_n"),
            rho=get(geom, "air_density_kgm3"),
            g=get(geom, "gravity_ms2"),
            V_He=get(geom, "helium_volume_m3"),
            A_ref=a_ref,
            reynolds=float(geom.get("reynolds", 0.0)),
        )
    except KeyError as exc:
        raise KeyError(f"{path}: missing parameter {exc}") from exc


def read_aero(path, a_ref=None):
    """Load an AeroModel from the [aero] section of a file.

    The reference area comes from the file's [geometry] section; `a_ref`
    is the area of a file without one, such as the [aero]-only file
    `write_aero_section` writes."""
    cp = _parser(path)
    if "geometry" in cp:
        geom = cp["geometry"]
        if "reference_area_m2" in geom:
            a_ref = float(geom["reference_area_m2"])
        else:
            a_ref = float(geom["helium_volume_m3"]) ** (2.0 / 3.0)
    elif a_ref is None:
        raise KeyError(f"{path}: no [geometry] section and no a_ref given")
    try:
        sec = cp["aero"]
        kwargs = {k: float(sec[k]) for k in PARAM_NAMES}
    except KeyError as exc:
        raise KeyError(f"{path}: missing aero coefficient {exc}") from exc
    if "beta_limit_deg" in sec:
        kwargs["beta_limit"] = np.radians(float(sec["beta_limit_deg"]))
    return AeroModel(a_ref=a_ref, **kwargs)


def write_aero_section(path, model, comment=None):
    """Write a fitted aerodynamic model as an [aero] section file."""
    lines = []
    if comment:
        for c in comment.splitlines():
            lines.append(f"# {c}")
    lines.append("[aero]")
    for k in PARAM_NAMES:
        lines.append(f"{k} = {getattr(model, k):.9g}")
    lines.append(f"beta_limit_deg = {np.degrees(model.beta_limit):.9g}")
    lines.append("")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines))


def bundled_path(name):
    """Filesystem path of a bundled data file (vehicle.ini, wingless.ini)."""
    return str(resources.files("blimpdyn.data").joinpath(name))


def load_bundled(wingless=False):
    """The stock (VehicleParams, AeroModel) pair, or the wingless variant."""
    vp = bundled_path("vehicle.ini")
    params = read_params(vp)
    model = read_aero(bundled_path("wingless.ini") if wingless else vp)
    return params, model
