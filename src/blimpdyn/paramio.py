"""Reading and writing the package's files: the plain-text parameter files
and the CSV tables.

Parameter files are `key = value` lines in named sections.  Units are
fixed per key and documented in each file's header comment:

  [mass]      stationary_kg, moving_kg, inertia_* [kg m^2],
              r_*_m, rbar0_*_m, buoyancy_n
  [geometry]  prop_offset_m, helium_volume_m3, air_density_kgm3 [kg/m^3],
              gravity_ms2 [m/s^2], reference_area_m2 (optional),
              reynolds (optional)
  [aero]      the 18 polynomial coefficients, k1..k3 [N m s/rad],
              beta_limit_deg (optional)

The CSV tables (schedules, trial manifests and trial logs) share one row
reader, `_csv_rows`, and one error type, `SchemaError`.

Every file the package writes (the CLI tables and `run-manifest.txt`, the
fitted [aero] sections, trial logs and their manifests) goes through one
writer, `_write_lines`: LF line endings, one newline after each line.
`_write_table` writes a CSV table through it.  Computed numbers are
printed with `FLOAT_FMT`, and `_float_rows` formats the body of an
all-float table in one pass: one template over the Python floats of the
whole table.
"""

import configparser
import csv
from importlib import resources

import numpy as np

from .aero import PARAM_NAMES, AeroModel
from .frames import VehicleParams


# The number format of every file the package writes: nine significant
# digits.  No number prints with a comma or a quote, so no CSV cell of one
# needs quoting.
FLOAT_FMT = "%.9g"


class SchemaError(ValueError):
    """A CSV table (schedule, manifest or trial log) does not match its schema."""


def _csv_rows(path, columns):
    """The rows of the CSV table at `path`, as (where, fields) pairs, where
    is "<path>: line N" with N the row's line in the file.

    The header must be `columns`; blank lines are skipped; every row must
    hold one field per column, and one row at least must follow the
    header.  Otherwise SchemaError names the file and the line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != columns:
            raise SchemaError(f"{path}: line 1: header must be {','.join(columns)}")
        where = None
        for row in reader:
            if not row:
                continue
            where = f"{path}: line {reader.line_num}"
            if len(row) != len(columns):
                raise SchemaError(f"{where}: {len(row)} fields, expected {len(columns)}")
            yield where, row
        if where is None:
            raise SchemaError(f"{path}: no rows after the header")


def _number(where, field, cell):
    """The number in `cell`, or SchemaError naming the row and the field."""
    try:
        return float(cell)
    except ValueError:
        raise SchemaError(f"{where}: {field} must be a number, got {cell!r}") from None


def _parser(path):
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    with open(path) as fh:
        cp.read_file(fh)
    return cp


def read_params(path):
    """Load a VehicleParams from the [mass]/[geometry] sections of a file."""
    return _params_of(_parser(path), path)


def _params_of(cp, path):
    """The VehicleParams of `read_params`, from the file at `path` as
    parsed into `cp`."""
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
    return _aero_of(_parser(path), path, a_ref)


def _aero_of(cp, path, a_ref):
    """The AeroModel of `read_aero`, from the file at `path` as parsed
    into `cp`."""
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


def _write_lines(path, lines):
    """Write `lines` to the file at `path`, one newline after each: the one
    place the package opens a file for writing."""
    with open(path, "w", newline="\n") as fh:
        fh.writelines(line + "\n" for line in lines)


def _write_table(path, columns, rows, footer=()):
    """Write a CSV table: the header of `columns`, the `rows` (each one or
    more formatted lines) and the `footer` lines."""
    _write_lines(path, [",".join(columns), *rows, *footer])


def _float_rows(*columns):
    """The body of an n-row table of `columns` (arrays of n values, or of
    n rows), every value printed with FLOAT_FMT from a Python float: one
    row holding all n lines, from one formatting pass, or no row if n is 0."""
    table = np.column_stack(columns)
    if not len(table):
        return []
    return ["\n".join([",".join([FLOAT_FMT] * table.shape[1])] * len(table))
            % tuple(table.ravel().tolist())]


def write_aero_section(path, model, comment=None):
    """Write a fitted aerodynamic model as an [aero] section file."""
    _write_lines(path, [
        *(f"# {c}" for c in (comment or "").splitlines()),
        "[aero]",
        *(f"{k} = {FLOAT_FMT % getattr(model, k)}" for k in PARAM_NAMES),
        f"beta_limit_deg = {FLOAT_FMT % np.degrees(model.beta_limit)}",
    ])


def bundled_path(name):
    """Filesystem path of a bundled data file (vehicle.ini, wingless.ini)."""
    return str(resources.files("blimpdyn.data").joinpath(name))


def bundled_config(wingless=False):
    """Path of the bundled file that gives both the parameters and the aero
    model: vehicle.ini, or wingless.ini for the wingless variant."""
    return bundled_path("wingless.ini" if wingless else "vehicle.ini")


def _read_config(params_path, aero_path):
    """The VehicleParams of `read_params(params_path)` and the AeroModel of
    `read_aero(aero_path, a_ref=params.A_ref)`, parsing a file that gives
    both only once."""
    if aero_path != params_path:
        params = read_params(params_path)
        return params, read_aero(aero_path, a_ref=params.A_ref)
    cp = _parser(params_path)
    params = _params_of(cp, params_path)
    return params, _aero_of(cp, aero_path, a_ref=params.A_ref)


def load_bundled(wingless=False):
    """The stock (VehicleParams, AeroModel) pair, or the wingless variant."""
    path = bundled_config(wingless)
    return _read_config(path, path)
