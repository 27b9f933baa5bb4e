import os

import numpy as np
import pytest

from blimpdyn import paramio, sysid
from blimpdyn.paramio import (
    SchemaError,
    bundled_path,
    load_bundled,
    read_aero,
    read_params,
    write_aero_section,
)
from blimpdyn.simulate import read_schedule
from blimpdyn.sysid import load_trials


def test_bundled_stock_values():
    params, model = load_bundled()
    assert params.m == 0.10481
    assert params.mbar == 0.05408
    assert np.allclose(params.r, [-0.0432, 0.0003, 0.0079])
    assert np.allclose(params.rbar0, [0.0747, 0.0006, 0.2380])
    assert params.d == 0.150
    assert params.B == 1.489992
    assert params.rho == 1.219
    assert params.g == 9.80
    assert params.A_ref == 0.25
    assert model.a_ref == 0.25


def test_bundled_wingless_distinct():
    _, stock = load_bundled()
    params, wingless = load_bundled(wingless=True)
    assert wingless.cl_a < stock.cl_a  # much weaker lift slope
    assert np.isclose(params.net_mass * 1e3, 6.85, atol=0.01)  # same mass budget


def test_missing_key_reports_file(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[mass]\nstationary_kg = 0.1\n")
    with pytest.raises(KeyError, match="bad.ini"):
        read_params(str(bad))


def test_read_aero_requires_reference_area(tmp_path):
    section = tmp_path / "aero_only.ini"
    lines = ["[aero]"]
    _, model = load_bundled()
    from blimpdyn.aero import PARAM_NAMES

    for name in PARAM_NAMES:
        lines.append(f"{name} = {getattr(model, name)}")
    section.write_text("\n".join(lines) + "\n")
    with pytest.raises(KeyError):
        read_aero(str(section))
    m = read_aero(str(section), a_ref=0.25)
    assert np.allclose(m.as_vector(), model.as_vector())


def test_read_aero_area_from_geometry_over_fallback():
    """`a_ref` is the area of a file without [geometry] only; a file with
    one keeps its own."""
    _, model = load_bundled()
    assert read_aero(bundled_path("vehicle.ini"), a_ref=123.0).a_ref == model.a_ref


def test_write_aero_section_round_trip(tmp_path):
    _, model = load_bundled()
    out = tmp_path / "fit.ini"
    write_aero_section(str(out), model, comment="round-trip check")
    m = read_aero(str(out), a_ref=model.a_ref)
    assert np.allclose(m.as_vector(), model.as_vector(), rtol=1e-8)
    assert np.isclose(m.beta_limit, model.beta_limit)
    text = out.read_text()
    assert text.startswith("# round-trip check")


_BUNDLED_AERO_SECTION = (
    "[aero]\n"
    "cd0 = 0.243\ncd_a = 4.419\ncd_b = 7.508\n"
    "cs0 = 0.001\ncs_a = -0.074\ncs_b = -2.113\n"
    "cl0 = 0.159\ncl_a = 2.938\ncl_b = 4.554\n"
    "cm1_0 = 0.001\ncm1_a = -0.03\ncm1_b = -0.526\n"
    "cm2_0 = 0.057\ncm2_a = 0.093\ncm2_b = 5.236\n"
    "cm3_0 = 0.001\ncm3_a = -0.001\ncm3_b = -0.093\n"
    "k1 = -0.05\nk2 = -0.026\nk3 = -0.014\n"
    "beta_limit_deg = 30\n"
)


@pytest.mark.parametrize("comment, head", [
    (None, ""),
    ("fitted from manifest.csv\n(18 observations, 3 excluded)",
     "# fitted from manifest.csv\n# (18 observations, 3 excluded)\n"),
], ids=["no-comment", "two-line-comment"])
def test_write_aero_section_bytes(tmp_path, comment, head):
    """The [aero] section of the bundled model, byte for byte: a `# ` line
    per comment line, then one `key = value` line per coefficient in
    PARAM_NAMES order and beta_limit_deg, each value in `%.9g`, LF endings."""
    _, model = load_bundled()
    out = tmp_path / "fit.ini"
    write_aero_section(str(out), model, comment=comment)
    assert out.read_bytes() == (head + _BUNDLED_AERO_SECTION).encode()


def test_bundled_paths_exist():
    import os

    assert os.path.exists(bundled_path("vehicle.ini"))
    assert os.path.exists(bundled_path("wingless.ini"))


@pytest.mark.parametrize("wingless, parsed", [(False, ["vehicle.ini"]),
                                              (True, ["wingless.ini"])])
def test_load_bundled_parses_each_file_once(monkeypatch, wingless, parsed):
    """`load_bundled` parses its bundled file once, and returns what
    `read_params` and `read_aero` read from that file."""
    calls = []
    parser = paramio._parser
    monkeypatch.setattr(paramio, "_parser",
                        lambda path: calls.append(os.path.basename(path)) or parser(path))
    params, model = load_bundled(wingless=wingless)
    assert calls == parsed
    ref_params = read_params(bundled_path(parsed[0]))
    ref_model = read_aero(bundled_path(parsed[0]))
    assert repr(params) == repr(ref_params) and model == ref_model


# Header and loader of each CSV table; a trial log is loaded through a manifest.
TABLES = {
    "schedule": ("t_start,t_end,Fl_gf,Fr_gf,mm_cmd,mm_target_cm", read_schedule),
    "manifest": ("trial_id,file,kind,dr_x_cm,Fl_gf,Fr_gf", load_trials),
    "trial": ("t,x,y,z,phi,theta,psi", load_trials),
}


@pytest.mark.parametrize("table", TABLES)
def test_empty_tables_name_the_file(tmp_path, table):
    """A table with a header and no rows, blank lines aside, raises
    SchemaError naming the file, for all three formats."""
    header, load = TABLES[table]
    path = tmp_path / f"{table}.csv"
    manifest = tmp_path / "manifest.csv"
    if table == "trial":
        manifest.write_text(TABLES["manifest"][0] + "\nt0,trial.csv,straight,0,2,2\n")
    for text in (header + "\n", header + "\n\n\n"):
        path.write_text(text)
        with pytest.raises(SchemaError) as exc:
            load(str(path if table == "schedule" else manifest))
        assert str(exc.value) == f"{path}: no rows after the header"


@pytest.mark.parametrize("table", TABLES)
def test_tables_name_the_file_and_line(tmp_path, table):
    """Schedules, trial manifests and trial logs share one reader and one
    error type: a wrong header raises SchemaError naming the file and line
    1, and a short row after a blank line names its line in the file."""
    header, load = TABLES[table]
    path = tmp_path / f"{table}.csv"
    manifest = tmp_path / "manifest.csv"
    if table == "trial":
        manifest.write_text(TABLES["manifest"][0] + "\nt0,trial.csv,straight,0,2,2\n")
    for text, message in ((header.upper() + "\n", f"line 1: header must be {header}"),
                          (header + "\n\n1,2\n",
                           f"line 3: 2 fields, expected {header.count(',') + 1}")):
        path.write_text(text)
        with pytest.raises(SchemaError) as exc:
            load(str(path if table == "schedule" else manifest))
        assert str(exc.value) == f"{path}: {message}"
    assert sysid.SchemaError is SchemaError
