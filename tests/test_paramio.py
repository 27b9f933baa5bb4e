import os

import numpy as np
import pytest

from blimpdyn import paramio
from blimpdyn.paramio import (
    bundled_path,
    load_bundled,
    read_aero,
    read_params,
    write_aero_section,
)


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


def test_bundled_paths_exist():
    import os

    assert os.path.exists(bundled_path("vehicle.ini"))
    assert os.path.exists(bundled_path("wingless.ini"))


@pytest.mark.parametrize("wingless, parsed", [(False, ["vehicle.ini"]),
                                              (True, ["vehicle.ini", "wingless.ini"])])
def test_load_bundled_parses_each_file_once(monkeypatch, wingless, parsed):
    """`load_bundled` parses each bundled file once, and returns what
    `read_params` and `read_aero` read from those files."""
    calls = []
    parser = paramio._parser
    monkeypatch.setattr(paramio, "_parser",
                        lambda path: calls.append(os.path.basename(path)) or parser(path))
    params, model = load_bundled(wingless=wingless)
    assert calls == parsed
    ref_params = read_params(bundled_path("vehicle.ini"))
    ref_model = read_aero(bundled_path(parsed[-1]))
    assert repr(params) == repr(ref_params) and model == ref_model
