"""The CLI artifacts of the current code against frozen goldens.

The goldens under `tests/golden/` were recorded with `tests/golden/record.py`.
Every cell that parses as a number is compared at the artifact's tolerance;
every other cell (headers, `ok`/`fail`, the empty cells of a failure row,
channel names, footer keys) must be identical.
"""

import math
import os

import pytest

from golden import record

# (rtol, atol) per artifact, as |x - ref| <= atol + rtol * |ref|.  The steady
# solves and the simulation are held to 1e-12 relative.  The fit and the
# eigenvalues use the tolerances of `bench/reference.py` ("coeffs" and
# "eigenvalues"), restated here: the fit's rms and condition are held to the
# coefficients' tolerance.
STEADY = (1e-12, 0.0)
FIT = (1e-6, 1e-9)
EIGEN = (1e-4, 1e-6)
TOLERANCE = {
    "trim.csv": STEADY,
    "spiral.csv": STEADY,
    "sim.csv": STEADY,
    "sim_legacy.csv": STEADY,
    "aero_fit.ini": FIT,
    "identify.csv": FIT,
    "eigenvalues.csv": EIGEN,
}


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    return record.produce(str(tmp_path_factory.mktemp("golden")))


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def _cells(line):
    """Comparable cells of one artifact line: CSV fields, or the key and
    value of an `key = value` or `# key=value` line."""
    for sep in (",", " = ", "="):
        if sep in line:
            return line.split(sep)
    return [line]


def _close(x, ref, rtol, atol):
    if math.isinf(ref) or math.isnan(ref):
        return x == ref or (math.isnan(ref) and math.isnan(x))
    return abs(x - ref) <= atol + rtol * abs(ref)


def _mismatches(got_lines, ref_lines, rtol, atol):
    if len(got_lines) != len(ref_lines):
        return [f"{len(got_lines)} lines, golden has {len(ref_lines)}"]
    bad = []
    for i, (got, ref) in enumerate(zip(got_lines, ref_lines)):
        g, r = _cells(got), _cells(ref)
        if len(g) != len(r):
            bad.append(f"line {i + 1}: {got!r} vs golden {ref!r}")
            continue
        for j, (a, b) in enumerate(zip(g, r)):
            x, y = _number(a), _number(b)
            if x is None or y is None:
                same = a == b
            else:
                same = _close(x, y, rtol, atol)
            if not same:
                bad.append(f"line {i + 1} cell {j}: {a!r} vs golden {b!r}")
    return bad


def _eigenvalues(lines):
    return [complex(float(re_), float(im))
            for _, re_, im in (ln.split(",") for ln in lines[1:] if not ln.startswith("#"))]


def _eigen_match(got, ref, rtol, atol):
    """Each golden eigenvalue has its own match among `got`, as the
    benchmark's reference check pairs them: the CSV order of a complex
    pair is not part of the result."""
    free = list(got)
    for z in ref:
        if not free:
            return False
        k = min(range(len(free)), key=lambda i: abs(free[i] - z))
        if abs(free[k] - z) > atol + rtol * abs(z):
            return False
        free.pop(k)
    return not free


@pytest.mark.parametrize("name", record.NAMES)
def test_artifact_matches_golden(produced, name):
    with open(produced[name]) as fh:
        got = fh.read().splitlines()
    with open(os.path.join(os.path.dirname(record.__file__), name)) as fh:
        ref = fh.read().splitlines()
    rtol, atol = TOLERANCE[name]
    if name == "eigenvalues.csv":
        assert got[0] == ref[0]
        assert [ln for ln in got if ln.startswith("# hurwitz")] == \
            [ln for ln in ref if ln.startswith("# hurwitz")]
        assert _eigen_match(_eigenvalues(got), _eigenvalues(ref), rtol, atol)
        got_footer = [ln for ln in got if ln.startswith("# slowest")]
        ref_footer = [ln for ln in ref if ln.startswith("# slowest")]
        assert not _mismatches(got_footer, ref_footer, rtol, atol)
        return
    bad = _mismatches(got, ref, rtol, atol)
    assert not bad, f"{name}: {len(bad)} mismatches, first: {bad[:5]}"
