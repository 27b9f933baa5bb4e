"""Reference outputs of every catalogue entry, and the check against them.

`reference.json` holds, for each workload, the outputs (or the typed
failure) of every entry of its catalogue, recorded with the code of the
commit that introduced the benchmark.  Regenerate it only when a change is
meant to alter results:

    python3 bench/reference.py
"""

import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PATH = os.path.join(HERE, "reference.json")

# Per output: (rtol, atol), checked as |x - ref| <= atol + rtol * |ref|;
# None means exact equality.  Outputs not listed (the CSV digest) are not
# compared with the reference.  Eigenvalues come from a finite-difference
# Jacobian, so they get a looser tolerance than the converged unknowns.
TOLERANCES = {
    "unknowns": (1e-6, 1e-9),
    "eigenvalues": (1e-4, 1e-6),
    "final_state": (1e-6, 1e-9),
    "glide_ratio": (1e-6, 1e-9),
    "median_radius": (1e-6, 1e-9),
    "coeffs": (1e-6, 1e-9),
    "excluded": None,
    "noise_median": (1e-6, 1e-9),
}


# BLAS and OpenMP thread caps; set before numpy is imported.
THREAD_CAPS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def load():
    with open(PATH) as fh:
        return json.load(fh)["outputs"]


def _close(x, ref, rtol, atol):
    if math.isinf(ref) or math.isnan(ref):
        return x == ref or (math.isnan(ref) and math.isnan(x))
    return abs(x - ref) <= atol + rtol * abs(ref)


def _flat(v):
    if isinstance(v, list):
        return [y for item in v for y in _flat(item)]
    return [v]


def _eigen_match(got, ref, rtol, atol):
    """Each reference eigenvalue has its own match among `got`."""
    free = [complex(*z) for z in got]
    for re_, im in ref:
        z = complex(re_, im)
        dist = [abs(w - z) for w in free]
        if not dist:
            return False
        k = min(range(len(dist)), key=dist.__getitem__)
        if dist[k] > atol + rtol * abs(z):
            return False
        free.pop(k)
    return not free


def matches(outputs, ref):
    """Whether `outputs` agree with reference outputs `ref` at TOLERANCES."""
    for name, tol in TOLERANCES.items():
        if name not in ref:
            continue
        got, want = outputs.get(name), ref[name]
        if tol is None:
            if got != want:
                return False
        elif name == "eigenvalues":
            if got is None or not _eigen_match(got, want, *tol):
                return False
        else:
            g, w = _flat(got), _flat(want)
            if len(g) != len(w) or not all(_close(a, b, *tol) for a, b in zip(g, w)):
                return False
    return True


def classify(result, ref):
    """(failed, correct) of one operation against its reference record.

    `result` and `ref` are {"error": name} for a failed operation, else the
    outputs.  An operation fails when it raises or leaves the tolerance.
    It is incorrect when it fails where the reference succeeded; an
    operation that failed in the reference and now succeeds is a success."""
    if "error" in result:
        return True, "error" in ref
    if "error" in ref:
        return False, True
    ok = matches(result, ref)
    return not ok, ok


def record():
    """Run every catalogue entry and write reference.json."""
    import workloads as W

    out = {}
    for name, w in W.WORKLOADS.items():
        entries = w.catalogue()
        ctx = w.setup(entries, os.path.join(os.path.dirname(HERE), ".bench_work", "reference", name))
        recs = {}
        for entry in entries:
            try:
                res = w.collect(w.op(entry, ctx))
                res.pop("digest", None)
            except W.FAILURES as exc:
                res = {"error": type(exc).__name__}
            recs[W.entry_key(entry)] = res
        failed = sum("error" in r for r in recs.values())
        print(f"{name}: {len(recs)} entries, {failed} typed failures", file=sys.stderr)
        out[name] = recs
    with open(PATH, "w") as fh:
        json.dump({"outputs": out}, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    os.environ.update(THREAD_CAPS)
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    record()
