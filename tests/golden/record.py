"""Golden CLI artifacts: produce them with the current code, or re-record.

`produce(workdir)` runs the CLI verbs whose artifacts `tests/test_golden.py`
compares with the frozen copies in this directory:

- `trim.csv` and `spiral.csv` on the default survey grids
- `sim.csv` of the criterion-9 schedule, full model and `--legacy-model`
  (frozen as `sim.csv` and `sim_legacy.csv`)
- `aero_fit.ini` and `identify.csv` from the synthetic trial campaign of
  `validation._synthetic_trial_set`
- `eigenvalues.csv` of the stock trim

Re-record, only in a change that says why the outputs moved, with

    PYTHONPATH=src python tests/golden/record.py
"""

import contextlib
import io
import os
import shutil
import sys
import tempfile

from blimpdyn import cli, validation

HERE = os.path.dirname(os.path.abspath(__file__))

# (golden name, verb, extra arguments, artifact written by the verb).
# "{schedule}" and "{manifest}" are filled in with the inputs `produce` writes.
RUNS = (
    ("trim.csv", "trim", [], "trim.csv"),
    ("spiral.csv", "spiral", [], "spiral.csv"),
    ("sim.csv", "simulate", ["--schedule", "{schedule}", "--T", "5"], "sim.csv"),
    ("sim_legacy.csv", "simulate", ["--schedule", "{schedule}", "--T", "5", "--legacy-model"],
     "sim.csv"),
    ("aero_fit.ini", "identify", ["--manifest", "{manifest}"], "aero_fit.ini"),
    ("identify.csv", "identify", ["--manifest", "{manifest}"], "identify.csv"),
    ("eigenvalues.csv", "linearize", [], "eigenvalues.csv"),
)
NAMES = tuple(run[0] for run in RUNS)


def produce(workdir):
    """Run every verb of `RUNS` under `workdir`; {golden name: artifact path}."""
    inputs = os.path.join(workdir, "inputs")
    os.makedirs(inputs)
    schedule = os.path.join(inputs, "schedule.csv")
    with open(schedule, "w", newline="\n") as fh:
        fh.write(validation.DETERMINISM_SCHEDULE)
    fill = {"{schedule}": schedule, "{manifest}": validation._synthetic_trial_set(inputs)}
    paths = {}
    done = {}
    for name, verb, extra, artifact in RUNS:
        argv = [verb] + [fill.get(a, a) for a in extra]
        key = tuple(argv)
        if key not in done:
            out = os.path.join(workdir, f"run{len(done)}")
            os.makedirs(out)
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv + ["--out", out])
            if rc != 0:
                raise RuntimeError(f"{' '.join(argv)} exited {rc}")
            done[key] = out
        paths[name] = os.path.join(done[key], artifact)
    return paths


def main():
    workdir = tempfile.mkdtemp(prefix="blimpdyn-golden-")
    try:
        for name, path in produce(workdir).items():
            shutil.copyfile(path, os.path.join(HERE, name))
            print(f"recorded {name}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
