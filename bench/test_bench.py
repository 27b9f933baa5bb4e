"""Smoke test of the benchmark: every workload's generator plus one
operation, untraced and traced, with every metric printed by name and unit.

    python3 -m pytest bench/test_bench.py
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sim_hold", "sim_maneuver", "survey", "identify")
# Counts that must repeat exactly between two traced runs of one seed.
EXACT_COUNTS = ("dynamics.deriv_calls", "dynamics.mass_matrix_calls", "simulate.steps",
                "equilibria.residual_evals", "sysid.fit_aero_evals")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_all(trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "all", "--seed", "1",
         "--seconds", "0.1", "--max-ops", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-2]), json.loads(lines[-1])


@pytest.fixture(scope="module")
def untraced():
    return run_all(0)


@pytest.fixture(scope="module")
def traced_twice():
    return run_all(1), run_all(1)


def test_result_line(untraced):
    _, _, result = untraced
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == 4 and result["failed"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed(untraced, workload):
    lines, details, result = untraced
    for m in spec()["end_to_end"]:
        got = result["metrics"][f"{workload}.{m['name']}"]
        assert got["unit"] == m["unit"] and got["value"] > 0
    table = {tuple(ln.split()[:2]): ln.split()[3] for ln in lines[:-2]}
    expect = {"ops_per_s": "1/s", "op_p50_s": "s", "fail_ratio": "ratio"}
    if workload.startswith("sim_"):
        expect["sim_rate"] = "s/s"
    for name, unit in expect.items():
        assert table[(workload, name)] == unit
    prov = details["provenance"]
    assert prov["nproc"] >= 1 and prov["thread_caps"]["OMP_NUM_THREADS"] == "1"
    assert prov["numpy"] and prov["scipy"] and prov["python"] and prov["src_sha256"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_exact_counts(traced_twice, workload):
    (_, details_a, a), (_, _, b) = traced_twice
    assert a["correct"] is True and b["correct"] is True
    for m in spec()["per_layer"]:
        got = a["metrics"][f"{workload}.{m['name']}"]
        assert got["unit"] == m["unit"]
    for name in EXACT_COUNTS:
        key = f"{workload}.{name}"
        assert a["metrics"][key]["value"] == b["metrics"][key]["value"], key
    assert details_a["workloads"][workload]["traced_identical_to_untraced"] is True
