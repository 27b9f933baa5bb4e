"""blimpdyn benchmark: four seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

NAME is sim_hold, sim_maneuver, survey or identify; `all` runs the four in
one process.  Each workload is a closed loop: one client in one process
issues operations back to back, with BLAS/OpenMP threads capped at one.

A run repeats whole passes over the operations the seed generated until
--seconds have passed, so every run measures the same mix of operations.
With --trace 0 the operations run untraced and the run reports the
end-to-end metrics; the gated rate and median are in reference seconds,
wall time scaled by the host's current speed (hostspeed.py), and the
wall-clock figures are printed beside them.  With --trace 1 every public
function of the package is wrapped in timing spans (spans.py) and the run
reports the per-layer metrics, then replays the first operations
untraced to check that the traced outputs are bit-identical and to
measure the tracing overhead.
Every operation is checked against reference.json.

Standard output ends with one JSON line: {"correct", "attempted", "failed",
"metrics"}; the line before it holds the details and the provenance.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

T_START = time.perf_counter()   # set-up of the first workload counts from here

import reference  # noqa: E402  (stdlib only)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_work")
# The keys of workloads.WORKLOADS, which cannot be imported before set-up
# timing starts.
WORKLOAD_NAMES = ("sim_hold", "sim_maneuver", "survey", "identify")
SETUP_SAMPLES = 3
# Replay after a traced run: the first operations of the pass, until this
# much untraced time is spent or the pass ends.
REPLAY_SECONDS = 2.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--max-ops", type=int, default=0,
                   help="stop after this many operations (0: no limit); for smoke tests")
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up in this process and print it (used by the parent run)")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or args.max_ops < 0:
        p.error("--seed and --max-ops must be >= 0 and --seconds > 0")
    return args


def setup(name, args, t0):
    """Set the workload up and run its warm-up operation; return the
    workload, its operations, context, and the set-up time since `t0`."""
    import workloads as W

    w = W.WORKLOADS[name]
    ops = w.inputs(args.seed)[:args.max_ops or None]
    ctx = w.setup(ops, os.path.join(WORKDIR, name))
    run_op(w, ops[0], ctx)
    return w, ops, ctx, time.perf_counter() - t0


def run_op(w, entry, ctx, meter=None):
    """One operation: (result, wall seconds, reference seconds or None).
    The result is the outputs, or {"error": type name} if the operation
    raised.  With a hostspeed.Meter the wall time excludes its probes."""
    import workloads as W

    def call():
        try:
            return w.op(entry, ctx)
        except Exception as exc:      # returned, so that it is timed too
            return exc

    if meter is None:
        t = time.perf_counter()
        raw = call()
        dt, ref = time.perf_counter() - t, None
    else:
        raw, dt, ref = meter.run(call)
    if isinstance(raw, Exception):
        if not isinstance(raw, W.FAILURES):
            traceback.print_exception(raw, file=sys.stderr)
        return {"error": type(raw).__name__}, dt, ref
    return w.collect(raw), dt, ref


class Checker:
    """Counts operations, failures and reference mismatches."""

    def __init__(self, name):
        import workloads as W

        self.refs = reference.load()[name]
        self.key = W.entry_key
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0

    def check(self, entry, result):
        ref = self.refs.get(self.key(entry))
        if ref is None:
            raise SystemExit(f"no reference output for {self.key(entry)}; "
                             "re-record bench/reference.json")
        failed, correct = reference.classify(result, ref)
        self.attempted += 1
        self.failed += failed
        self.incorrect += not correct


def tail(times):
    """Highest of the percentiles 99.9, 99, 95, 90, 75 and 50 with at least
    ten samples beyond it: (seconds, percentile), or None."""
    xs = sorted(times)
    n = len(xs)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        k = int(n * p / 100.0 + 0.5) - 1      # nearest rank, 0-based
        if k >= 0 and n - 1 - k >= 10:
            return xs[k], p
    return None


def setup_samples(name, args, own):
    """Median set-up times over SETUP_SAMPLES set-ups, each in a fresh
    interpreter so that imports count: this process's own (if it imported
    the package for this workload) plus child processes."""
    samples = [own] if own is not None else []
    while len(samples) < SETUP_SAMPLES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--max-ops", str(args.max_ops), "--setup-only"],
            capture_output=True, text=True, timeout=150, cwd=ROOT,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"set-up child for {name} exited {proc.returncode}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(samples), samples


def run_passes(w, ops, ctx, check, args, tracer=None, meter=None):
    """Whole passes over `ops` until --seconds have passed (one pass with
    --max-ops), so that every run measures the same mix of operations.
    Returns the per-operation wall times, their reference-second times
    (with a `meter`) and the results of the first pass."""
    times, ref_times, first_pass = [], [], []
    start = time.perf_counter()
    while True:
        for entry in ops:
            if tracer is not None:
                tracer.current_op = len(times)
            result, dt, ref = run_op(w, entry, ctx, meter)
            times.append(dt)
            ref_times.append(ref)
            check.check(entry, result)
            if len(first_pass) < len(ops):
                first_pass.append(result)
        if args.max_ops or time.perf_counter() - start >= args.seconds:
            return times, ref_times, first_pass


def measure(name, args, t0, first):
    """Untraced run: end-to-end metrics of one workload.

    Other tenants of the host change its speed by up to 1.8x for tens of
    seconds at a time, so the gated rate and median are in reference
    seconds (hostspeed.py); the wall-clock rate, median and tail are
    printed beside them."""
    import hostspeed

    w, ops, ctx, own = setup(name, args, t0)
    setup_s, samples = setup_samples(name, args, own if first else None)
    check = Checker(name)
    meter = hostspeed.Meter()
    times, ref_times, _ = run_passes(w, ops, ctx, check, args, meter=meter)
    n = len(times)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ref_ops_per_s": (n / sum(ref_times), "1/s"),
        "ref_op_p50_s": (statistics.median(ref_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {
        "ops_per_s": (n / sum(times), "1/s"),
        "op_p50_s": (statistics.median(times), "s"),
        "fail_ratio": (check.failed / check.attempted, "ratio"),
    }
    if w.sim_seconds:
        extra["sim_rate"] = (w.sim_seconds * n / sum(times), "s/s")
    t = tail(times)
    if t is not None:
        extra["op_tail_s"] = (t[0], "s")
    details = {
        "ops": n, "ops_per_pass": len(ops), "passes": n // len(ops),
        "op_p50_samples": n, "op_tail_percentile": t[1] if t else None,
        "op_tail_samples": n, "setup_samples_s": samples,
        "probe_s_quartiles": statistics.quantiles(meter.probe_s, n=4),
        "incorrect": check.incorrect,
    }
    return check, metrics, extra, details


def measure_traced(name, args, t0):
    """Traced run: whole passes with every public function of the package
    wrapped in spans, then an untraced replay of the first operations,
    whose outputs must be bit-identical to the traced ones.  The replay
    also times each of those operations traced once more; untraced over
    traced time, both in reference seconds, is the tracing overhead."""
    import blimpdyn
    import hostspeed
    from spans import LAYERS, Tracer, layer_metrics

    w, ops, ctx, _ = setup(name, args, t0)
    modules = {layer: getattr(blimpdyn, layer) for layer in LAYERS}
    modules["blimpdyn"] = blimpdyn
    check = Checker(name)
    tracer = Tracer()
    tracer.install(modules)
    try:
        times, _, traced = run_passes(w, ops, ctx, check, args, tracer)
    finally:
        tracer.uninstall()
    # Replay: each operation untraced, then again under a throwaway tracer,
    # so both timings see the same state of the host.
    meter = hostspeed.Meter()
    replay, plain_s, traced_s, wall_s = [], 0.0, 0.0, 0.0
    for entry in ops:
        result, dt, ref = run_op(w, entry, ctx, meter)
        plain_s += ref
        wall_s += dt
        check.check(entry, result)
        replay.append(result)
        probe = Tracer()
        probe.install(modules)
        try:
            traced_s += run_op(w, entry, ctx, meter)[2]
        finally:
            probe.uninstall()
        if wall_s >= REPLAY_SECONDS:
            break
    k = len(replay)
    identical = [json.dumps(r, sort_keys=True) for r in traced[:k]] == \
                [json.dumps(r, sort_keys=True) for r in replay]
    if not identical:
        check.incorrect += 1
    n = len(times)
    metrics = layer_metrics(tracer, n)
    metrics["trace.overhead_ratio"] = (plain_s / traced_s, "ratio")
    os.makedirs(os.path.join(WORKDIR, "trace"), exist_ok=True)
    tracer.save(os.path.join(WORKDIR, "trace", f"{name}.npz"))
    layer_s = {layer: metrics[f"{layer}.self_s"][0] for layer in LAYERS}
    total_s = sum(layer_s.values()) or 1.0
    steps = metrics["simulate.steps"][0]
    details = {
        "ops": n, "passes": n // len(ops), "replayed_ops": k,
        "traced_identical_to_untraced": identical,
        "spans": len(tracer.fn), "incorrect": check.incorrect,
        "self_share": {layer: t / total_s for layer, t in layer_s.items()},
        "mass_matrix_calls_per_step": metrics["dynamics.mass_matrix_calls"][0] / steps if steps else None,
    }
    return check, metrics, {}, details


def provenance():
    import numpy
    import scipy

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "blimpdyn")
    for dirpath, dirnames, filenames in sorted(os.walk(pkg)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for f in sorted(filenames):
            if f.endswith((".py", ".ini")):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    h.update(f.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "thread_caps": {k: os.environ.get(k) for k in reference.THREAD_CAPS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": h.hexdigest(),
        "machine": platform.machine(),
    }


def main(argv=None):
    os.environ.update(reference.THREAD_CAPS)
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "blimpdyn", "__init__.py")):
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    if not os.path.isfile(reference.PATH):
        print(f"error: reference outputs not found at {reference.PATH}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_only:
        print(json.dumps({"setup_s": setup(args.workload, args, T_START)[3]}))
        return 0

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    runs = {}
    for i, name in enumerate(names):
        t0 = T_START if i == 0 else time.perf_counter()
        if args.trace:
            runs[name] = measure_traced(name, args, t0)
        else:
            runs[name] = measure(name, args, t0, first=i == 0)

    for name, (check, metrics, extra, _) in runs.items():
        for metric, (value, unit) in {**metrics, **extra}.items():
            print(f"{name:13s} {metric:28s} {value:14.6g} {unit}")
    prov = provenance()
    details = {name: {**r[3], "extra": {k: {"value": v, "unit": u} for k, (v, u) in r[2].items()}}
               for name, r in runs.items()}
    summary = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
               "provenance": prov, "workloads": details}
    os.makedirs(os.path.join(WORKDIR, "results"), exist_ok=True)
    with open(os.path.join(WORKDIR, "results",
                           f"{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump(summary, fh, indent=1)
    print(json.dumps(summary))

    def metric_dict(name, metrics):
        prefix = "" if len(runs) == 1 else name + "."
        return {prefix + k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    out_metrics = {}
    for name, (_, metrics, _, _) in runs.items():
        out_metrics.update(metric_dict(name, metrics))
    checks = [r[0] for r in runs.values()]
    print(json.dumps({
        "correct": all(c.incorrect == 0 for c in checks),
        "attempted": sum(c.attempted for c in checks),
        "failed": sum(c.failed for c in checks),
        "metrics": out_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
