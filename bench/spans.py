"""Span tracing of the package's public functions, from outside the package.

`Tracer.install` wraps every public module-level function of the layer
modules and rebinds the wrapper at every site where the function is bound:
the defining module, each module that imported it by name, the package
namespace, and module-level dicts such as the CLI's verb table.  A span
records its function, start, end, parent span and operation id.  Spans stay
in memory until the run ends; `layer_metrics` then derives the per-layer
metrics and `save` writes the spans out.
"""

import types
from array import array
from time import perf_counter

LAYERS = ("frames", "aero", "dynamics", "equilibria", "simulate", "sysid", "cli", "paramio")


class Tracer:
    def __init__(self):
        self.names = []          # span name per function id, "module.function"
        self.fn = array("i")     # function id per span
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.current_op = -1
        self.steps = 0           # RK4 steps returned by simulate.integrate
        self.fit_observations = 0
        self.fit_excluded = 0
        self._stack = [-1]
        self._restore = []

    def install(self, modules):
        """Wrap the public functions of `modules` (name -> module) at every
        binding site found in those modules."""
        wrappers = {}
        for layer in LAYERS:
            mod = modules[layer]
            for name, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{name}")
        for mod in modules.values():
            self._rebind(vars(mod), wrappers)
            for value in list(vars(mod).values()):
                if isinstance(value, dict):
                    self._rebind(value, wrappers)

    def _rebind(self, namespace, wrappers):
        for key, value in list(namespace.items()):
            if isinstance(value, types.FunctionType) and value in wrappers:
                self._restore.append((namespace, key, value))
                namespace[key] = wrappers[value]

    def uninstall(self):
        for namespace, key, value in reversed(self._restore):
            namespace[key] = value
        self._restore = []

    def _wrap(self, func, span_name):
        fid = len(self.names)
        self.names.append(span_name)
        stack = self._stack
        fn, parent, op = self.fn, self.parent, self.op
        start, end, raised = self.start, self.end, self.raised
        after = {
            "simulate.integrate": self._count_steps,
            "sysid.fit": self._count_fit,
        }.get(span_name)

        def wrapper(*args, **kwargs):
            i = len(fn)
            fn.append(fid)
            parent.append(stack[-1])
            op.append(self.current_op)
            raised.append(0)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = func(*args, **kwargs)
            except BaseException:
                raised[i] = 1
                raise
            finally:
                end[i] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def _count_steps(self, args, traj):
        self.steps += len(traj) - 1

    def _count_fit(self, args, result):
        self.fit_observations += len(args[0])
        self.fit_excluded += len(result.excluded)

    def save(self, path):
        import numpy as np

        np.savez_compressed(
            path, names=np.array(self.names), fn=self.fn, parent=self.parent,
            op=self.op, start=self.start, end=self.end, raised=self.raised,
        )


def layer_metrics(tr, n_ops):
    """Per-layer metrics of a traced run, per operation where they are totals.

    Self time of a span is its duration minus the durations of its direct
    child spans; a layer's self time sums it over the layer's spans."""
    import numpy as np

    fn = np.frombuffer(tr.fn, dtype=np.int32)
    parent = np.frombuffer(tr.parent, dtype=np.int32)
    dur = np.frombuffer(tr.end, dtype=np.float64) - np.frombuffer(tr.start, dtype=np.float64)
    raised = np.frombuffer(tr.raised, dtype=np.int8).astype(bool)
    names = tr.names
    layer_of_fn = np.array([LAYERS.index(n.split(".")[0]) for n in names] or [0])
    layer = layer_of_fn[fn] if fn.size else np.zeros(0, dtype=int)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=fn.size)
    self_t = dur - child
    parent_fn = np.where(has_parent, fn[np.maximum(parent, 0)], -1)

    def fid(name):
        return names.index(name) if name in names else -2

    def is_fn(*span_names):
        return np.isin(fn, [fid(n) for n in span_names])

    def layer_self(name):
        return float(self_t[layer == LAYERS.index(name)].sum()) / n_ops

    def under(span_name):
        """Spans with an ancestor span of `span_name`."""
        kids = np.flatnonzero(has_parent)
        up = parent[kids]
        flag = np.zeros(fn.size, dtype=bool)
        flag[kids] = fn[up] == fid(span_name)
        while True:   # one more level of ancestry per pass
            grown = flag.copy()
            grown[kids] |= flag[up]
            if np.array_equal(grown, flag):
                return flag
            flag = grown

    deriv = is_fn("dynamics.deriv_vector")
    aero_spans = layer == LAYERS.index("aero")
    solve_names = ("equilibria.solve_straight", "equilibria.solve_spiral")
    solves = is_fn(*solve_names) & ~np.isin(parent_fn, [fid(n) for n in solve_names])
    residual_evals = is_fn("aero.eval_coeffs") & np.isin(
        parent_fn, [i for i, n in enumerate(names) if n.startswith("equilibria.")])
    spiral = np.flatnonzero(is_fn("equilibria.solve_spiral"))
    straight_in = np.bincount(parent[is_fn("equilibria.solve_straight") & has_parent],
                              minlength=fn.size)
    integrate_s = float(dur[is_fn("simulate.integrate")].sum())
    n_fit_aero = int((is_fn("aero.aero_loads") & under("sysid.fit")).sum())

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "dynamics.deriv_calls": (int(deriv.sum()) / n_ops, "count/op"),
        "dynamics.deriv_us": (ratio(float(dur[deriv].sum()), int(deriv.sum())) * 1e6, "us"),
        "dynamics.self_s": (layer_self("dynamics"), "s/op"),
        "dynamics.mass_matrix_calls": (int(is_fn("dynamics.mass_matrix").sum()) / n_ops, "count/op"),
        "frames.calls": (int((layer == LAYERS.index("frames")).sum()) / n_ops, "count/op"),
        "frames.self_s": (layer_self("frames"), "s/op"),
        "aero.calls": (int(aero_spans.sum()) / n_ops, "count/op"),
        "aero.self_s": (layer_self("aero"), "s/op"),
        "aero.us_per_call": (ratio(float(self_t[aero_spans].sum()), int(aero_spans.sum())) * 1e6, "us"),
        "simulate.steps": (tr.steps / n_ops, "count/op"),
        "simulate.step_us": (ratio(integrate_s, tr.steps) * 1e6, "us"),
        "simulate.self_s": (layer_self("simulate"), "s/op"),
        "simulate.analysis_s": (float(dur[is_fn("simulate.turning_radius_series",
                                                "simulate.glide_metrics")].sum()) / n_ops, "s/op"),
        "equilibria.solves": (int(solves.sum()) / n_ops, "count/op"),
        "equilibria.residual_evals": (int(residual_evals.sum()) / n_ops, "count/op"),
        "equilibria.evals_per_solve": (ratio(int(residual_evals.sum()), int(solves.sum())), "count"),
        "equilibria.fallback_ratio": (ratio(int((straight_in[spiral] >= 2).sum()), spiral.size), "ratio"),
        "equilibria.failures": (int((solves & raised).sum()) / n_ops, "count/op"),
        "equilibria.self_s": (layer_self("equilibria"), "s/op"),
        "equilibria.linearize_s": (float(dur[is_fn("equilibria.linearize")].sum()) / n_ops, "s/op"),
        "sysid.load_s": (float(dur[is_fn("sysid.load_trials")].sum()) / n_ops, "s/op"),
        "sysid.extract_s": (float(dur[is_fn("sysid.extract_steady")].sum()) / n_ops, "s/op"),
        "sysid.fit_s": (float(dur[is_fn("sysid.fit")].sum()) / n_ops, "s/op"),
        "sysid.fit_aero_evals": (n_fit_aero / n_ops, "count/op"),
        "sysid.excluded_ratio": (ratio(tr.fit_excluded, tr.fit_observations), "ratio"),
        "sysid.self_s": (layer_self("sysid"), "s/op"),
        "cli.self_s": (layer_self("cli"), "s/op"),
        "paramio.self_s": (layer_self("paramio"), "s/op"),
    }
