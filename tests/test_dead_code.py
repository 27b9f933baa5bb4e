"""Dead-code guards over the module-level functions, classes and
assignments of `src/blimpdyn` and over the methods of its public classes,
and a guard against finite-difference derivatives there.

- A private name must be used by some other statement of the package.
- A public name must be used by some other statement of the package, by
  the demos, by the benchmark or by the README quick start.
- A method (not a dunder) of a public class must be called or read as an
  attribute outside its own body: by the package if it is private, also
  by the demos, the benchmark or the README quick start if it is public.
- No derivative of a model function is taken by finite differences: the
  package differentiates its model exactly (the kernel's tangents), and
  the finite-difference forms live in the tests as references.
- The RK4 step of `simulate.integrate`, and the kernel closures it calls,
  call nothing from numpy: the step runs on Python floats.
- The steady solvers never call `np.linalg.solve`: the Newton step calls
  LAPACK's gufunc directly, and numpy's private `_umath_linalg` is
  imported once in the package, as `equilibria._lapack_solve`.

A name that only the tests reach is a second entry point kept alive by
its own tests; the tests should compare against their own references
(`reference_kernel`, `reference_matrix`, `reference_sysid`) instead.
Imports are not uses, so a re-export from `blimpdyn/__init__` keeps
nothing alive.
"""

import ast
import collections
import os
import re

import blimpdyn

SRC = os.path.dirname(os.path.abspath(blimpdyn.__file__))
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _modules():
    """(file name, parsed module) of every Python file of the package."""
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                yield name, ast.parse(fh.read(), filename=name)


def _outside_trees():
    """Parsed Python files of `demos/` and `bench/`, and the README quick
    start: the callers of the package outside it."""
    for sub in ("demos", "bench"):
        for dirpath, _, filenames in os.walk(os.path.join(ROOT, sub)):
            for name in filenames:
                if name.endswith(".py"):
                    with open(os.path.join(dirpath, name)) as fh:
                        yield ast.parse(fh.read(), filename=name)
    with open(os.path.join(ROOT, "README.md")) as fh:
        yield ast.parse(_quick_start(fh.read()))


def _quick_start(readme):
    """The Python block of the README's quick-start section."""
    match = re.search(r"^## Quick start\n.*?^```python\n(.*?)^```", readme, re.M | re.S)
    assert match, "README has no Python quick-start block"
    return match.group(1)


def _defined(stmt):
    """Names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _used(stmt):
    """Names a statement reads, as a bare name or as a module attribute."""
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _is_private(name):
    return name.startswith("_") and not _is_dunder(name)


def _is_public(name):
    return not name.startswith("_")


def _unreferenced(keep, outside=frozenset()):
    """The top-level names `keep` selects, as module.name, that no other
    top-level statement of the package uses and that are not in `outside`
    (a function calling only itself counts as unused)."""
    statements = [(mod, stmt) for mod, tree in _modules() for stmt in tree.body]
    used = [set(_used(stmt)) for _, stmt in statements]
    unused = []
    for i, (mod, stmt) in enumerate(statements):
        for name in filter(keep, _defined(stmt)):
            if name in outside:
                continue
            if not any(name in names for j, names in enumerate(used) if j != i):
                unused.append(f"{mod[:-3]}.{name}")
    return sorted(unused)


def unreferenced_private_names():
    """The private top-level names that no other top-level statement of
    the package uses."""
    return _unreferenced(_is_private)


def unreferenced_public_names():
    """The public top-level names that neither another top-level statement
    of the package nor the demos, the benchmark or the README quick start
    use."""
    outside = {name for tree in _outside_trees() for name in _used(tree)}
    return _unreferenced(_is_public, outside)


def _attributes(tree):
    """Attribute names a parsed tree reads, as obj.name."""
    return [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)]


def _outside_attributes():
    """Attribute names the demos, the benchmark and the README quick start read."""
    return {name for tree in _outside_trees() for name in _attributes(tree)}


def _public_class_methods(modules):
    """(module.Class.method, method definition) of every method of the
    public classes of `modules`, (file name, parsed module) pairs; dunders
    are left out."""
    for mod, tree in modules:
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and _is_public(cls.name):
                for node in cls.body:
                    if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not _is_dunder(node.name)):
                        yield f"{mod[:-3]}.{cls.name}.{node.name}", node


def unreferenced_methods(modules, outside):
    """The methods of the public classes of `modules` that no attribute
    read outside their own body reaches: one of `modules` for a private
    method, also one of the `outside` names for a public one (a method
    calling only itself counts as unused)."""
    used = collections.Counter(name for _, tree in modules for name in _attributes(tree))
    unused = []
    for qualname, node in _public_class_methods(modules):
        if used[node.name] > _attributes(node).count(node.name):
            continue
        if _is_public(node.name) and node.name in outside:
            continue
        unused.append(qualname)
    return sorted(unused)


def test_no_unreferenced_private_names():
    assert unreferenced_private_names() == []


def test_no_unreferenced_public_names():
    assert unreferenced_public_names() == []


def test_no_unreferenced_methods():
    assert unreferenced_methods(list(_modules()), _outside_attributes()) == []


def test_guard_sees_methods_and_their_uses():
    """The method scan finds the methods of the package's public classes,
    and on a made-up module reports a method that only calls itself and a
    private method that only the outside callers read, but not a method
    another method calls, a public method the outside callers read, a
    dunder, or a method of a private class."""
    methods = {name for name, _ in _public_class_methods(_modules())}
    assert {"aero.AeroModel.with_vector", "frames.State.from_vector",
            "equilibria.SteadySolution.state", "validation.CriterionResult.line"} <= methods
    assert {"as_array", "state"} <= _outside_attributes()
    src = ("class Loads:\n"
           "    def total(self):\n        return self.total()\n"
           "    def _half(self):\n        return self.double() / 2\n"
           "    def double(self):\n        return 2\n"
           "    def shown(self):\n        return 1\n"
           "    def __len__(self):\n        return 0\n"
           "class _Hidden:\n    def never(self):\n        pass\n")
    assert unreferenced_methods([("m.py", ast.parse(src))], {"shown", "_half"}) == [
        "m.Loads._half", "m.Loads.total"]


def test_guard_sees_private_definitions():
    """The scan finds the package's private helpers at all: a guard that
    parses nothing would pass vacuously."""
    defined = {name for _, tree in _modules() for stmt in tree.body
               for name in _defined(stmt) if _is_private(name)}
    assert {"_bind_balance", "_polynomials", "_damped_newton", "_VERBS"} <= defined


def test_guard_sees_public_definitions_and_outside_uses():
    """The public scan finds the package's public names and the uses
    outside it: `glide_metrics` is used only by the benchmark, and the
    quick start calls `solve_spiral`."""
    defined = {name for _, tree in _modules() for stmt in tree.body
               for name in _defined(stmt) if _is_public(name)}
    assert {"bind", "solve_spiral", "VehicleParams", "RAIL_LIMIT", "glide_metrics"} <= defined
    outside = {name for tree in _outside_trees() for name in _used(tree)}
    assert {"glide_metrics", "solve_spiral", "turning_radius"} <= outside


def finite_difference_derivatives(tree):
    """Where a parsed module takes a finite-difference derivative, as
    (line, form) pairs: a difference of two calls of one function divided
    by a step, f(x + h) - f(x - h) over 2 h (a difference quotient), or a
    component of a point stepped in place by a variable, xp[i] += h (the
    step loop of a finite-difference Jacobian; a counter, n[k] += 1, is
    not one)."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.Sub)
                and isinstance(node.left.left, ast.Call) and isinstance(node.left.right, ast.Call)
                and ast.dump(node.left.left.func) == ast.dump(node.left.right.func)):
            found.append((node.lineno, "difference quotient"))
        elif (isinstance(node, ast.AugAssign) and isinstance(node.op, (ast.Add, ast.Sub))
              and isinstance(node.target, ast.Subscript)
              and not isinstance(node.value, ast.Constant)):
            found.append((node.lineno, "stepped component"))
    return found


def test_no_finite_difference_derivatives():
    assert [(name, *hit) for name, tree in _modules()
            for hit in finite_difference_derivatives(tree)] == []


def test_guard_sees_finite_difference_derivatives():
    """The finite-difference guard fires on the finite-difference
    linearization the tests keep as a reference (its step loop and its
    central quotient), and on the forms the tests' central differences take."""
    with open(os.path.join(ROOT, "tests", "reference_kernel.py")) as fh:
        tree = ast.parse(fh.read())
    lin = next(node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "reference_linearize")
    assert sorted(form for _, form in finite_difference_derivatives(lin)) == [
        "difference quotient", "stepped component", "stepped component"]
    for src in ("(fun(xp) - fun(xm)) / (2.0 * h)", "(along(h) - along(-h)) / (2.0 * h)",
                "(loads(a + h, b) - loads(a - h, b)) / (2.0 * h)"):
        assert finite_difference_derivatives(ast.parse(src)) == [(1, "difference quotient")]
    assert finite_difference_derivatives(ast.parse("(f(x) - g(x)) / 2.0")) == []
    assert finite_difference_derivatives(ast.parse("counts[k] += 1")) == []


def _function(tree, name):
    """The top-level function `name` of a parsed module."""
    return next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == name)


def _step_loop(tree):
    """The RK4 step loop of a parsed module's `integrate`: its one `for k`
    loop."""
    loops = [node for node in ast.walk(_function(tree, "integrate"))
             if isinstance(node, ast.For) and isinstance(node.target, ast.Name)
             and node.target.id == "k"]
    assert len(loops) == 1, "integrate has no single `for k` step loop"
    return loops[0]


def _call_root(call):
    """The name a call's callee starts from (np for np.linalg.solve(...)),
    or None when it starts from something else (a subscript, a call)."""
    node = call.func
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def numpy_calls(tree, body):
    """Where `body`, a node of the parsed module `tree`, calls numpy, as
    (line, callee) pairs: a call through a name the module binds to numpy
    or imports from it, or a call of one of the module's top-level
    functions that calls numpy, however indirectly."""
    numpy_names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            numpy_names.update(alias.asname or alias.name for alias in node.names
                               if alias.name.split(".")[0] == "numpy")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            numpy_names.update(alias.asname or alias.name for alias in node.names)
    calls = {node.name: [_call_root(c) for c in ast.walk(node) if isinstance(c, ast.Call)]
             for node in tree.body if isinstance(node, ast.FunctionDef)}
    tainted = set(numpy_names)
    grown = True
    while grown:
        more = {name for name, roots in calls.items() if tainted.intersection(roots)}
        grown = not more <= tainted
        tainted |= more
    return sorted((node.lineno, ast.unparse(node.func)) for node in ast.walk(body)
                  if isinstance(node, ast.Call) and _call_root(node) in tainted)


def test_rk4_step_calls_no_numpy():
    """The step loop of `simulate.integrate` (its four derivative stages
    and the combine) and the kernel closures the stages run, those of
    `dynamics.bind` and `aero.bind`, call nothing from numpy."""
    trees = dict(_modules())
    loop = _step_loop(trees["simulate.py"])
    assert [_call_root(node) for node in ast.walk(loop)
            if isinstance(node, ast.Call)].count("deriv") == 4
    assert numpy_calls(trees["simulate.py"], loop) == []
    for name in ("dynamics.py", "aero.py"):
        assert numpy_calls(trees[name], _function(trees[name], "bind")) == []


def test_numpy_gate_sees_a_violation():
    """The numpy gate reports a call through the numpy alias, through a
    name imported from numpy and through a module function that calls
    numpy by way of another, but not a math call, a method of an array or
    a call outside the step loop."""
    src = ("import math\n"
           "import numpy as np\n"
           "from numpy.linalg import norm as vnorm\n"
           "def helper(x):\n    return np.sqrt(x)\n"
           "def outer(x):\n    return helper(x) + 1.0\n"
           "def pure(x):\n    return math.sqrt(x)\n"
           "def integrate(n):\n"
           "    y = np.zeros(3)\n"
           "    for k in range(n):\n"
           "        a = np.linalg.norm(y)\n"
           "        b = vnorm(y)\n"
           "        c = outer(k)\n"
           "        d = pure(k) + math.sqrt(k)\n"
           "        e = y.tolist()\n")
    tree = ast.parse(src)
    assert numpy_calls(tree, _step_loop(tree)) == [
        (13, "np.linalg.norm"), (14, "vnorm"), (15, "outer")]


LAPACK_MODULE = "numpy.linalg._umath_linalg"


def _import_paths(tree):
    """The dotted path each name bound by an import of a parsed module
    stands for (np -> numpy, solve -> numpy.linalg.solve), and where the
    binding is, as {name: (path, line, at module level)}."""
    top = set(map(id, tree.body))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                path = alias.name if alias.asname else name
                bound[name] = (path, node.lineno, id(node) in top)
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                bound[alias.asname or alias.name] = (f"{node.module}.{alias.name}",
                                                     node.lineno, id(node) in top)
    return bound


def _resolved(node, bound):
    """The dotted path an expression of names and attributes stands for,
    its first name resolved through the module's imports; None for any
    other expression."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = bound.get(node.id, (node.id,))[0]
    return ".".join([root, *reversed(attrs)])


def linalg_solve_calls(tree):
    """Lines where a parsed module calls `numpy.linalg.solve`, through any
    import alias."""
    bound = _import_paths(tree)
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _resolved(node.func, bound) == "numpy.linalg.solve"]


def _in_lapack_module(path):
    return path == LAPACK_MODULE or path.startswith(LAPACK_MODULE + ".")


def lapack_uses(tree):
    """Every way a parsed module reaches numpy's private `_umath_linalg`:
    (line, name, at module level) of each name an import binds to it or
    to a name in it, and of each plain `import numpy.linalg._umath_linalg`,
    and (line, dotted path, False) of each attribute path that reaches it
    from another name (np.linalg._umath_linalg)."""
    bound = _import_paths(tree)
    top = set(map(id, tree.body))
    uses = [(line, name, at_top) for name, (path, line, at_top) in bound.items()
            if _in_lapack_module(path)]
    uses += [(node.lineno, alias.name, id(node) in top) for node in ast.walk(tree)
             if isinstance(node, ast.Import) for alias in node.names
             if alias.asname is None and _in_lapack_module(alias.name)]
    uses += [(node.lineno, LAPACK_MODULE, False) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and _resolved(node, bound) == LAPACK_MODULE]
    return sorted(uses)


def test_newton_step_does_not_call_np_linalg_solve():
    trees = dict(_modules())
    assert linalg_solve_calls(trees["equilibria.py"]) == []
    assert {name: [use[1:] for use in lapack_uses(tree)] for name, tree in trees.items()
            if lapack_uses(tree)} == {"equilibria.py": [("_lapack_solve", True)]}


def test_linalg_gate_sees_violations():
    """The gate reports `np.linalg.solve` however it is reached, and every
    import of, or attribute path through, `_umath_linalg` but a
    module-level one; `lstsq` and a method named solve pass."""
    src = ("import numpy as np\n"
           "import numpy.linalg as la\n"
           "from numpy.linalg import solve as vsolve\n"
           "from numpy.linalg._umath_linalg import solve1 as _lapack_solve\n"
           "def step(J, b, lu):\n"
           "    x = np.linalg.solve(J, b)\n"
           "    y = la.solve(J, b) + vsolve(J, b)\n"
           "    z = np.linalg.lstsq(J, b)[0] + lu.solve(b)\n"
           "    from numpy.linalg import _umath_linalg\n"
           "    import numpy.linalg._umath_linalg\n"
           "    return np.linalg._umath_linalg.solve(J, b) + _umath_linalg.solve1(J, b)\n")
    tree = ast.parse(src)
    assert linalg_solve_calls(tree) == [6, 7, 7]
    assert lapack_uses(tree) == [(4, "_lapack_solve", True), (9, "_umath_linalg", False),
                                 (10, LAPACK_MODULE, False), (11, LAPACK_MODULE, False)]
