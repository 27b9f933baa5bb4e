"""Dead-code guard: every module-level private function, class or assignment
of `src/blimpdyn` is used by some other statement of the package.

A private name that only the tests reach is a second entry point kept
alive by its own tests; the tests should compare against their own
references (`reference_kernel`, `reference_sysid`) instead.
"""

import ast
import os

import blimpdyn

SRC = os.path.dirname(os.path.abspath(blimpdyn.__file__))


def _modules():
    """(file name, parsed module) of every Python file of the package."""
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                yield name, ast.parse(fh.read(), filename=name)


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


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def unreferenced_private_names():
    """The private top-level names, as module.name, that no other top-level
    statement of the package uses (a function calling only itself counts as
    unused)."""
    statements = [(mod, stmt) for mod, tree in _modules() for stmt in tree.body]
    used = [set(_used(stmt)) for _, stmt in statements]
    unused = []
    for i, (mod, stmt) in enumerate(statements):
        for name in filter(_is_private, _defined(stmt)):
            if not any(name in names for j, names in enumerate(used) if j != i):
                unused.append(f"{mod[:-3]}.{name}")
    return sorted(unused)


def test_no_unreferenced_private_names():
    assert unreferenced_private_names() == []


def test_guard_sees_private_definitions():
    """The scan finds the package's private helpers at all: a guard that
    parses nothing would pass vacuously."""
    defined = {name for _, tree in _modules() for stmt in tree.body
               for name in _defined(stmt) if _is_private(name)}
    assert {"_bind_balance", "_polynomials", "_damped_newton", "_VERBS"} <= defined
