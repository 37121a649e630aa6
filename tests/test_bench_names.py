"""The benchmark harness looks tsprops names up by string and by attribute,
so a renamed function would otherwise show only when the benchmark runs.

``bench/tracing.py`` wraps each function of ``SPANNED`` and counts the
elements of ``pspace_search.iter_elements``; ``bench/workloads.py`` calls
the checkers of ``_STRUCTURAL`` with the generator set alone, and
``Program`` calls the rest of the package as ``self.<module>.<name>(...)``,
its users as ``prog.<module>.<name>(...)``.  The files are read with
``ast``, not imported, so nothing under ``bench/`` runs here.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _tree(name):
    path = BENCH / name
    return ast.parse(path.read_text(), filename=str(path))


def _assigned(tree, name):
    """The literal value of the module-level assignment to ``name``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no module-level {name}")


def _lookup(module, *attrs):
    obj = importlib.import_module(f"tsprops.{module}")
    for i, attr in enumerate(attrs):
        assert hasattr(obj, attr), \
            f"tsprops.{module} has no {'.'.join(attrs[:i + 1])}"
        obj = getattr(obj, attr)
    return obj


def _tsprops_modules(tree):
    """The names that ``from tsprops import ...`` binds anywhere in ``tree``."""
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "tsprops"
            for alias in node.names}


def _chain(node):
    """``[name, attr, ...]`` of an attribute chain ``name.attr...``, or None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if parts and isinstance(node, ast.Name):
        return [node.id, *reversed(parts)]
    return None


def _uses(tree, modules, through=None):
    """``(chain, shape)`` for each use of ``module.name...`` in ``tree``,
    reached as ``through.module.name...`` when ``through`` is given.  The
    shape of a call is its positional count and keyword names; it is None
    for a bare reference or a call with ``*`` or ``**`` arguments."""
    shapes = {id(node.func): (len(node.args), tuple(k.arg for k in node.keywords))
              for node in ast.walk(tree)
              if isinstance(node, ast.Call)
              and not any(isinstance(a, ast.Starred) for a in node.args)
              and all(k.arg for k in node.keywords)}
    for node in ast.walk(tree):
        chain = _chain(node)
        if chain and through is not None:
            chain = chain[1:] if chain[0] == through else None
        if chain and len(chain) > 1 and chain[0] in modules:
            yield chain, shapes.get(id(node))


def _binds(obj, shape):
    if shape is None:
        return
    positional, keywords = shape
    inspect.signature(obj).bind(*[None] * positional,
                                **dict.fromkeys(keywords))


TRACING = _tree("tracing.py")
WORKLOADS = _tree("workloads.py")
PROGRAM = next(node for node in WORKLOADS.body
               if isinstance(node, ast.ClassDef) and node.name == "Program")


@pytest.mark.parametrize("module, name, span", _assigned(TRACING, "SPANNED"))
def test_every_spanned_function_exists(module, name, span):
    # The tracer wraps plain functions only; anything else goes untimed.
    assert inspect.isfunction(_lookup(module, name))


def test_tracing_looks_up_existing_names():
    chains = [chain for chain, _ in _uses(TRACING, _tsprops_modules(TRACING))]
    assert ["pspace_search", "iter_elements"] in chains
    for chain in chains:
        _lookup(*chain)


@pytest.mark.parametrize("prop, target",
                         sorted(_assigned(WORKLOADS, "_STRUCTURAL").items()))
def test_every_structural_checker_takes_the_set_alone(prop, target):
    _binds(_lookup(*target), (1, ()))


def test_program_calls_existing_names_with_their_signatures():
    modules = _tsprops_modules(PROGRAM)
    calls = [*_uses(PROGRAM, modules, "self"),
             *_uses(WORKLOADS, modules, "prog")]
    called = {tuple(chain) for chain, shape in calls if shape is not None}
    assert ("pspace_search", "is_regular_semigroup") in called
    assert ("pspace_search", "is_inverse_semigroup") in called
    for chain, shape in calls:
        _binds(_lookup(*chain), shape)
