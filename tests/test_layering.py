"""The structural engine's modules stay free of numpy and of the oracle.

The structural engine and the oracle are the two independent judges that
the cross-check compares, and the structural checks must be importable
without numpy.  The check reads each module's source, so it also catches
imports inside functions.  The front end's modules may import the oracle,
the witness replay and the sweeps only inside functions, so that importing
the package or the CLI loads none of them.

The two judges do share two routines of ``graph``.  Structural ``regular``
and ``inverse`` reach ``strong_components`` through ``image_orbit``, and
the oracle's ``r_trivial`` calls it for the R-classes.  Structural searches
(``pspace_search`` among them) walk tuples with ``search``, and the
oracle's ``r_trivial`` calls it, with ``trace``, for its connecting words.
The cross-check stays a cross-check only while no property runs either
routine on both routes, which two tests check by running every property's
two routes with the routine wrapped.

A checker decides or raises, so only ``report`` builds an UNDECIDED report,
in ``ReportBuilder.run``.
"""

import ast
from dataclasses import replace
from pathlib import Path

import pytest

import tsprops
from tsprops import graph, image_orbit, nl_checks, oracle, pspace_search
from tsprops.core import GeneratorSet
from tsprops.crosscheck import seeded_instances
from tsprops.fo_checks import is_commutative
from tsprops.properties import REGISTRY

STRUCTURAL = ("graph", "identity_engine", "nl_checks", "fo_checks",
              "pspace_search", "image_orbit", "identities_enum")
FORBIDDEN = {"numpy", "oracle", "witnesses"}


def _imported_modules(tree):
    """Every module an import statement names, with each dotted part of it
    and each name brought in by ``from ... import``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield from alias.name.split(".")
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                yield from node.module.split(".")
            for alias in node.names:
                yield alias.name


@pytest.mark.parametrize("module", STRUCTURAL)
def test_structural_module_imports_neither_numpy_nor_oracle(module):
    path = Path(tsprops.__file__).parent / f"{module}.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert not FORBIDDEN & set(_imported_modules(tree))


FRONT_END = ("__init__", "__main__", "cli", "properties", "report", "formats",
             "core", "errors", "reductions")
FRONT_END_FORBIDDEN = FORBIDDEN | {"crosscheck"}


@pytest.mark.parametrize("module", FRONT_END)
def test_front_end_module_level_imports_no_numpy_nor_oracle(module):
    # Only the statements that run at import time: a command function may
    # import the oracle or the sweeps when it runs.
    path = Path(tsprops.__file__).parent / f"{module}.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for statement in tree.body:
        if not isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            imported.update(_imported_modules(statement))
    assert not FRONT_END_FORBIDDEN & imported


def _routes_meeting(monkeypatch, name, modules):
    """Property name -> the routes ("structural", "oracle") on which it
    calls the routine ``name`` of ``graph``, wrapped in each of ``modules``
    that imports it, over a small pool of instances."""
    original = getattr(graph, name)
    calls = []

    def counted(*args):
        calls.append(name)
        return original(*args)

    for module in modules:
        monkeypatch.setattr(module, name, counted)

    pool = [GeneratorSet.from_maps(maps) for maps in (
        [(2, 3, 1)],                                # sigma
        [(1, 1, 2)],
        [(2, 3, 1), (2, 1, 3), (1, 1, 3)],          # T3
    )]
    pool += [gens for gens in seeded_instances(1972, 40, 4, 3)
             if not is_commutative(gens).verdict][:5]
    assert len(pool) == 8
    tables = [oracle.enumerate_semigroup(gens) for gens in pool]

    used = {}
    for prop, (structural, oracle_key) in REGISTRY.items():
        sides = set()
        for gens, table in zip(pool, tables):
            calls.clear()
            if structural is not None:
                # A fresh copy: a report kept on the set by an earlier
                # property would hide what this one's route calls.
                structural(replace(gens), 1000)
                if calls:
                    sides.add("structural")
            calls.clear()
            oracle.definitional_check(table, oracle_key)
            if calls:
                sides.add("oracle")
        used[prop] = sides
    return used


def test_no_property_runs_strong_components_on_both_routes(monkeypatch):
    used = _routes_meeting(monkeypatch, "strong_components",
                           (graph, image_orbit, oracle, nl_checks))
    for prop, sides in used.items():
        assert sides != {"structural", "oracle"}, prop
    # The guard is not vacuous: the routine is met on each side.
    assert "structural" in used["regular"]
    assert "oracle" in used["r-trivial"]


def test_no_property_runs_search_on_both_routes(monkeypatch):
    used = _routes_meeting(monkeypatch, "search", (graph, pspace_search, oracle))
    for prop, sides in used.items():
        assert sides != {"structural", "oracle"}, prop
    assert "structural" in used["regular"]
    assert "oracle" in used["r-trivial"]


@pytest.mark.parametrize("module", ("oracle", "witnesses", "crosscheck"))
def test_only_structural_code_reads_the_instance_store(module):
    # The store keeps structural reports; an oracle verdict, a witness
    # replay or a sweep that read it would judge the structural engine by
    # its own answers.
    path = Path(tsprops.__file__).parent / f"{module}.py"
    assert "_facts" not in path.read_text()


def _names_undecided(expr):
    return any((isinstance(node, ast.Attribute) and node.attr == "UNDECIDED")
               or (isinstance(node, ast.Constant) and node.value == "UNDECIDED")
               for node in ast.walk(expr))


def _undecided_reports_built(tree):
    """The lines that build an UNDECIDED report: any use of a builder's
    ``undecided``, and any call of a report constructor, ``done`` or
    ``replace`` that names the verdict among its arguments."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "undecided":
            yield node.lineno
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(
                func, "attr", None)
            if name in {"PropertyReport", "Verdict", "done", "replace"} and any(
                    _names_undecided(arg) for arg in
                    [*node.args, *(k.value for k in node.keywords)]):
                yield node.lineno


def test_only_report_builds_an_undecided_report():
    # A checker decides or raises; ReportBuilder.run is the one place where
    # a limit becomes UNDECIDED.
    built = {}
    for path in sorted(Path(tsprops.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = list(_undecided_reports_built(tree))
        if lines:
            built[path.name] = lines
    assert list(built) == ["report.py"]
    assert len(built["report.py"]) == 1
