"""The structural engine's modules stay free of numpy and of the oracle.

The structural engine and the oracle are the two independent judges that
the cross-check compares, and the structural checks must be importable
without numpy.  The check reads each module's source, so it also catches
imports inside functions.  The front end's modules may import the oracle,
the witness replay and the sweeps only inside functions, so that importing
the package or the CLI loads none of them.

The two judges do share ``graph.strong_components``: structural
``regular`` and ``inverse`` reach it through ``image_orbit``, and the
oracle's ``r_trivial`` calls it.  The cross-check stays a cross-check only
while no property runs it on both routes, which the last test checks by
running every property's two routes with the routine wrapped.
"""

import ast
from pathlib import Path

import pytest

import tsprops
from tsprops import graph, image_orbit, nl_checks, oracle
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


def test_no_property_runs_strong_components_on_both_routes(monkeypatch):
    strong_components = graph.strong_components
    calls = []

    def counted(succ):
        calls.append(len(succ))
        return strong_components(succ)

    for module in (graph, image_orbit, oracle, nl_checks):
        monkeypatch.setattr(module, "strong_components", counted)

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
    for name, (structural, oracle_key) in REGISTRY.items():
        sides = set()
        for gens, table in zip(pool, tables):
            calls.clear()
            if structural is not None:
                structural(gens, 1000)
                if calls:
                    sides.add("structural")
            calls.clear()
            oracle.definitional_check(table, oracle_key)
            if calls:
                sides.add("oracle")
        used[name] = sides
        assert sides != {"structural", "oracle"}, name
    # The guard is not vacuous: the routine is met on each side.
    assert "structural" in used["regular"]
    assert "oracle" in used["r-trivial"]
