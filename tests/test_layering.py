"""The structural engine's modules stay free of numpy and of the oracle.

The structural engine and the oracle are the two independent judges that
the cross-check compares, and the structural checks must be importable
without numpy.  The check reads each module's source, so it also catches
imports inside functions.
"""

import ast
from pathlib import Path

import pytest

import tsprops

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
