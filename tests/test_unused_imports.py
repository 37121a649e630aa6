"""Every module-level import in the package is used.

No linter is part of the toolchain, so this check reads each module with
``ast``: every name a module-level import binds must be referenced by
name somewhere in the module.  Imports from ``__future__`` bind nothing
and are exempt.
"""

import ast
from pathlib import Path

import pytest

import tsprops

MODULES = sorted(Path(tsprops.__file__).parent.glob("*.py"))


def _bound_names(statement):
    """The names a module-level import statement binds."""
    if isinstance(statement, ast.ImportFrom) and statement.module == "__future__":
        return
    for alias in statement.names:
        yield alias.asname or alias.name.split(".")[0]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [name for statement in tree.body
              if isinstance(statement, (ast.Import, ast.ImportFrom))
              for name in _bound_names(statement) if name not in used]
    assert not unused, f"{path.name} imports {unused} and never uses them"
