"""Every call of a remembered checker in the package passes its arguments
positionally.

``report.remembered`` keys a kept report by the arguments as passed, so
``f(gens, cap)`` and ``f(gens, cap=cap)`` would be two entries of the
store and the second call would decide again.  This check reads each
module with ``ast``, collects the functions decorated with
``@remembered``, and requires every call of one of them by name, bare or
as a module attribute, to carry no keyword arguments.
"""

import ast
from pathlib import Path

import tsprops

TREES = {path.stem: ast.parse(path.read_text(), filename=str(path))
         for path in sorted(Path(tsprops.__file__).parent.glob("*.py"))}


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _remembered_checkers():
    return {node.name for tree in TREES.values() for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and "remembered" in map(_name, node.decorator_list)}


def test_the_remembered_checkers_are_found():
    assert {"is_commutative", "models", "has_zero",
            "is_regular_semigroup"} <= _remembered_checkers()


def test_every_call_of_a_remembered_checker_is_positional():
    checkers = _remembered_checkers()
    spelled = [f"{module}.py:{node.lineno} {_name(node.func)}"
               for module, tree in TREES.items() for node in ast.walk(tree)
               if isinstance(node, ast.Call) and node.keywords
               and _name(node.func) in checkers]
    assert not spelled, f"keyword arguments to remembered checkers: {spelled}"
