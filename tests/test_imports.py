"""What each entry point loads: the package namespace and the structural
commands load no numpy, no oracle, no witness replay and no sweeps.

These are assertions about ``sys.modules`` in fresh interpreters, not
timing gates.
"""

import json
import subprocess
import sys
import types

import pytest

import tsprops
from conftest import CLI_TIMEOUT_SECONDS
from tsprops.core import GeneratorSet, Transformation
from tsprops.formats import render_dfa, render_generators
from tsprops.reductions import DFA

HEAVY = ("numpy", "tsprops.oracle", "tsprops.witnesses", "tsprops.crosscheck")

# Runs ``python -m tsprops`` with the given arguments, then prints, as the
# last line of standard output, the JSON list of HEAVY modules it loaded.
_RUN_CLI = """
import json, runpy, sys
heavy, sys.argv = json.loads(sys.argv[1]), ["tsprops"] + sys.argv[2:]
code = None
try:
    runpy.run_module("tsprops", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code,
                  "loaded": [m for m in heavy if m in sys.modules]}))
"""


def _loaded_by(cli_command, tmp_path, *args):
    """``(exit code, heavy modules loaded)`` of one CLI run in a fresh interpreter."""
    module_argv, env = cli_command
    done = subprocess.run(
        [module_argv[0], "-c", _RUN_CLI, json.dumps(HEAVY), *args],
        capture_output=True, text=True, env=env, cwd=tmp_path,
        timeout=CLI_TIMEOUT_SECONDS)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    return result["code"], result["loaded"]


@pytest.fixture
def instance(tmp_path):
    """A band: two constant maps on three points."""
    path = tmp_path / "consts.txt"
    path.write_text(render_generators(
        GeneratorSet.from_maps([(1, 1, 1), (2, 2, 2)])))
    return str(path)


@pytest.mark.parametrize("args, code", [
    (("check", "{F}", "--property", "band", "--json"), 0),
    (("identity", "{F}", "--quasi", "x1 x2 = x2 x1"), 1),
    (("element", "{F}", "--mode", "regularizer", "--target", "1"), 0),
    (("reduce", "zero", "{D}", "{O}"), 0),
], ids=["check", "identity", "element", "reduce"])
def test_structural_commands_load_no_numpy(cli_command, tmp_path, instance,
                                           args, code):
    dfa = tmp_path / "dfa.txt"
    dfa.write_text(render_dfa(DFA(2, 1, frozenset({2}),
                                  (Transformation(2, (2, 2)),))))
    args = [a.format(F=instance, D=dfa, O=tmp_path / "out.txt") for a in args]
    assert _loaded_by(cli_command, tmp_path, *args) == (code, [])


def test_oracle_engine_loads_the_oracle(cli_command, tmp_path, instance):
    code, loaded = _loaded_by(cli_command, tmp_path, "check", instance,
                              "--property", "band", "--engine", "oracle")
    assert code == 0
    assert "tsprops.oracle" in loaded and "numpy" in loaded


def test_bare_import_loads_no_numpy(cli_command, tmp_path):
    module_argv, env = cli_command
    probe = ("import json, sys, tsprops; "
             "print(json.dumps([m for m in sys.modules if m == 'numpy' "
             "or m.startswith('tsprops.')]))")
    done = subprocess.run([module_argv[0], "-c", probe], capture_output=True,
                          text=True, env=env, cwd=tmp_path,
                          timeout=CLI_TIMEOUT_SECONDS)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []


def test_public_names_come_from_their_defining_submodule():
    assert tsprops.__all__
    for name in tsprops.__all__:
        value = getattr(tsprops, name)
        assert value.__module__.startswith("tsprops.")
        assert getattr(sys.modules[value.__module__], name) is value


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from tsprops import *", namespace)
    for name in tsprops.__all__:
        assert namespace[name] is getattr(tsprops, name)


def test_submodules_still_import_from_the_package():
    from tsprops import oracle
    assert isinstance(oracle, types.ModuleType)
    assert oracle is sys.modules["tsprops.oracle"]


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        tsprops.no_such_name
    assert not hasattr(tsprops, "no_such_name")


def test_dir_lists_the_public_names():
    assert set(tsprops.__all__) <= set(dir(tsprops))
    assert "__version__" in dir(tsprops)
