"""Decision procedures for structural properties of transformation
semigroups given by generators, with an exhaustive oracle for
cross-validation and constructors for provably hard instances.

The public names below are loaded from their submodules on first use
(PEP 562), so ``import tsprops`` loads neither numpy nor the oracle; only
the names that need them do.
"""

import importlib

__version__ = "0.1.0"

# Each public name, grouped by the submodule that defines it.
_SUBMODULE_NAMES = {
    "core": (
        "GeneratorSet",
        "Transformation",
        "apply_word",
        "compose",
        "idempotent_power_exponent",
        "image",
        "is_idempotent",
        "kernel",
        "power",
        "word_to_transformation",
    ),
    "errors": (
        "DegreeMismatchError",
        "EnumerationCapExceeded",
        "ParseError",
        "PreconditionError",
        "StateBudgetExceeded",
        "UnknownPropertyError",
    ),
    "formats": (
        "instance_digest",
        "parse_dfa",
        "parse_dfa_list",
        "parse_digraph",
        "parse_generators",
        "render_dfa",
        "render_digraph",
        "render_generators",
    ),
    "identity_engine": ("QuasiIdentity", "models", "parse_quasi_identity"),
    "oracle": ("ElementTable", "definitional_check", "enumerate_semigroup"),
    "reductions": (
        "DFA",
        "InputDigraph",
        "dfa_emptiness_to_nilpotent",
        "dfa_emptiness_to_zero",
        "dfa_intersection_to_regular",
        "dfa_intersection_to_weak_inverse",
        "digraph_to_semigroup",
    ),
    "report": ("PropertyReport", "Verdict"),
    "witnesses": ("WitnessReplayError", "verify_witness"),
}

_SUBMODULE = {name: module for module, names in _SUBMODULE_NAMES.items()
              for name in names}

__all__ = sorted(_SUBMODULE)


def __getattr__(name):
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
