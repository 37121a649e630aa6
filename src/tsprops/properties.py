"""The property registry: every command-line property name and its two routes.

Each entry pairs a structural route ``fn(gens, cap) -> PropertyReport`` (or
``None`` where only the oracle decides the property) with the key that
``oracle.definitional_check`` takes.  The command line and the cross-check
both read this one table.  Structural routes look their checker up in its
module at call time, so a checker replaced on its module is the one that
runs.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from . import fo_checks, identity_engine, nl_checks, pspace_search
from .core import GeneratorSet
from .identities_enum import left_identities, right_identities
from .report import PropertyReport, ReportBuilder


class Routes(NamedTuple):
    structural: Callable[[GeneratorSet, int], PropertyReport] | None
    oracle_key: str


def _identities_report(gens: GeneratorSet, side: str) -> PropertyReport:
    rb = ReportBuilder(f"{side}-identities", gens, "structural")
    pairs = left_identities(gens) if side == "left" else right_identities(gens)
    witness = {
        "kind": "identity-list",
        "side": side,
        "identities": [{"map": list(t.map), "word": list(word)}
                       for t, word in pairs],
    }
    return rb.true(witness) if pairs else rb.false(witness)


REGISTRY: dict[str, Routes] = {
    "commutative": Routes(lambda gens, cap: fo_checks.is_commutative(gens),
                          "commutative"),
    "semilattice": Routes(lambda gens, cap: fo_checks.is_semilattice(gens),
                          "semilattice"),
    "group": Routes(lambda gens, cap: fo_checks.is_group(gens), "group"),
    "left-zero": Routes(lambda gens, cap: nl_checks.has_left_zero(gens),
                        "left_zero_exists"),
    "right-zero": Routes(lambda gens, cap: nl_checks.has_right_zero(gens),
                         "right_zero_exists"),
    "zero": Routes(lambda gens, cap: nl_checks.has_zero(gens), "zero_exists"),
    "nilpotent": Routes(lambda gens, cap: nl_checks.is_nilpotent(gens),
                        "nilpotent"),
    "r-trivial": Routes(lambda gens, cap: nl_checks.is_r_trivial(gens),
                        "r_trivial"),
    "band": Routes(lambda gens, cap: identity_engine.is_band(gens), "band"),
    "idempotents-commute":
        Routes(lambda gens, cap: identity_engine.idempotents_commute(gens),
               "idempotents_commute"),
    "idempotents-central":
        Routes(lambda gens, cap: identity_engine.idempotents_central(gens),
               "idempotents_central"),
    "orthodox": Routes(lambda gens, cap: identity_engine.is_orthodox(gens),
                       "orthodox"),
    "completely-regular":
        Routes(lambda gens, cap: nl_checks.is_completely_regular(gens),
               "completely_regular"),
    "clifford": Routes(lambda gens, cap: nl_checks.is_clifford(gens),
                       "clifford"),
    "regular": Routes(lambda gens, cap: pspace_search.is_regular(gens, cap),
                      "regular"),
    "inverse":
        Routes(lambda gens, cap: pspace_search.is_inverse_semigroup(gens, cap),
               "inverse_semigroup"),
    "left-identities": Routes(lambda gens, cap: _identities_report(gens, "left"),
                              "left_identities"),
    "right-identities":
        Routes(lambda gens, cap: _identities_report(gens, "right"),
               "right_identities"),
    "aperiodic": Routes(None, "aperiodic"),
}
