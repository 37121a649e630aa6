"""The property registry: every command-line property name and its two routes.

Each entry pairs a structural route ``fn(gens, cap) -> PropertyReport`` (or
``None`` where only the oracle decides the property) with the key that
``oracle.definitional_check`` takes.  Structural routes look their checker
up in its module at call time, so a checker replaced on its module is the
one that runs.

``ask`` runs one property on one engine and ``agree`` judges a structural
report against an oracle report.  The command line and the cross-check
both go through these two, so they run a property one way and judge
agreement by one rule.
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


def ask(gens: GeneratorSet, prop: str, engine: str, cap: int,
        table=None) -> PropertyReport:
    """The report of ``engine`` ("structural" or "oracle") on ``prop``.

    Either route runs under ``ReportBuilder.run``, so a limit comes back
    UNDECIDED.  The oracle enumerates S on the report's own clock under
    ``cap``, unless it is given the element ``table``, and its report is
    stamped under the command-line name ``prop``.
    """
    rb = ReportBuilder(prop, gens, engine)
    if engine == "structural":
        return rb.run(lambda: REGISTRY[prop].structural(gens, cap))
    from . import oracle  # numpy: only the oracle side needs it

    def decide() -> PropertyReport:
        elements = (oracle.enumerate_semigroup(gens, cap) if table is None
                    else table)
        report = oracle.definitional_check(elements, REGISTRY[prop].oracle_key)
        return rb.done(report.verdict, report.witness)

    return rb.run(decide)


def _identity_maps(report: PropertyReport) -> set[tuple[int, ...]] | None:
    """The maps of an identity-list witness as a set; None for other kinds."""
    witness = report.witness
    if witness is None or witness.get("kind") != "identity-list":
        return None
    return {tuple(entry["map"]) for entry in witness["identities"]}


def agree(structural: PropertyReport, oracle: PropertyReport) -> bool:
    """Whether two reports on one property agree: the same verdict and, for
    the identity properties, the same set of identities."""
    return (structural.verdict == oracle.verdict
            and _identity_maps(structural) == _identity_maps(oracle))
