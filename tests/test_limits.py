"""A checker decides or raises.

Every structural checker returns TRUE or FALSE, or raises a
``LimitExceeded`` at its cap or state budget.  ``ReportBuilder.run`` is the
one place where a limit becomes an UNDECIDED report, and a composite
property passes its conjuncts' limits through: it never reports FALSE
because a conjunct gave up.
"""

import pytest

from tsprops import graph, identity_engine, nl_checks, pspace_search
from tsprops.core import GeneratorSet
from tsprops.crosscheck import check_instance
from tsprops.errors import (EnumerationCapExceeded, PreconditionError,
                            StateBudgetExceeded)
from tsprops.nl_checks import has_zero, is_clifford
from tsprops.pspace_search import is_inverse_semigroup
from tsprops.report import ReportBuilder, Verdict, all_of

S3 = [(2, 3, 1), (2, 1, 3)]     # a group: inverse and Clifford, no zero
TRIVIAL = [(1,)]                # every conjunct below holds


def test_zero_raises_at_the_budget_of_either_conjunct(monkeypatch):
    # ⟨[1,1,1]⟩ has a left zero (3 points to move, within a budget of 3),
    # and its right-zero closure stands for a search of 3 * 3 pairs.
    monkeypatch.setattr(graph, "STATE_BUDGET", 3)
    with pytest.raises(StateBudgetExceeded):
        has_zero(GeneratorSet.from_maps([(1, 1, 1)]))
    monkeypatch.setattr(graph, "STATE_BUDGET", 2)
    with pytest.raises(StateBudgetExceeded):
        has_zero(GeneratorSet.from_maps([(1, 1, 1)]))


def test_clifford_raises_at_the_budget(monkeypatch):
    monkeypatch.setattr(graph, "STATE_BUDGET", 3)
    with pytest.raises(StateBudgetExceeded):
        is_clifford(GeneratorSet.from_maps(S3))


def test_inverse_raises_past_the_cap():
    with pytest.raises(EnumerationCapExceeded) as exc:
        is_inverse_semigroup(GeneratorSet.from_maps(S3), 2)
    assert exc.value.witness == {"kind": "enumeration-cap", "cap": 2}


def _stopped(*args):
    raise EnumerationCapExceeded(1)


@pytest.mark.parametrize("composite, module, conjunct", [
    (has_zero, nl_checks, "has_left_zero"),
    (has_zero, nl_checks, "has_right_zero"),
    (is_clifford, nl_checks, "is_completely_regular"),
    (is_clifford, identity_engine, "idempotents_commute"),
    (is_inverse_semigroup, pspace_search, "is_regular"),
    (is_inverse_semigroup, identity_engine, "idempotents_commute"),
])
def test_a_composite_raises_when_any_conjunct_raises(monkeypatch, composite,
                                                     module, conjunct):
    gens = GeneratorSet.from_maps(TRIVIAL)
    assert composite(gens).verdict is Verdict.TRUE
    monkeypatch.setattr(module, conjunct, _stopped)
    with pytest.raises(EnumerationCapExceeded):
        composite(GeneratorSet.from_maps(TRIVIAL))


def test_run_turns_a_limit_into_undecided_and_nothing_else():
    gens = GeneratorSet.from_maps(S3)
    builder = ReportBuilder("zero", gens, "oracle")

    def budget():
        raise StateBudgetExceeded(9, 3)

    report = builder.run(budget)
    assert (report.property, report.verdict, report.engine) == (
        "zero", Verdict.UNDECIDED, "oracle")
    assert report.witness == {"kind": "state-budget", "states": 9,
                              "budget": 3}

    def misuse():
        raise PreconditionError("not a limit")

    with pytest.raises(PreconditionError):
        builder.run(misuse)


def test_all_of_stops_at_the_first_false_conjunct():
    gens = GeneratorSet.from_maps(S3)
    asked = []

    def conjunct(verdict, witness):
        def check(g):
            asked.append(witness)
            return ReportBuilder("part", g, "structural").done(verdict,
                                                               witness)
        return check

    report = all_of("whole", gens, conjunct(Verdict.TRUE, {"kind": "a"}),
                    conjunct(Verdict.FALSE, {"kind": "b"}),
                    conjunct(Verdict.FALSE, {"kind": "c"}))
    assert (report.property, report.verdict, report.witness) == (
        "whole", Verdict.FALSE, {"kind": "b"})
    assert asked == [{"kind": "a"}, {"kind": "b"}]
    assert all_of("whole", gens).verdict is Verdict.TRUE


def test_a_sweep_reports_a_budget_as_undecided_with_its_reason(monkeypatch):
    monkeypatch.setattr(graph, "STATE_BUDGET", 3)
    result = check_instance(GeneratorSet.from_maps([(1, 1, 1)]),
                            properties=["right-zero"], collect_reports=True)
    structural, oracle = result.reports
    assert structural.verdict is Verdict.UNDECIDED
    assert structural.witness == {"kind": "state-budget", "states": 9,
                                  "budget": 3}
    assert oracle.verdict is Verdict.TRUE
    assert result.verdicts == {"right-zero": {"structural": "UNDECIDED",
                                              "oracle": "TRUE"}}
    assert not result.mismatches
