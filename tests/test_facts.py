"""The per-instance store of structural reports (``report.remembered``).

A composite checker reads the report of a conjunct already decided on the
same ``GeneratorSet``; equal sets share nothing, limits are never kept, and
a report read back claims only the time of the lookup.
"""

import dataclasses
import time

import pytest

from conftest import full_monoid
from tsprops import graph, pspace_search, report
from tsprops.core import GeneratorSet
from tsprops.errors import EnumerationCapExceeded, StateBudgetExceeded
from tsprops.identity_engine import idempotents_commute
from tsprops.nl_checks import has_zero, is_clifford, is_completely_regular
from tsprops.pspace_search import is_inverse_semigroup, is_regular_semigroup
from tsprops.report import PropertyReport

S3 = [(2, 3, 1), (2, 1, 3)]                # a group: inverse and Clifford
NON_REGULAR = [(1, 1, 2), (2, 1, 3)]       # not even completely regular
CONSTANT_SWAP = [(2, 1, 3), (1, 1, 3)]     # completely regular, idempotents
                                           # do not commute
NON_COMMUTATIVE = [S3, NON_REGULAR, CONSTANT_SWAP]


@pytest.fixture
def searches(monkeypatch):
    """Every call of ``graph.search``, however it is reached."""
    calls = []
    original = graph.search

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in (graph, pspace_search):
        monkeypatch.setattr(module, "search", counted)
    return calls


@pytest.fixture
def checks_run(monkeypatch):
    """The property of every report built from scratch; a report read
    back from the store builds none."""
    names = []
    original = report.ReportBuilder.__init__

    def counted(self, prop, gens, engine):
        names.append(prop)
        original(self, prop, gens, engine)

    monkeypatch.setattr(report.ReportBuilder, "__init__", counted)
    return names


# On CONSTANT_SWAP the idempotents-commute witness needs a search of its own.
@pytest.mark.parametrize("maps", [S3, NON_REGULAR])
def test_inverse_reads_the_kept_regular_report(searches, maps):
    # Spelled as ``is_regular`` asks it: a report is kept under the
    # arguments as passed.
    gens = GeneratorSet.from_maps(maps)
    regular = is_regular_semigroup(gens, pspace_search.DEFAULT_CAP)
    assert searches
    searches.clear()
    inverse = is_inverse_semigroup(gens)
    assert not searches
    if not regular.verdict:
        assert inverse.witness is regular.witness


@pytest.mark.parametrize("maps", NON_COMMUTATIVE)
def test_clifford_reads_both_kept_conjuncts(checks_run, maps):
    gens = GeneratorSet.from_maps(maps)
    is_completely_regular(gens)
    idempotents_commute(gens)
    checks_run.clear()
    is_clifford(gens)
    assert checks_run == ["clifford"]


def test_equal_sets_share_nothing(checks_run):
    first = GeneratorSet.from_maps(CONSTANT_SWAP)
    is_clifford(first)
    second = GeneratorSet.from_maps(CONSTANT_SWAP)
    assert first == second and hash(first) == hash(second)
    assert first._facts and not second._facts
    checks_run.clear()
    is_clifford(second)
    assert checks_run == ["clifford", "completely-regular",
                          "idempotents-commute"]
    assert first == second and hash(first) == hash(second)
    assert first._facts is not second._facts
    assert dataclasses.replace(first) == first
    assert not dataclasses.replace(first)._facts


def test_a_limit_is_not_kept(monkeypatch):
    gens = GeneratorSet.from_maps(S3)
    monkeypatch.setattr(graph, "STATE_BUDGET", 3)
    with pytest.raises(StateBudgetExceeded):
        is_completely_regular(gens)
    assert not [fact for fact in gens._facts.values()
                if isinstance(fact, PropertyReport)]
    monkeypatch.undo()
    assert is_completely_regular(gens).verdict


def test_a_capped_regular_that_raises_is_not_kept(checks_run):
    # A call past its cap raises and keeps nothing; the next call with a
    # larger cap decides and is kept, under its own cap only.
    gens = GeneratorSet.from_maps(S3)
    big = pspace_search.DEFAULT_CAP
    with pytest.raises(EnumerationCapExceeded) as exc:
        is_regular_semigroup(gens, 2)
    assert exc.value.witness == {"kind": "enumeration-cap", "cap": 2}
    assert not [fact for fact in gens._facts.values()
                if isinstance(fact, PropertyReport)]
    assert is_regular_semigroup(gens, big).verdict.value == "TRUE"
    assert checks_run == ["regular", "regular"]
    checks_run.clear()
    assert is_regular_semigroup(gens, big).verdict
    assert not checks_run
    with pytest.raises(EnumerationCapExceeded):
        is_regular_semigroup(gens, 2)
    assert checks_run == ["regular"]


@pytest.mark.parametrize("checker", [is_regular_semigroup, has_zero])
def test_a_hit_claims_only_the_lookup_time(checker):
    gens = full_monoid(4)
    first = checker(gens)
    started = time.perf_counter()
    second = checker(gens)
    lookup = time.perf_counter() - started
    assert second is not first
    assert second.elapsed <= lookup
    assert dataclasses.replace(second, elapsed=first.elapsed) == first
    assert second.witness is first.witness
