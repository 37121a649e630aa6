import random
import tracemalloc

import pytest

from tsprops import graph
from tsprops.core import (
    GeneratorSet,
    Transformation,
    compose,
    idempotent_power_exponent,
    is_idempotent,
    power,
    word_to_transformation,
)
from tsprops.errors import ParseError, StateBudgetExceeded
from tsprops.identity_engine import (
    PRESETS,
    QuasiIdentity,
    idempotents_central,
    idempotents_commute,
    is_band,
    is_orthodox,
    models,
    parse_quasi_identity,
)
from tsprops.oracle import (
    definitional_check,
    enumerate_semigroup,
    models_by_enumeration,
)
from tsprops.report import Verdict

CONSTS = GeneratorSet.from_maps([(1, 1, 1), (2, 2, 2)])
SIGMA = GeneratorSet.from_maps([(2, 3, 1)])


def rand_gens(rng, n_max=4, k_max=3):
    n = rng.randint(1, n_max)
    k = rng.randint(1, k_max)
    return GeneratorSet.from_maps(
        [tuple(rng.randint(1, n) for _ in range(n)) for _ in range(k)])


def test_parse_and_render():
    qid = parse_quasi_identity("x1 x2 = x2 x1")
    assert qid.lhs == (1, 2) and qid.rhs == (2, 1)
    assert qid.idempotent_vars == frozenset()
    assert qid.variables == 2
    assert qid.render() == "x1 x2 = x2 x1"

    qid = parse_quasi_identity("idem(x1, x3) => x1 x2 x3 = x2")
    assert qid.idempotent_vars == frozenset({1, 3})
    assert qid.variables == 3
    assert parse_quasi_identity(qid.render()) == qid


def test_parse_errors():
    for bad in ("", "x1", "x1 = ", "x1 == x2", "x1 = x2 = x3",
                "y1 = y1", "x10 = x10", "idem(z) => x1 = x1",
                "idem x1 => x1 = x1"):
        with pytest.raises(ParseError):
            parse_quasi_identity(bad)


def test_quasi_identity_validation():
    with pytest.raises(ValueError):
        QuasiIdentity(1, frozenset(), (), (1,))
    with pytest.raises(ValueError):
        QuasiIdentity(1, frozenset(), (2,), (1,))
    with pytest.raises(ValueError):
        QuasiIdentity(1, frozenset({2}), (1,), (1,))


def test_presets_registry():
    assert set(PRESETS) == {
        "band", "commuting_idempotents", "central_idempotents", "orthodox",
        "squares_are_left_zeros", "idempotents_left_neutral",
        "idempotents_right_neutral",
    }


def test_models_frozen_counterexample():
    report = models(CONSTS, parse_quasi_identity("x1 x2 = x2 x1"))
    assert not report.verdict
    w = report.witness
    assert w["kind"] == "quasi-identity-counterexample"
    assert w["boundary_left"] == [1, 1, 2]
    assert w["boundary_right"] == [1, 2, 1]
    assert [a["word"] for a in w["assignment"]] == [[1], [2]]


def test_models_forced_equal_is_true_without_search():
    # identical words on both sides: the union-find merges the end slots
    for text in ("x1 = x1", "x1 x2 = x1 x2", "x1 x1 x2 = x1 x1 x2"):
        assert models(CONSTS, parse_quasi_identity(text)).verdict
    # idem premise that restates itself
    assert models(CONSTS, parse_quasi_identity("idem(x1) => x1 x1 = x1")).verdict


def test_models_sigma_word_identity():
    # s^3 = id in <sigma>, so x1^3 x2 = x2 holds there
    assert models(SIGMA, parse_quasi_identity("x1 x1 x1 x2 = x2")).verdict
    # but not x1 x2 = x2
    report = models(SIGMA, parse_quasi_identity("x1 x2 = x2"))
    assert not report.verdict


def test_witness_substitution_replays():
    # replay each reported counterexample along its boundary trajectories
    rng = random.Random(60)
    texts = ("x1 x2 = x2 x1", "x1 x1 = x1", "idem(x1) => x1 x2 = x2",
             "x1 x2 x1 = x1", "idem(x1,x2) => x1 x2 = x2 x1")
    replayed = 0
    for _ in range(200):
        gens = rand_gens(rng)
        qid = parse_quasi_identity(rng.choice(texts))
        report = models(gens, qid)
        if report.verdict:
            continue
        replayed += 1
        w = report.witness
        subs = {}
        for entry in w["assignment"]:
            t = word_to_transformation(gens, tuple(entry["word"]))
            if entry["idempotent_substitution"]:
                t = power(t, idempotent_power_exponent(t))
            subs[entry["var"]] = t
        for v in qid.idempotent_vars:
            assert is_idempotent(subs[v])
        for side, boundary in ((qid.lhs, w["boundary_left"]),
                               (qid.rhs, w["boundary_right"])):
            assert len(boundary) == len(side) + 1
            for i, var in enumerate(side):
                assert subs[var].apply(boundary[i]) == boundary[i + 1]
        assert w["boundary_left"][0] == w["boundary_right"][0]
        assert w["boundary_left"][-1] != w["boundary_right"][-1]
    assert replayed > 40


def test_models_agrees_with_enumeration_random():
    rng = random.Random(61)
    texts = ("x1 x2 = x2 x1", "x1 x1 = x1", "x1 x2 x1 = x1",
             "idem(x1) => x1 x2 = x2", "idem(x2) => x1 x2 = x1",
             "x1 x1 x2 = x1 x1", "x1 = x2")
    for _ in range(250):
        gens = rand_gens(rng)
        qid = parse_quasi_identity(rng.choice(texts))
        structural = bool(models(gens, qid).verdict)
        brute, _ = models_by_enumeration(enumerate_semigroup(gens), qid)
        assert structural == brute, (gens, qid.render())


def test_models_budget(monkeypatch):
    gens = GeneratorSet.from_maps([(2, 3, 1), (1, 1, 2)])
    monkeypatch.setattr(graph, "STATE_BUDGET", 3)
    with pytest.raises(StateBudgetExceeded):
        models(gens, parse_quasi_identity("x1 x2 x3 = x3 x2 x1"))


def test_sugar_checkers_frozen():
    assert not is_band(SIGMA).verdict
    assert is_band(CONSTS).verdict
    assert is_band(GeneratorSet.from_maps([(1, 1, 3)])).verdict

    assert idempotents_commute(SIGMA).verdict
    assert not idempotents_commute(CONSTS).verdict

    assert idempotents_central(SIGMA).verdict
    assert not idempotents_central(CONSTS).verdict

    assert is_orthodox(CONSTS).verdict  # right-zero band: products idempotent
    assert is_orthodox(SIGMA).verdict   # single idempotent

    # property names are the command-line ones
    assert is_band(SIGMA).property == "band"
    assert idempotents_commute(SIGMA).property == "idempotents-commute"
    assert idempotents_central(SIGMA).property == "idempotents-central"
    assert is_orthodox(SIGMA).property == "orthodox"


def test_sugar_checkers_against_oracle_random():
    pairs = (
        (is_band, "band"),
        (idempotents_commute, "idempotents_commute"),
        (idempotents_central, "idempotents_central"),
        (is_orthodox, "orthodox"),
    )
    rng = random.Random(62)
    for _ in range(200):
        gens = rand_gens(rng)
        table = enumerate_semigroup(gens)
        for structural, oracle_key in pairs:
            assert (structural(gens).verdict.value
                    == definitional_check(table, oracle_key).verdict.value), (
                gens, oracle_key)


def test_unconstrained_variable_gets_placeholder_word():
    # x2 never occurs in the words; a counterexample must still assign it
    two = QuasiIdentity(2, frozenset(), (1, 1), (1,))
    report = models(SIGMA, two)
    assert not report.verdict
    assert len(report.witness["assignment"]) == 2


def test_semilattice_past_degree_11_in_bounded_memory():
    # <[1,1,3..12], [1..1]> is the two-element semilattice {e, 0}, so all
    # four presets hold.  The orbit caches hold only the tuples they reach,
    # far fewer than the 12**d tuples of each search's space.
    n = 12
    gens = GeneratorSet.from_maps([(1, 1, *range(3, n + 1)), (1,) * n])
    names = ("band", "commuting_idempotents", "central_idempotents",
             "orthodox")
    tracemalloc.start()
    try:
        verdicts = [models(gens, PRESETS[name]).verdict for name in names]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdicts == [Verdict.TRUE] * 4
    assert peak < 64 * 2**20, peak
