import dataclasses
import json
from itertools import product

from tsprops.core import GeneratorSet, Transformation
from tsprops.crosscheck import (
    check_instance,
    exhaustive_generator_sets,
    run_sweep,
    seeded_instances,
)
from tsprops.properties import REGISTRY
from tsprops.report import ReportBuilder

PAIRED_PROPERTIES = tuple(name for name, routes in REGISTRY.items()
                          if routes.structural is not None)


def gen_set(*maps):
    n = len(maps[0])
    return GeneratorSet(n, tuple(Transformation(n, m) for m in maps))


def test_exhaustive_generator_sets_counts_and_order():
    sets = list(exhaustive_generator_sets(2, 2))
    assert len(sets) == 4 + 16
    assert all(g.degree == 2 for g in sets)
    assert [len(g) for g in sets] == [1] * 4 + [2] * 16
    # ordered tuples: duplicates like (m, m) are distinct instances
    assert sets[0][0].map == (1, 1)
    assert sets[4][0].map == (1, 1) and sets[4][1].map == (1, 1)
    # no dedup across positions
    maps_seen = {tuple(t.map for t in g) for g in sets}
    assert len(maps_seen) == 20
    # single maps come in lexicographic order
    assert [g[0].map for g in exhaustive_generator_sets(1, 1)] == [(1,)]
    assert [g[0].map for g in sets[:4]] == [(1, 1), (1, 2), (2, 1), (2, 2)]
    threes = list(exhaustive_generator_sets(3, 1))
    assert len(threes) == 27
    assert threes[0][0].map == (1, 1, 1) and threes[-1][0].map == (3, 3, 3)
    # k-tuples in lexicographic order of their maps, one map at a time
    for n, k in product((1, 2, 3), (1, 2)):
        maps = list(product(range(1, n + 1), repeat=n))
        expected = [combo for j in range(1, k + 1)
                    for combo in product(maps, repeat=j)]
        assert [tuple(t.map for t in g)
                for g in exhaustive_generator_sets(n, k)] == expected


def test_seeded_instances_reproducible():
    a = [tuple(t.map for t in g) for g in seeded_instances(7, 50, 4, 3)]
    b = [tuple(t.map for t in g) for g in seeded_instances(7, 50, 4, 3)]
    c = [tuple(t.map for t in g) for g in seeded_instances(8, 50, 4, 3)]
    assert a == b
    assert a != c
    for g in seeded_instances(7, 50, 4, 3):
        assert 1 <= g.degree <= 4
        assert 1 <= len(g) <= 3


def test_check_instance_known_agreement():
    res = check_instance(gen_set((2, 3, 1)))
    assert res.ok and res.mismatches == []
    assert res.element_count == 3
    assert set(res.verdicts) == set(PAIRED_PROPERTIES)
    assert {"regular", "inverse"} <= set(res.verdicts)
    assert res.verdicts["group"] == {"structural": "TRUE", "oracle": "TRUE"}
    assert res.verdicts["commutative"]["oracle"] == "TRUE"
    assert res.verdicts["nilpotent"]["structural"] == "FALSE"
    assert res.reports == []  # not collected unless asked

    collected = check_instance(gen_set((2, 3, 1)), collect_reports=True)
    assert len(collected.reports) == 2 * len(PAIRED_PROPERTIES)
    engines = {r.engine for r in collected.reports}
    assert engines == {"structural", "oracle"}


def test_check_instance_property_filter():
    res = check_instance(gen_set((1, 1, 2)), properties=["zero", "nilpotent"])
    assert set(res.verdicts) == {"zero", "nilpotent"}
    assert res.verdicts["zero"]["oracle"] == "TRUE"


def test_check_instance_flags_engine_disagreement(monkeypatch):
    def liar(gens, cap):
        rb = ReportBuilder("commutative", gens, "structural")
        return rb.false({"kind": "non-commuting", "first": 1, "second": 1,
                         "point": 1, "point_images": [1, 1]})

    monkeypatch.setitem(REGISTRY, "commutative",
                        REGISTRY["commutative"]._replace(structural=liar))
    res = check_instance(gen_set((2, 3, 1)))
    assert not res.ok
    assert res.mismatches == ["commutative"]
    assert res.verdicts["commutative"] == {"structural": "FALSE",
                                           "oracle": "TRUE"}


def test_identity_sets_compared_as_sets_not_booleans(monkeypatch):
    consts = gen_set((1, 1, 1), (2, 2, 2))
    assert check_instance(consts).ok

    real = REGISTRY["left-identities"].structural

    def partial(gens, cap):
        # drop one identity; the verdict is unchanged
        report = real(gens, cap)
        witness = dict(report.witness,
                       identities=report.witness["identities"][:1])
        return dataclasses.replace(report, witness=witness)

    monkeypatch.setitem(REGISTRY, "left-identities",
                        REGISTRY["left-identities"]._replace(
                            structural=partial))
    res = check_instance(consts)
    assert "left-identities" in res.mismatches
    # both engines still report TRUE: only the set comparison catches the lie
    assert res.verdicts["left-identities"] == {"structural": "TRUE",
                                               "oracle": "TRUE"}


def test_run_sweep_summary_shape_and_determinism():
    stream = lambda: exhaustive_generator_sets(2, 1)
    first = run_sweep(stream())
    second = run_sweep(stream())
    assert first == second  # no timing or other nondeterminism in the summary
    assert first["instances"] == 4
    assert first["disagreements"] == 0 and first["mismatches"] == []
    assert first["largest_semigroup"] == 2  # <(2,1)> = {swap, id}
    for prop in PAIRED_PROPERTIES:
        counts = first["verdict_counts"][prop]
        assert sum(counts.values()) == 4
    json.dumps(first, sort_keys=True)  # JSON-ready throughout


def test_run_sweep_records_mismatch_details(monkeypatch):
    def liar(gens, cap):
        rb = ReportBuilder("zero", gens, "structural")
        return rb.true(None)

    monkeypatch.setitem(REGISTRY, "zero",
                        REGISTRY["zero"]._replace(structural=liar))
    summary = run_sweep([gen_set((2, 3, 1))])
    assert summary["disagreements"] == 1
    rec = summary["mismatches"][0]
    assert rec["property"] == "zero"
    assert rec["structural"] == "TRUE" and rec["oracle"] == "FALSE"
    assert rec["generators"].startswith("3\n")
    assert len(rec["digest"]) == 16
