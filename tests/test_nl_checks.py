import random

import pytest

from tsprops.core import (GeneratorSet, apply_word, fixed_points,
                          word_to_transformation)
from tsprops.crosscheck import exhaustive_generator_sets
from tsprops.errors import PreconditionError
from tsprops.graph import transformation_graph
from tsprops.nl_checks import (
    has_left_zero,
    has_right_zero,
    has_zero,
    is_clifford,
    is_completely_regular,
    is_nilpotent,
    is_r_trivial,
    is_regular_commutative,
    nilpotency_degree_upper_bound,
)
from tsprops.oracle import (
    definitional_check,
    enumerate_semigroup,
    nilpotency_degree,
)
from tsprops.reductions import InputDigraph, digraph_to_semigroup

SIGMA = GeneratorSet.from_maps([(2, 3, 1)])
CONSTS = GeneratorSet.from_maps([(1, 1, 1), (2, 2, 2)])
COLLAPSE = GeneratorSet.from_maps([(1, 1, 2)])


def rand_gens(rng, n_max=5, k_max=3):
    n = rng.randint(1, n_max)
    k = rng.randint(1, k_max)
    return GeneratorSet.from_maps(
        [tuple(rng.randint(1, n) for _ in range(n)) for _ in range(k)])


def test_right_zero_frozen():
    assert has_right_zero(CONSTS).verdict
    report = has_right_zero(SIGMA)
    assert not report.verdict
    assert report.witness["kind"] == "non-collapsible-pair"
    p, q = report.witness["pair"]
    assert p != q


def test_left_zero_frozen():
    assert has_left_zero(COLLAPSE).verdict
    report = has_left_zero(SIGMA)
    assert not report.verdict
    assert report.witness["fixed_points"] == []
    # a fixed point exists but point 1 can never reach it
    gens = GeneratorSet.from_maps([(2, 1, 3)])
    report = has_left_zero(gens)
    assert not report.verdict
    assert report.witness["kind"] == "point-misses-fixed"
    assert report.witness["fixed_points"] == [3]


def test_zero_frozen():
    assert has_zero(COLLAPSE).verdict
    assert not has_zero(CONSTS).verdict   # two right zeros, no left zero
    assert not has_zero(SIGMA).verdict


def test_nilpotent_frozen():
    assert is_nilpotent(COLLAPSE).verdict
    # an idempotent non-identity singleton is nilpotent of degree 1
    assert is_nilpotent(GeneratorSet.from_maps([(1, 1, 3)])).verdict
    report = is_nilpotent(GeneratorSet.from_maps([(2, 1, 3), (3, 3, 3)]))
    assert not report.verdict
    assert report.witness["kind"] == "graph-cycle"
    cycle = report.witness["cycle"]
    assert cycle[0] == cycle[-1] and len(set(cycle)) >= 2


def test_nilpotency_degree_upper_bound():
    assert nilpotency_degree_upper_bound(COLLAPSE) == 2
    assert nilpotency_degree_upper_bound(GeneratorSet.from_maps([(1, 1, 3)])) == 1
    # chain of length 3: 4 -> 3 -> 2 -> 1
    chain = GeneratorSet.from_maps([(1, 1, 2, 3)])
    assert nilpotency_degree_upper_bound(chain) == 3
    assert nilpotency_degree(enumerate_semigroup(chain)) == 3
    with pytest.raises(PreconditionError):
        nilpotency_degree_upper_bound(SIGMA)


def reference_degree_bound(gens):
    """The longest-path bound by an explicit-stack depth-first search over
    the restricted graph, as ``nilpotency_degree_upper_bound`` once ran it."""
    fix = fixed_points(gens)
    restrict = [q for q in range(1, gens.degree + 1) if q not in fix]
    succ = transformation_graph(gens, restrict).successors()
    depth = {}
    for root in restrict:
        if root in depth:
            continue
        stack = [(root, False)]
        while stack:
            v, expanded = stack.pop()
            if expanded:
                depth[v] = 1 + max((depth[w] for w in succ[v]), default=-1)
                continue
            if v in depth:
                continue
            stack.append((v, True))
            for w in succ[v]:
                if w not in depth:
                    stack.append((w, False))
    return 1 + max(depth.values(), default=0)


def test_degree_bound_matches_the_depth_first_search():
    pool = [gens for n in (1, 2, 3) for gens in exhaustive_generator_sets(n, 2)]
    rng = random.Random(1121)
    for _ in range(40):
        n = rng.randint(2, 9)
        edges = {tuple(sorted(rng.sample(range(1, n + 1), 2)))
                 for _ in range(rng.randint(1, 2 * n))}
        pool.append(digraph_to_semigroup(InputDigraph(n, tuple(sorted(edges)))))
    nilpotent = [gens for gens in pool if is_nilpotent(gens).verdict]
    assert len(nilpotent) > 80
    for gens in nilpotent:
        assert (nilpotency_degree_upper_bound(gens)
                == reference_degree_bound(gens)), gens


def test_bound_dominates_exact_degree_random():
    rng = random.Random(50)
    found = 0
    for _ in range(2000):
        gens = rand_gens(rng, n_max=5, k_max=2)
        report = is_nilpotent(gens)
        if not report.verdict:
            continue
        found += 1
        exact = nilpotency_degree(enumerate_semigroup(gens))
        bound = nilpotency_degree_upper_bound(gens)
        assert exact is not None
        assert exact <= bound <= gens.degree
    assert found > 50  # the sweep actually exercised nilpotent instances


def test_r_trivial_frozen():
    assert is_r_trivial(COLLAPSE).verdict
    for gens in (SIGMA, CONSTS):
        report = is_r_trivial(gens)
        assert not report.verdict
        cycle = report.witness["cycle"]
        assert cycle[0] == cycle[-1] and len(set(cycle)) >= 2


def test_completely_regular_frozen():
    assert is_completely_regular(SIGMA).verdict
    assert is_completely_regular(CONSTS).verdict
    report = is_completely_regular(COLLAPSE)
    assert not report.verdict
    w = report.witness
    assert w["kind"] == "image-collapse"
    # replay the defining pattern
    word = tuple(w["word"])
    assert len(word) >= 1
    assert apply_word(COLLAPSE, w["p"], word) == w["u"]
    assert apply_word(COLLAPSE, w["q"], word) == w["v"]
    assert w["u"] != w["v"]
    assert apply_word(COLLAPSE, w["u"], word) == apply_word(COLLAPSE, w["v"], word)


def test_regular_commutative():
    assert is_regular_commutative(SIGMA).verdict
    assert not is_regular_commutative(COLLAPSE).verdict
    with pytest.raises(PreconditionError):
        is_regular_commutative(CONSTS)
    # property name stays 'regular' in the report
    assert is_regular_commutative(SIGMA).property == "regular"


def test_clifford_frozen():
    assert is_clifford(SIGMA).verdict
    r = is_clifford(CONSTS)
    assert not r.verdict  # completely regular but idempotents do not commute
    r = is_clifford(COLLAPSE)
    assert not r.verdict
    assert r.witness["kind"] == "image-collapse"


def test_all_against_oracle_random():
    pairs = (
        (has_left_zero, "left_zero_exists"),
        (has_right_zero, "right_zero_exists"),
        (has_zero, "zero_exists"),
        (is_nilpotent, "nilpotent"),
        (is_r_trivial, "r_trivial"),
        (is_completely_regular, "completely_regular"),
        (is_clifford, "clifford"),
    )
    rng = random.Random(51)
    for _ in range(250):
        gens = rand_gens(rng)
        table = enumerate_semigroup(gens)
        for structural, oracle_key in pairs:
            assert (structural(gens).verdict.value
                    == definitional_check(table, oracle_key).verdict.value), (
                gens, oracle_key)


def test_regular_commutative_against_oracle_random():
    rng = random.Random(52)
    checked = 0
    while checked < 150:
        gens = rand_gens(rng)
        from tsprops.fo_checks import is_commutative
        if not is_commutative(gens).verdict:
            continue
        checked += 1
        assert (is_regular_commutative(gens).verdict.value
                == definitional_check(enumerate_semigroup(gens),
                                      "regular").verdict.value), gens
