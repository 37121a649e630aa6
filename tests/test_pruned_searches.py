"""The pruned quasi-identity sweep and the (image, pair) completely-regular
search against reference copies of the exhaustive searches they replaced.

``reference_models`` is the full ``product`` sweep over every valuation of
the slot classes, and ``reference_completely_regular`` is the per-pair loop
of multi-source searches over point quadruples.  Both must give the same
report JSON (verdict and witness) and raise the same exceptions as the code
under test.
"""

import random
from itertools import product

import pytest

from tsprops.core import GeneratorSet, Transformation
from tsprops.crosscheck import exhaustive_generator_sets, seeded_instances
from tsprops.errors import StateBudgetExceeded
from tsprops import graph
from tsprops.graph import multi_tuple_reachability, reach_set, tuple_successors
from tsprops.identity_engine import (PRESETS, _UnionFind, _VariableSearch,
                                     models, parse_quasi_identity)
from tsprops import nl_checks
from tsprops.nl_checks import is_completely_regular
from tsprops.reductions import (DFA, InputDigraph, dfa_emptiness_to_zero,
                                digraph_to_semigroup)
from tsprops.report import ReportBuilder

USER_IDENTITIES = tuple(parse_quasi_identity(text) for text in (
    "x1 x2 = x2 x1",
    "x1 x2 x1 = x1",
    "idem(x2) => x1 x2 = x1",
    "x1 x1 x2 = x1 x2",
))
IDENTITIES = tuple(PRESETS.values()) + USER_IDENTITIES


def reference_models(gens, qid):
    """Every valuation of the slot classes, in lexicographic order."""
    rb = ReportBuilder("quasi-identity", gens, "structural")
    n = gens.degree
    l, r = len(qid.lhs), len(qid.rhs)
    slots = l + r + 2
    last_left, last_right = l, l + r + 1
    uf = _UnionFind(slots)
    uf.union(0, l + 1)
    occurrences = {i: [] for i in range(1, qid.variables + 1)}
    for j, letter in enumerate(qid.lhs):
        occurrences[letter].append((j, j + 1))
    for j, letter in enumerate(qid.rhs):
        occurrences[letter].append((l + 1 + j, l + 2 + j))
    for i in qid.idempotent_vars:
        occurrences[i].extend([(t, t) for _, t in occurrences[i]])
    changed = True
    while changed:
        changed = False
        for pairs in occurrences.values():
            first_target = {}
            for s, t in pairs:
                root = uf.find(s)
                if root in first_target:
                    changed |= uf.union(first_target[root], t)
                else:
                    first_target[root] = t
    if uf.find(last_left) == uf.find(last_right):
        return rb.true()
    roots = sorted({uf.find(s) for s in range(slots)})
    slot_class = [roots.index(uf.find(s)) for s in range(slots)]
    classes = len(roots)
    if n ** classes > graph.STATE_BUDGET:
        raise StateBudgetExceeded(n ** classes, graph.STATE_BUDGET)
    end_left, end_right = slot_class[last_left], slot_class[last_right]

    step = tuple_successors(gens)
    orbits = {}

    def orbit(src):
        if src not in orbits:
            orbits[src] = reach_set(src, step)
        return orbits[src]

    searches = {}
    for i in range(1, qid.variables + 1):
        pairs = sorted({(slot_class[s], slot_class[t])
                        for s, t in occurrences[i]})
        if pairs:
            searches[i] = _VariableSearch(gens, pairs, orbit)
    for valuation in product(range(1, n + 1), repeat=classes):
        if valuation[end_left] == valuation[end_right]:
            continue
        if all(s.feasible(valuation) for s in searches.values()):
            assignment = [{
                "var": i,
                "word": list(searches[i].witness_word(valuation)
                             if i in searches else (1,)),
                "idempotent_substitution": i in qid.idempotent_vars,
            } for i in range(1, qid.variables + 1)]
            return rb.false({
                "kind": "quasi-identity-counterexample",
                "identity": qid.render(),
                "boundary_left": [valuation[slot_class[s]]
                                  for s in range(0, l + 1)],
                "boundary_right": [valuation[slot_class[s]]
                                   for s in range(l + 1, slots)],
                "assignment": assignment,
                "note": ("constrained variables stand for the idempotent "
                         "power of the reported word's element"),
            })
    return rb.true()


def reference_completely_regular(gens):
    """One quadruple search per ordered pair (u, v), u != v."""
    rb = ReportBuilder("completely-regular", gens, "structural")
    points = range(1, gens.degree + 1)
    for u in points:
        for v in points:
            if u == v:
                continue
            sources = [(p, q, u, v) for p in points for q in points]
            hit = multi_tuple_reachability(
                gens, sources,
                lambda t: t[0] == u and t[1] == v and t[2] == t[3])
            if hit is not None:
                (p, q, _, _), word = hit
                return rb.false({"kind": "image-collapse", "p": p, "q": q,
                                 "u": u, "v": v, "word": list(word)})
    return rb.true()


def outcome(fn, *args):
    """The report JSON without timing, or the exception's type and args."""
    try:
        return fn(*args).to_json_dict(include_elapsed=False)
    except StateBudgetExceeded as exc:
        return type(exc).__name__, exc.args


def assert_same(gens, identities=IDENTITIES):
    for qid in identities:
        assert outcome(models, gens, qid) == outcome(reference_models, gens,
                                                     qid), (gens, qid.render())
    assert (outcome(is_completely_regular, gens)
            == outcome(reference_completely_regular, gens)), gens


def semilattice(n):
    return GeneratorSet.from_maps([(1, 1, *range(3, n + 1)), (1,) * n])


def commuting_idempotents(k):
    """<e_1..e_k> on 2k points, e_i mapping 2i to 2i - 1: 2^k - 1 elements,
    all idempotent and commuting, with as many images."""
    maps = []
    for i in range(1, k + 1):
        m = list(range(1, 2 * k + 1))
        m[2 * i - 1] = 2 * i - 1
        maps.append(tuple(m))
    return GeneratorSet.from_maps(maps)


def test_exhaustive_degree_3():
    sets = [gens for n in (1, 2, 3) for gens in exhaustive_generator_sets(n, 2)]
    assert len(sets) == 778
    for gens in sets:
        assert_same(gens)


def test_seeded_degree_6():
    for gens in seeded_instances(20261019, 300, 6, 3):
        assert_same(gens)


@pytest.mark.parametrize("n", range(8, 13))
def test_semilattice(n):
    assert_same(semilattice(n), tuple(PRESETS.values()))


def test_seeded_reductions():
    rng = random.Random(1205)
    states = 8
    letters = tuple(
        Transformation(states, tuple(rng.randint(1, states)
                                     for _ in range(states)))
        for _ in range(2))
    zero = dfa_emptiness_to_zero(DFA(states, 1, frozenset({states}), letters))
    edges = tuple(tuple(rng.sample(range(1, 9), 2)) for _ in range(10))
    digraph = digraph_to_semigroup(InputDigraph(8, edges))
    for gens in (zero, digraph):
        assert_same(gens, tuple(PRESETS.values()))


@pytest.mark.parametrize("k", range(1, 8))
def test_commuting_idempotent_family(k):
    gens = commuting_idempotents(k)
    assert is_completely_regular(gens).verdict
    assert_same(gens, tuple(PRESETS.values()) if k <= 4 else ())


def test_completely_regular_budget(monkeypatch):
    gens = GeneratorSet.from_maps([(2, 3, 1), (1, 1, 2)])
    monkeypatch.setattr(graph, "STATE_BUDGET", 10)
    with pytest.raises(StateBudgetExceeded):
        is_completely_regular(gens)
    assert outcome(is_completely_regular, gens) == outcome(
        reference_completely_regular, gens)


def point_semilattice(n):
    """<e_1..e_{n-1}>, e_i mapping i to n: 2^(n-1) images."""
    return [tuple(n if p == i else p for p in range(1, n + 1))
            for i in range(1, n)]


@pytest.mark.parametrize("extra, pairs", [
    ((), 78),
    (((1, 2, 3, 10, 5, 6, 7, 8, 9, 10, 11, 12, 13),
      (1, 2, 5, 4, 3, 6, 7, 8, 9, 5, 11, 12, 13)), 25),
])
def test_completely_regular_past_the_state_limit(monkeypatch, extra, pairs):
    # At degree 13 the images alone hold about 25 000 points, so every pair
    # state search passes n**4 = 28 561 and hands its pair to the quadruple
    # search: all 78 pairs of the semilattice, which is completely regular,
    # and with the two extra maps the 25 pairs up to (3, 5), whose witness
    # word has length 5.
    gens = GeneratorSet.from_maps(point_semilattice(13) + list(extra))
    searched = []

    def quadruple_search(gens, sources, *args, **kwargs):
        searched.append(sources[0][2:])
        return multi_tuple_reachability(gens, sources, *args, **kwargs)

    monkeypatch.setattr(nl_checks, "multi_tuple_reachability",
                        quadruple_search)
    assert (outcome(is_completely_regular, gens)
            == outcome(reference_completely_regular, gens))
    assert len(searched) == pairs
