"""The pruned and batched searches against reference copies of the
searches they replaced.

``reference_models`` is the full ``product`` sweep over every valuation of
the slot classes, with one orbit per source tuple, and
``reference_completely_regular`` is the per-pair loop of multi-source
searches over point quadruples.  ``reference_has_right_zero`` and
``reference_has_left_zero`` run one tuple search per pair of points and per
point, and ``reference_scc`` and ``reference_reach_from`` are the oracle's
Tarjan on numpy scalars and its breadth-first set products.  Each must give
the same report JSON (verdict and witness) and raise the same exceptions as
the code under test.
"""

import random
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from tsprops.core import GeneratorSet, Transformation, fixed_points
from tsprops.crosscheck import exhaustive_generator_sets, seeded_instances
from tsprops.errors import StateBudgetExceeded
from tsprops import graph, oracle
from tsprops.graph import (multi_tuple_reachability, reach_set,
                           transformation_graph, tuple_reachability,
                           tuple_successors, undirected_components)
from tsprops.identity_engine import (PRESETS, _UnionFind, _VariableSearch,
                                     models, parse_quasi_identity)
from tsprops import nl_checks
from tsprops.nl_checks import is_completely_regular
from tsprops.oracle import definitional_check, enumerate_semigroup
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

    transitions = {}
    searches = {}
    for i in range(1, qid.variables + 1):
        pairs = sorted({(slot_class[s], slot_class[t])
                        for s, t in occurrences[i]})
        if pairs:
            transitions[i] = pairs
            searches[i] = _VariableSearch(gens, pairs, orbit)

    def feasible(pairs, valuation):
        source = tuple(valuation[s] for s, _ in pairs)
        return tuple(valuation[t] for _, t in pairs) in orbit(source)

    for valuation in product(range(1, n + 1), repeat=classes):
        if valuation[end_left] == valuation[end_right]:
            continue
        if all(feasible(pairs, valuation) for pairs in transitions.values()):
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


def reference_has_right_zero(gens):
    """One ordered pair search per pair of points in a component."""
    rb = ReportBuilder("right-zero", gens, "structural")
    for comp in undirected_components(transformation_graph(gens)):
        for ai in range(len(comp)):
            for bi in range(ai + 1, len(comp)):
                p, q = comp[ai], comp[bi]
                if tuple_reachability(gens, (p, q),
                                      lambda t: t[0] == t[1]) is None:
                    return rb.false({"kind": "non-collapsible-pair",
                                     "pair": [p, q]})
    return rb.true()


def reference_has_left_zero(gens):
    """One point search per point."""
    rb = ReportBuilder("left-zero", gens, "structural")
    fix = fixed_points(gens)
    if not fix:
        return rb.false({"kind": "point-misses-fixed", "point": 1,
                         "fixed_points": []})
    for q in range(1, gens.degree + 1):
        if tuple_reachability(gens, (q,), {(f,) for f in fix}) is None:
            return rb.false({"kind": "point-misses-fixed", "point": q,
                             "fixed_points": sorted(fix)})
    return rb.true()


def reference_scc(succ):
    """Tarjan reading numpy scalars, iteratively, returning
    ``(component, components)`` with each component's members ascending."""
    succ = np.asarray(succ)
    m, k = succ.shape
    indices = np.full(m, -1, dtype=np.int64)
    low = np.zeros(m, dtype=np.int64)
    on_stack = np.zeros(m, dtype=bool)
    comp_stack = []
    comps = []
    counter = 0
    for root in range(m):
        if indices[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, ci = work[-1]
            if ci == 0:
                indices[v] = low[v] = counter
                counter += 1
                comp_stack.append(v)
                on_stack[v] = True
            advanced = False
            while ci < k:
                w = int(succ[v, ci])
                ci += 1
                if indices[w] == -1:
                    work[-1] = (v, ci)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], indices[w])
            if advanced:
                continue
            work.pop()
            if low[v] == indices[v]:
                comp = []
                while True:
                    w = comp_stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(sorted(comp))
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])
    component = [0] * m
    for c, comp in enumerate(comps):
        for v in comp:
            component[v] = c
    return component, comps


def reference_reach_from(table, mask):
    """Elements reachable from the masked set by >= 1 right multiplications,
    breadth-first."""
    visited = np.zeros(len(table), dtype=bool)
    frontier = np.unique(table.succ[np.flatnonzero(mask)])
    visited[frontier] = True
    while frontier.size:
        cand = np.unique(table.succ[frontier])
        new = cand[~visited[cand]]
        visited[new] = True
        frontier = new
    return visited


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


ZERO_CHECKS = ("has_right_zero", "has_left_zero", "has_zero", "is_nilpotent")


def batched_outcomes(gens):
    """The zero checks' reports, looked up on ``nl_checks`` at call time, and
    the oracle's ``r_trivial`` and ``nilpotent`` reports and nilpotency
    degree."""
    table = enumerate_semigroup(gens)
    return ([outcome(getattr(nl_checks, name), gens) for name in ZERO_CHECKS],
            [definitional_check(table, key).to_json_dict(include_elapsed=False)
             for key in ("r_trivial", "nilpotent")],
            oracle.nilpotency_degree(table))


def assert_same_batched(monkeypatch, pool):
    # The reference pass runs on fresh copies: the zero checks keep their
    # reports on the set, and a kept report would stand in for the
    # references below.
    pool = list(pool)
    got = [batched_outcomes(gens) for gens in pool]
    with monkeypatch.context() as patched:
        patched.setattr(nl_checks, "has_right_zero", reference_has_right_zero)
        patched.setattr(nl_checks, "has_left_zero", reference_has_left_zero)
        patched.setattr(oracle, "strong_components", reference_scc)
        patched.setattr(oracle, "times_generators", reference_reach_from)
        want = [batched_outcomes(replace(gens)) for gens in pool]
    for gens, a, b in zip(pool, got, want):
        assert a == b, gens


def seeded_reduction_outputs():
    """A seeded zero reduction and an acyclic and a cyclic digraph
    reduction, each on 8 states or vertices."""
    rng = random.Random(1307)
    out = []
    for _ in range(3):
        letters = tuple(Transformation(8, tuple(rng.randint(1, 8)
                                                for _ in range(8)))
                        for _ in range(2))
        out.append(dfa_emptiness_to_zero(DFA(8, 1, frozenset({8}), letters)))
    for _ in range(3):
        acyclic = [tuple(sorted(rng.sample(range(1, 9), 2)))
                   for _ in range(10)]
        cyclic = acyclic + [acyclic[0][::-1]]
        for edges in (acyclic, cyclic):
            out.append(digraph_to_semigroup(InputDigraph(8, tuple(edges))))
    return out


def test_batched_exhaustive_degree_3(monkeypatch):
    assert_same_batched(monkeypatch, (
        gens for n in (1, 2, 3) for gens in exhaustive_generator_sets(n, 2)))


def test_batched_seeded_degree_6(monkeypatch):
    assert_same_batched(monkeypatch, seeded_instances(20261019, 300, 6, 3))


def test_batched_seeded_reductions(monkeypatch):
    pool = seeded_reduction_outputs()
    verdicts = [batched_outcomes(gens)[0][2]["verdict"] for gens in pool]
    assert "TRUE" in verdicts and "FALSE" in verdicts
    assert_same_batched(monkeypatch, pool)


@pytest.mark.parametrize("maps, budget, raises", [
    ([(2, 3, 1), (1, 1, 2)], 8, "right"),   # one component of 3 points
    ([(1, 2, 3)], 8, None),                 # only singleton components
    ([(2, 1, 3), (1, 2, 3)], 8, "right"),   # a pair and a singleton
    ([(2, 3, 1), (1, 1, 2)], 9, None),      # 3² within the budget
    ([(1, 1, 3)], 2, "both"),               # 3 points past the budget too
    ([(2, 3, 1)], 2, "right"),              # no fixed point to search for
])
def test_zero_check_budgets(monkeypatch, maps, budget, raises):
    gens = GeneratorSet.from_maps(maps)
    monkeypatch.setattr(graph, "STATE_BUDGET", budget)
    for fn, reference, side in (
            (nl_checks.has_right_zero, reference_has_right_zero, "right"),
            (nl_checks.has_left_zero, reference_has_left_zero, "left")):
        got = outcome(fn, gens)
        assert got == outcome(reference, gens), side
        assert isinstance(got, tuple) == (raises in (side, "both")), side
