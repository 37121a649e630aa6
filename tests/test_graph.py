import random

import pytest

from tsprops import graph
from tsprops.core import GeneratorSet, apply_word
from tsprops.errors import StateBudgetExceeded
from tsprops.graph import (
    Digraph,
    closure,
    has_cycle,
    multi_tuple_reachability,
    reach_set,
    strong_components,
    transformation_graph,
    tuple_reachability,
    tuple_successors,
    undirected_components,
)


def test_digraph_normalisation():
    g = Digraph((3, 1, 2), ((2, 1), (1, 2), (2, 1)))
    assert g.vertices == (1, 2, 3)
    assert g.edges == ((1, 2), (2, 1))
    with pytest.raises(ValueError):
        Digraph((1, 2), ((1, 3),))


def test_transformation_graph():
    gens = GeneratorSet.from_maps([(2, 2, 1), (3, 3, 3)])
    g = transformation_graph(gens)
    assert g.edges == ((1, 2), (1, 3), (2, 2), (2, 3), (3, 1), (3, 3))
    # induced subgraph drops crossing edges entirely
    sub = transformation_graph(gens, restrict=[1, 2])
    assert sub.vertices == (1, 2)
    assert sub.edges == ((1, 2), (2, 2))
    with pytest.raises(ValueError):
        transformation_graph(gens, restrict=[0])


def test_undirected_components():
    g = Digraph((1, 2, 3, 4, 5), ((1, 2), (4, 3)))
    assert undirected_components(g) == [(1, 2), (3, 4), (5,)]


def test_has_cycle_strict_vs_tolerant():
    loop = Digraph((1, 2), ((1, 1), (1, 2)))
    assert has_cycle(loop, ignore_self_loops=False) == (True, (1, 1))
    assert has_cycle(loop, ignore_self_loops=True) == (False, None)

    two = Digraph((1, 2, 3), ((1, 2), (2, 1)))
    found, cycle = has_cycle(two, ignore_self_loops=True)
    assert found
    # the witness walks existing edges and closes up
    assert cycle[0] == cycle[-1]
    edges = set(two.edges)
    for a, b in zip(cycle, cycle[1:]):
        assert (a, b) in edges

    dag = Digraph((1, 2, 3, 4), ((1, 2), (1, 3), (2, 4), (3, 4)))
    assert has_cycle(dag, ignore_self_loops=False) == (False, None)


def test_has_cycle_random_consistency():
    # a digraph is acyclic (strictly) iff its vertices admit a topological order
    rng = random.Random(10)
    for _ in range(200):
        n = rng.randint(1, 6)
        all_edges = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)]
        edges = tuple(e for e in all_edges if rng.random() < 0.25)
        g = Digraph(tuple(range(1, n + 1)), edges)
        found, cycle = has_cycle(g, ignore_self_loops=False)
        # Kahn's algorithm as the independent judge
        succ = g.successors()
        indeg = {v: 0 for v in g.vertices}
        for u, v in g.edges:
            indeg[v] += 1
        ready = [v for v in g.vertices if indeg[v] == 0]
        removed = 0
        while ready:
            v = ready.pop()
            removed += 1
            for w in succ[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    ready.append(w)
        assert found == (removed < len(g.vertices))
        if found:
            assert cycle[0] == cycle[-1] and len(cycle) >= 2
            for a, b in zip(cycle, cycle[1:]):
                assert (a, b) in set(g.edges)


def test_tuple_reachability_shortest_and_min_length():
    # single point: shortest word from 1 to 3 under a 3-cycle is two steps
    gens = GeneratorSet.from_maps([(2, 3, 1)])
    assert tuple_reachability(gens, (1,), [(3,)]) == (1, 1)
    # words are nonempty: a full loop even when start is already a target
    assert tuple_reachability(gens, (1,), [(1,)]) == (1, 1, 1)
    # unreachable
    gens2 = GeneratorSet.from_maps([(1, 1, 1)])
    assert tuple_reachability(gens2, (1,), [(2,)]) is None


def test_tuple_reachability_lexicographic_tie_break():
    # both generators reach the target in one step; generator 1 must win
    a = (2, 2)
    b = (2, 1)
    gens = GeneratorSet.from_maps([a, b])
    assert tuple_reachability(gens, (1,), [(2,)]) == (1,)
    # swapped order, the new generator 1 still wins
    gens_sw = GeneratorSet.from_maps([b, a])
    assert tuple_reachability(gens_sw, (1,), [(2,)]) == (1,)


def test_tuple_reachability_callable_targets_and_pairs():
    gens = GeneratorSet.from_maps([(2, 3, 1), (1, 1, 2)])
    word = tuple_reachability(gens, (1, 2), lambda t: t[0] == t[1])
    assert word is not None
    assert apply_word(gens, 1, word) == apply_word(gens, 2, word)
    # replay: the word is genuinely shortest
    for length in range(1, len(word)):
        for cand in _words(len(gens), length):
            assert apply_word(gens, 1, cand) != apply_word(gens, 2, cand)


def _words(k, length):
    if length == 0:
        yield ()
        return
    for rest in _words(k, length - 1):
        for c in range(1, k + 1):
            yield rest + (c,)


def test_multi_source_prefers_earliest_source():
    gens = GeneratorSet.from_maps([(2, 3, 3)])
    hit = multi_tuple_reachability(gens, [(2,), (1,)], [(3,)])
    assert hit == ((2,), (1,))  # source (2,) reaches in one step


def test_reachability_random_replay():
    rng = random.Random(11)
    for _ in range(150):
        n = rng.randint(2, 5)
        k = rng.randint(1, 3)
        gens = GeneratorSet.from_maps(
            [tuple(rng.randint(1, n) for _ in range(n)) for _ in range(k)])
        d = rng.randint(1, 3)
        start = tuple(rng.randint(1, n) for _ in range(d))
        target = tuple(rng.randint(1, n) for _ in range(d))
        word = tuple_reachability(gens, start, [target])
        if word is None:
            # brute force small words to confirm unreachability
            for length in range(1, 8):
                for cand in _words(k, length):
                    assert tuple(
                        apply_word(gens, q, cand) for q in start) != target
        else:
            assert len(word) >= 1
            assert tuple(apply_word(gens, q, word) for q in start) == target


def test_state_budget(monkeypatch):
    gens = GeneratorSet.from_maps([(2, 3, 1)])
    monkeypatch.setattr(graph, "STATE_BUDGET", 8)
    with pytest.raises(StateBudgetExceeded):
        multi_tuple_reachability(gens, [(1, 1, 1)], [(2, 2, 2)])
    monkeypatch.setattr(graph, "STATE_BUDGET", 27)
    assert multi_tuple_reachability(gens, [(1, 1, 1)], [(2, 2, 2)]) == (
        (1, 1, 1), (1,))


def _elements(gens):
    """Every element of the semigroup as a map tuple: the generators closed
    under right multiplication by each generator."""
    maps = [g.map for g in gens.generators]
    seen = set(maps)
    frontier = list(seen)
    while frontier:
        fresh = []
        for s in frontier:
            for g in maps:
                t = tuple(g[q - 1] for q in s)
                if t not in seen:
                    seen.add(t)
                    fresh.append(t)
        frontier = fresh
    return seen


def _orbit(gens, t):
    return {tuple(s[q - 1] for q in t) for s in _elements(gens)}


def test_reach_set_is_the_orbit_under_the_semigroup():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(1, 5)
        k = rng.randint(1, 3)
        gens = GeneratorSet.from_maps(
            [tuple(rng.randint(1, n) for _ in range(n)) for _ in range(k)])
        t = tuple(rng.randint(1, n) for _ in range(rng.randint(1, 4)))
        assert reach_set(t, tuple_successors(gens)) == _orbit(gens, t), (
            gens, t)


def test_reach_set_in_a_space_of_millions():
    # 40**4 = 2 560 000 tuples of dimension 4, but S = <40-cycle, q -> 1 +
    # (q-1) mod 4> has 200 elements, so the orbit is small.
    n = 40
    gens = GeneratorSet.from_maps([
        tuple(list(range(2, n + 1)) + [1]),
        tuple(1 + (q - 1) % 4 for q in range(1, n + 1)),
    ])
    assert len(_elements(gens)) == 200
    t = (1, 2, 7, 40)
    orbit = reach_set(t, tuple_successors(gens))
    assert orbit == _orbit(gens, t)
    assert t in orbit  # the cycle returns every tuple to itself


def _random_digraph(rng, n):
    """Successor lists on 0..n-1 with self-loops, repeated edges and
    vertices without successors among them."""
    succ = []
    for v in range(n):
        row = [rng.randrange(n) for _ in range(rng.choice((0, 0, 1, 2, 3)))]
        if row and rng.random() < 0.2:
            row.append(row[0])          # a repeated edge
        if rng.random() < 0.15:
            row.append(v)               # a self-loop
        succ.append(row)
    return succ


def _reachable(succ):
    """reach[v]: every vertex with a path of length >= 0 from v."""
    reach = []
    for v in range(len(succ)):
        seen = {v}
        frontier = [v]
        while frontier:
            frontier = [w for u in frontier for w in succ[u] if w not in seen]
            seen.update(frontier)
        reach.append(seen)
    return reach


def test_strong_components_match_mutual_reachability():
    rng = random.Random(1972)
    sizes = [0, 1, 2] + [rng.randint(1, 14) for _ in range(300)]
    for n in sizes:
        succ = _random_digraph(rng, n)
        component, components = strong_components(succ)
        reach = _reachable(succ)
        assert len(component) == n
        assert sorted(v for comp in components for v in comp) == list(range(n))
        for c, comp in enumerate(components):
            assert comp == sorted(comp) and comp
            assert all(component[v] == c for v in comp)
        for v in range(n):
            for w in range(n):
                mutual = w in reach[v] and v in reach[w]
                assert (component[v] == component[w]) == mutual, (succ, v, w)
            for w in succ[v]:
                assert component[w] <= component[v], (succ, v, w)


def test_closure_includes_its_seeds_and_matches_reachability():
    rng = random.Random(1973)
    for _ in range(300):
        n = rng.randint(1, 12)
        succ = _random_digraph(rng, n)
        reach = _reachable(succ)
        seeds = rng.sample(range(n), rng.randint(0, min(n, 3)))
        want = set().union(*(reach[v] for v in seeds))
        got = closure(seeds, succ.__getitem__)
        assert got == want and set(seeds) <= got, (succ, seeds)
    assert closure([], succ.__getitem__) == set()
