"""Canonical words from the parent-only search against a reference search
that records each tuple's (previous tuple, letter, source) explicitly.

``graph.search`` keeps only each tuple's parent, and ``graph.trace``
recomputes each letter as the first generator mapping the parent to the
child, and the source as the first source with a generator reaching the
path's first tuple.  The random sets below include repeated generators and
the identity map, where a later generator or source reaches the same tuple
as an earlier one and only the first may be named.
"""

import random
from collections import deque
from itertools import product

from tsprops.core import GeneratorSet, word_to_transformation
from tsprops.graph import multi_tuple_reachability
from tsprops.pspace_search import iter_elements


def reference_search(maps, sources):
    """Tuples in breadth-first order, and ``back[t] = (previous tuple or
    None, 1-indexed letter, source index)``."""
    back = {}
    order = []
    queue = deque()
    for si, s in enumerate(sources):
        for c, m in enumerate(maps, start=1):
            t = tuple(m[q - 1] for q in s)
            if t not in back:
                back[t] = (None, c, si)
                order.append(t)
                queue.append(t)
    while queue:
        cur = queue.popleft()
        for c, m in enumerate(maps, start=1):
            t = tuple(m[q - 1] for q in cur)
            if t not in back:
                back[t] = (cur, c, back[cur][2])
                order.append(t)
                queue.append(t)
    return order, back


def reference_word(back, t):
    word = []
    while t is not None:
        t, c, _ = back[t]
        word.append(c)
    return tuple(reversed(word))


def random_sets(seed, count):
    """Generator sets of degree <= 5 with <= 3 generators; about a third
    repeat a generator and about a third contain the identity map."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 5)
        k = rng.randint(1, 3)
        maps = [tuple(rng.randint(1, n) for _ in range(n)) for _ in range(k)]
        kind = rng.randrange(3)
        if kind == 1 and len(maps) < 3:
            maps.insert(rng.randint(0, len(maps)), rng.choice(maps))
        elif kind == 2:
            maps[rng.randrange(len(maps))] = tuple(range(1, n + 1))
        out.append(GeneratorSet.from_maps(maps))
    return out


SETS = random_sets(4801, 400)


def test_the_random_sets_cover_the_tie_cases():
    repeated = sum(len({g.map for g in gens}) < len(gens) for gens in SETS)
    identity = sum(any(g.map == tuple(range(1, gens.degree + 1)) for g in gens)
                   for gens in SETS)
    assert repeated > 50 and identity > 50


def test_iter_elements_order_and_words_match_the_reference():
    for gens in SETS:
        maps = [g.map for g in gens]
        order, back = reference_search(maps, [tuple(range(1, gens.degree + 1))])
        got = [(t.map, w) for t, w in iter_elements(gens)]
        assert got == [(t, reference_word(back, t)) for t in order], gens


def test_element_words_are_least_among_shortest():
    # Independent of both searches: run through every word in shortlex order
    # and keep the first word that gives each element.
    checked = 0
    for gens in SETS:
        elements = dict((t.map, w) for t, w in iter_elements(gens))
        longest = max(map(len, elements.values()))
        if len(gens) ** longest > 3000:
            continue
        first = {}
        for length in range(1, longest + 1):
            for word in product(range(1, len(gens) + 1), repeat=length):
                first.setdefault(word_to_transformation(gens, word).map, word)
        assert first == elements, gens
        checked += 1
    assert checked > 300


def test_reachability_hits_match_the_reference():
    rng = random.Random(4802)
    compared = 0
    for gens in SETS:
        n = gens.degree
        maps = [g.map for g in gens]
        d = rng.randint(1, 3)
        sources = sorted({tuple(rng.randint(1, n) for _ in range(d))
                          for _ in range(rng.randint(2, 4))})
        order, back = reference_search(maps, sources)
        tset = {tuple(rng.randint(1, n) for _ in range(d)) for _ in range(2)}
        for targets, is_target in (
                (tset, tset.__contains__),
                (lambda t: len(set(t)) < len(t) or t[0] == n,
                 lambda t: len(set(t)) < len(t) or t[0] == n)):
            hit = next((t for t in order if is_target(t)), None)
            expected = (None if hit is None else
                        (sources[back[hit][2]], reference_word(back, hit)))
            # The sources go in shuffled and repeated: the search sorts them.
            given = sources + [rng.choice(sources)]
            rng.shuffle(given)
            assert multi_tuple_reachability(gens, given, targets) == expected, (
                gens, sources, targets)
            compared += hit is not None
    assert compared > 300
