from itertools import combinations

import pytest

from tsprops.core import GeneratorSet
from tsprops.image_orbit import image_orbit
from tsprops.reductions import InputDigraph, digraph_to_semigroup

from conftest import full_monoid


def check_consistent(orbit):
    assert all(orbit.index[a] == i for i, a in enumerate(orbit.images))
    assert len(orbit.index) == len(orbit.images)
    assert sorted(j for members in orbit.components for j in members) == \
        list(range(len(orbit.images)))
    for c, members in enumerate(orbit.components):
        assert members == sorted(members)
        assert all(orbit.component[j] == c for j in members)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_full_monoid_orbit_is_every_nonempty_subset(n):
    orbit = image_orbit(full_monoid(n))
    check_consistent(orbit)
    points = range(1, n + 1)
    assert len(orbit.images) == 2 ** n - 1
    assert set(orbit.images) == {frozenset(c) for r in range(1, n + 1)
                                 for c in combinations(points, r)}
    # one component per size, holding every subset of that size
    components = {frozenset(orbit.images[j] for j in members)
                  for members in orbit.components}
    assert components == {frozenset(frozenset(c) for c in combinations(points, r))
                          for r in range(1, n + 1)}


def test_cyclic_group_orbit_is_the_full_set():
    orbit = image_orbit(GeneratorSet.from_maps([(2, 3, 1)]))
    assert orbit.images == [frozenset({1, 2, 3})]
    assert orbit.component == [0]
    assert orbit.components == [[0]]


def test_nilpotent_digraph_reduction_has_singleton_components():
    acyclic = InputDigraph(5, ((1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (2, 5)))
    orbit = image_orbit(digraph_to_semigroup(acyclic))
    check_consistent(orbit)
    assert len(orbit.images) == 5  # {v, sink} for v = 2..5, and {sink}
    assert all(len(members) == 1 for members in orbit.components)

    # a 2-cycle puts the images {1, sink} and {2, sink} in one component
    cyclic = InputDigraph(2, ((1, 2), (2, 1)))
    orbit = image_orbit(digraph_to_semigroup(cyclic))
    check_consistent(orbit)
    pair = [orbit.index[frozenset({1, 3})], orbit.index[frozenset({2, 3})]]
    assert orbit.component[pair[0]] == orbit.component[pair[1]]


def test_long_chain_needs_no_recursion():
    # q -> q+1 with n fixed: the images {2..n}, {3..n}, ..., {n} form a chain
    # deeper than the interpreter's default recursion limit.
    n = 1500
    orbit = image_orbit(GeneratorSet.from_maps([tuple(range(2, n + 1)) + (n,)]))
    check_consistent(orbit)
    assert len(orbit.images) == n - 1
    assert all(len(members) == 1 for members in orbit.components)
    # Tarjan closes a component only after everything it reaches
    assert orbit.component[orbit.index[frozenset({n})]] == 0
