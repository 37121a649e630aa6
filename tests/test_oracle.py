import json
import random
import tracemalloc
from collections import Counter
from itertools import product

import numpy as np
import pytest

from conftest import full_monoid
from tsprops import oracle
from tsprops.crosscheck import exhaustive_generator_sets
from tsprops.core import (
    GeneratorSet,
    Transformation,
    compose,
    word_to_transformation,
)
from tsprops.errors import (
    EnumerationCapExceeded,
    StateBudgetExceeded,
    UnknownPropertyError,
)
from tsprops.identity_engine import PRESETS, parse_quasi_identity
from tsprops.oracle import (
    PROPERTIES,
    definitional_check,
    enumerate_semigroup,
    left_identity_indices,
    models_by_enumeration,
    nilpotency_degree,
    right_identity_indices,
    set_powers,
    weak_inverse_exponent_check,
    zero_index,
)
from tsprops.report import Verdict
from tsprops.witnesses import verify_witness

SIGMA = GeneratorSet.from_maps([(2, 3, 1)])
CONSTS = GeneratorSet.from_maps([(1, 1, 1), (2, 2, 2)])
COLLAPSE = GeneratorSet.from_maps([(1, 1, 2)])


def rand_gens(rng, n_max=4, k_max=3):
    n = rng.randint(1, n_max)
    k = rng.randint(1, k_max)
    return GeneratorSet.from_maps(
        [tuple(rng.randint(1, n) for _ in range(n)) for _ in range(k)])


def test_enumerate_sizes_of_known_semigroups():
    assert len(enumerate_semigroup(GeneratorSet.from_maps([(1, 1)]))) == 1
    assert len(enumerate_semigroup(SIGMA)) == 3      # {s, s^2, id}
    assert len(enumerate_semigroup(CONSTS)) == 2
    assert len(enumerate_semigroup(COLLAPSE)) == 2   # {s, s^2}, s^3 = s^2
    # the full transformation monoid on 3 points from its classic generators
    t3 = GeneratorSet.from_maps([(2, 3, 1), (2, 1, 3), (1, 1, 3)])
    assert len(enumerate_semigroup(t3)) == 27


def test_enumerate_duplicate_generators_collapse():
    gens = GeneratorSet.from_maps([(2, 3, 1), (2, 3, 1)])
    table = enumerate_semigroup(gens)
    assert len(table) == 3


def test_element_table_words_are_canonical():
    # the canonical word of each element is the first word in
    # (length, lexicographic) order that evaluates to it
    rng = random.Random(30)
    for _ in range(40):
        gens = rand_gens(rng, n_max=3, k_max=3)
        table = enumerate_semigroup(gens)
        k = len(gens)
        first_word = {}
        frontier = [()]
        while len(first_word) < len(table):
            nxt = []
            for w in frontier:
                for c in range(1, k + 1):
                    word = w + (c,)
                    t = word_to_transformation(gens, word)
                    if t.map not in first_word:
                        first_word[t.map] = word
                    nxt.append(word)
            frontier = nxt
        for i in range(len(table)):
            t = table.element(i)
            assert table.word(i) == first_word[t.map]
            assert word_to_transformation(gens, table.word(i)) == t
            assert table.index_of(t) == i
    assert table.index_of(Transformation(gens.degree,
                                         tuple([1] * gens.degree))) in (
        None, *range(len(table)))


def test_succ_table_consistency():
    rng = random.Random(31)
    for _ in range(30):
        gens = rand_gens(rng)
        table = enumerate_semigroup(gens)
        for i in range(len(table)):
            for c in range(len(gens)):
                j = int(table.succ[i, c])
                assert table.element(j) == compose(table.element(i),
                                                   gens.generators[c])


def test_enumeration_cap():
    with pytest.raises(EnumerationCapExceeded) as e:
        enumerate_semigroup(SIGMA, cap=2)
    assert e.value.cap == 2
    # cap equal to the true size passes
    assert len(enumerate_semigroup(SIGMA, cap=3)) == 3


def test_enumeration_cap_boundary_on_random_sets():
    # The cap bounds every element, the generators included: two distinct
    # constants once made a table of 2 under cap 1.
    with pytest.raises(EnumerationCapExceeded):
        enumerate_semigroup(CONSTS, cap=1)
    rng = random.Random(32)
    tried = 0
    for _ in range(60):
        gens = rand_gens(rng)
        size = len(enumerate_semigroup(gens))
        if size < 2:
            continue
        assert len(enumerate_semigroup(gens, cap=size)) == size
        with pytest.raises(EnumerationCapExceeded) as e:
            enumerate_semigroup(gens, cap=size - 1)
        assert e.value.witness == {"kind": "enumeration-cap", "cap": size - 1}
        tried += 1
    assert tried > 30


def test_generator_rows_with_duplicate_generators():
    rng = random.Random(33)
    for _ in range(20):
        gens = rand_gens(rng)
        maps = [g.map for g in gens.generators]
        gens = GeneratorSet.from_maps(maps + maps[:1] + maps[::-1])
        table = enumerate_semigroup(gens)
        for c, g in enumerate(gens.generators):
            i = table.generator_indices[c]
            assert table.element(i) == g
            assert table.generator_arrays[c].tolist() == [q - 1 for q in g.map]
        assert table.generator_arrays.dtype == table.maps.dtype


def test_describe_reads_the_element():
    rng = random.Random(34)
    for _ in range(20):
        table = enumerate_semigroup(rand_gens(rng))
        for i in range(len(table)):
            assert table.describe(i)["map"] == list(table.element(i).map)
            assert table.describe(i)["map"] == (table.maps[i] + 1).tolist()


def test_zero_index():
    assert zero_index(enumerate_semigroup(CONSTS)) is None  # two right zeros
    table = enumerate_semigroup(COLLAPSE)
    z = zero_index(table)
    assert z is not None
    assert table.element(z).map == (1, 1, 1)
    # the identity-only semigroup: its sole element is a zero
    one = enumerate_semigroup(GeneratorSet.from_maps([(1, 2)]))
    assert zero_index(one) == 0


def test_identity_indices():
    table = enumerate_semigroup(SIGMA)
    ids = left_identity_indices(table)
    assert ids == right_identity_indices(table)
    assert len(ids) == 1
    assert table.element(ids[0]).map == (1, 2, 3)
    # in a right-zero band every element is a left identity and none a right
    table = enumerate_semigroup(CONSTS)
    assert left_identity_indices(table) == [0, 1]
    assert right_identity_indices(table) == []


def test_nilpotency_degree():
    assert nilpotency_degree(enumerate_semigroup(SIGMA)) is None
    assert nilpotency_degree(enumerate_semigroup(COLLAPSE)) == 2
    # an idempotent singleton is nilpotent of degree 1
    assert nilpotency_degree(
        enumerate_semigroup(GeneratorSet.from_maps([(1, 1, 3)]))) == 1
    # zero exists but a cycle persists: not nilpotent
    mixed = GeneratorSet.from_maps([(2, 1, 3), (3, 3, 3)])
    table = enumerate_semigroup(mixed)
    assert zero_index(table) is not None
    assert nilpotency_degree(table) is None
    # chain 3 -> 2 -> 1: degree equals the chain length
    chain = GeneratorSet.from_maps([(1, 1, 2)])
    assert nilpotency_degree(enumerate_semigroup(chain)) == 2


def test_set_powers_shrink_to_their_fixed_point():
    chain = enumerate_semigroup(GeneratorSet.from_maps([(1, 1, 2, 3)]))
    sizes = [int(power.sum()) for power in set_powers(chain)]
    assert sizes == [3, 2, 1]   # S, S^2, S^3 = {zero}
    mixed = enumerate_semigroup(GeneratorSet.from_maps([(2, 1, 3), (3, 3, 3)]))
    powers = list(set_powers(mixed))
    assert [int(p.sum()) for p in powers] == [len(mixed)]   # S^2 = S
    for gens in exhaustive_generator_sets(3, 1):
        table = enumerate_semigroup(gens)
        powers = list(set_powers(table))
        assert powers[0].all()
        for bigger, smaller in zip(powers, powers[1:]):
            assert (smaller <= bigger).all() and smaller.sum() < bigger.sum()
        products = {tuple(compose(table.element(i), table.element(j)).map)
                    for i in np.flatnonzero(powers[-1])
                    for j in range(len(table))}
        last = {tuple(table.element(int(i)).map)
                for i in np.flatnonzero(powers[-1])}
        assert products == last, gens   # S^(d+1) = S^d


def test_table_facts_are_computed_once(monkeypatch):
    # Every check, reader and replay takes the zero, identity and
    # stable-power facts from the table: four generator equations and one
    # chain of set powers per table, however often they are asked for.
    calls = Counter()
    for name in ("_generator_equation", "set_powers"):
        def counted(*args, _name=name, _original=getattr(oracle, name),
                    **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(oracle, name, counted)
    # A zero and a persisting swap: the nilpotent check ends in the stable
    # power, and its persistent-element witness replays from it.
    table = enumerate_semigroup(GeneratorSet.from_maps([(2, 1, 3), (3, 3, 3)]))
    for _ in range(2):
        for key in PROPERTIES:
            assert verify_witness(table.gens, definitional_check(table, key),
                                  table)
        zero_index(table), nilpotency_degree(table)
        left_identity_indices(table), right_identity_indices(table)
    assert calls == {"_generator_equation": 4, "set_powers": 1}


def test_definitional_verdicts_on_known_instances():
    expected = {
        (SIGMA, "group"): "TRUE",
        (SIGMA, "commutative"): "TRUE",
        (SIGMA, "band"): "FALSE",
        (SIGMA, "r_trivial"): "FALSE",
        (SIGMA, "aperiodic"): "FALSE",
        (SIGMA, "completely_regular"): "TRUE",
        (SIGMA, "clifford"): "TRUE",
        (SIGMA, "inverse_semigroup"): "TRUE",
        (SIGMA, "regular"): "TRUE",
        (SIGMA, "nilpotent"): "FALSE",
        (CONSTS, "right_zero_exists"): "TRUE",
        (CONSTS, "left_zero_exists"): "FALSE",
        (CONSTS, "zero_exists"): "FALSE",
        (CONSTS, "band"): "TRUE",
        (CONSTS, "commutative"): "FALSE",
        (CONSTS, "semilattice"): "FALSE",
        (CONSTS, "idempotents_commute"): "FALSE",
        (CONSTS, "orthodox"): "TRUE",
        (CONSTS, "completely_regular"): "TRUE",
        (CONSTS, "clifford"): "FALSE",
        (CONSTS, "aperiodic"): "TRUE",
        (CONSTS, "r_trivial"): "FALSE",
        (COLLAPSE, "nilpotent"): "TRUE",
        (COLLAPSE, "zero_exists"): "TRUE",
        (COLLAPSE, "aperiodic"): "TRUE",
        (COLLAPSE, "r_trivial"): "TRUE",
        (COLLAPSE, "regular"): "FALSE",
        (COLLAPSE, "completely_regular"): "FALSE",
        (COLLAPSE, "group"): "FALSE",
        (COLLAPSE, "commutative"): "TRUE",
    }
    for (gens, prop), verdict in expected.items():
        table = enumerate_semigroup(gens)
        report = definitional_check(table, prop)
        assert report.verdict.value == verdict, (prop, gens)
        assert report.engine == "oracle"
    with pytest.raises(UnknownPropertyError):
        definitional_check(enumerate_semigroup(SIGMA), "frobnicate")


def test_properties_registry():
    assert len(PROPERTIES) == 19
    for name in ("group", "nilpotent", "aperiodic", "left_identities"):
        assert name in PROPERTIES


def test_completely_regular_matches_commuting_inverse_definition():
    # cross-check the power shortcut against the order-free definition:
    # s lies in a subgroup iff some t satisfies s t s = s and s t = t s
    rng = random.Random(32)
    checked = 0
    while checked < 60:
        gens = rand_gens(rng)
        table = enumerate_semigroup(gens)
        if len(table) > 60:
            continue
        checked += 1
        elements = [table.element(i) for i in range(len(table))]
        explicit = all(
            any(compose(compose(s, t), s) == s and compose(s, t) == compose(t, s)
                for t in elements)
            for s in elements)
        verdict = definitional_check(table, "completely_regular").verdict.value
        assert verdict == ("TRUE" if explicit else "FALSE")


def test_regular_matches_elementwise_definition():
    rng = random.Random(33)
    checked = 0
    while checked < 60:
        gens = rand_gens(rng)
        table = enumerate_semigroup(gens)
        if len(table) > 60:
            continue
        checked += 1
        elements = [table.element(i) for i in range(len(table))]
        explicit = all(
            any(compose(compose(s, t), s) == s for t in elements)
            for s in elements)
        verdict = definitional_check(table, "regular").verdict.value
        assert verdict == ("TRUE" if explicit else "FALSE")


def test_inverse_semigroup_counts_inverses():
    # a group is an inverse semigroup; a right-zero band of 2 elements is not
    assert definitional_check(enumerate_semigroup(SIGMA),
                              "inverse_semigroup").verdict.value == "TRUE"
    report = definitional_check(enumerate_semigroup(CONSTS),
                                "inverse_semigroup")
    assert report.verdict.value == "FALSE"
    assert report.witness["kind"] == "inverse-count"
    assert report.witness["count"] == 2


def test_models_by_enumeration_frozen_example():
    table = enumerate_semigroup(CONSTS)
    ok, witness = models_by_enumeration(table, PRESETS["band"])
    assert ok and witness is None
    holds, witness = models_by_enumeration(
        table, parse_quasi_identity("x1 x2 = x2 x1"))
    assert not holds
    assert witness["kind"] == "assignment-counterexample"
    assert witness["identity"] == "x1 x2 = x2 x1"
    maps = [tuple(e["element"]["map"]) for e in witness["assignment"]]
    assert maps == [(1, 1, 1), (2, 2, 2)]


def test_models_by_enumeration_budget():
    table = enumerate_semigroup(CONSTS)
    with pytest.raises(StateBudgetExceeded):
        models_by_enumeration(table, PRESETS["band"], max_assignments=1)


def test_models_by_enumeration_bounds_the_product_table():
    # T3 has 27 elements: one variable gives 27 assignments, within the
    # budget, but the 27 x 27 product table is not.
    table = enumerate_semigroup(full_monoid(3))
    with pytest.raises(StateBudgetExceeded):
        models_by_enumeration(table, PRESETS["band"], max_assignments=100)


def test_models_by_enumeration_idempotent_pools():
    # central_idempotents constrains x1 to idempotents only: in <sigma> the
    # only idempotent is the identity, so the identity holds
    table = enumerate_semigroup(SIGMA)
    ok, _ = models_by_enumeration(table, PRESETS["central_idempotents"])
    assert ok
    # but plain commutativity of everything with everything also holds here
    ok, _ = models_by_enumeration(table, PRESETS["commuting_idempotents"])
    assert ok


def test_weak_inverse_exponent_bulk():
    for gens in (SIGMA, CONSTS, COLLAPSE):
        ok, bad = weak_inverse_exponent_check(enumerate_semigroup(gens))
        assert ok and bad is None
    rng = random.Random(34)
    for _ in range(40):
        table = enumerate_semigroup(rand_gens(rng))
        ok, bad = weak_inverse_exponent_check(table)
        assert ok, table.describe(bad)


def commuting_idempotents(k):
    """<e_1..e_k> on 2k points, e_i mapping 2i to 2i - 1: 2^k - 1 commuting
    idempotents and nothing else."""
    maps = []
    for i in range(1, k + 1):
        m = list(range(1, 2 * k + 1))
        m[2 * i - 1] = 2 * i - 1
        maps.append(tuple(m))
    return GeneratorSet.from_maps(maps)


def unblocked_first_pair(table, key):
    """The first failing pair of idempotents from the whole e x e x n table
    of pairwise products at once."""
    rows = table.maps[table.idempotent_indices]
    e = rows.shape[0]
    prods = rows[np.arange(e)[np.newaxis, :, np.newaxis], rows[:, np.newaxis, :]]
    if key == "idempotents_commute":
        bad = (prods != prods.swapaxes(0, 1)).any(axis=2)
    else:
        flat = prods.reshape(e * e, -1)
        square = np.take_along_axis(flat, flat, axis=1)
        bad = (square != flat).any(axis=1).reshape(e, e)
    hits = np.argwhere(bad)
    return tuple(int(x) for x in hits[0]) if hits.size else None


def test_pairwise_idempotent_checks_match_the_unblocked_table():
    rng = random.Random(35)
    sets = [g for n in (1, 2, 3) for g in exhaustive_generator_sets(n, 2)]
    sets += [rand_gens(rng, n_max=5) for _ in range(300)]
    sets += [commuting_idempotents(k) for k in range(1, 7)]
    multi_block = 0
    for gens in sets:
        table = enumerate_semigroup(gens)
        e = len(table.idempotent_indices)
        multi_block += e > len(table) // e
        for key, kind in (("idempotents_commute", "non-commuting-idempotents"),
                          ("orthodox", "non-idempotent-product")):
            report = definitional_check(table, key)
            pair = unblocked_first_pair(table, key)
            if pair is None:
                assert report.verdict.value == "TRUE", (gens, key)
                continue
            left, right = (table.describe(int(table.idempotent_indices[x]))
                           for x in pair)
            assert report.witness == {"kind": kind, "left": left,
                                      "right": right}, (gens, key)
    assert multi_block > 100


def test_pairwise_idempotent_checks_stay_within_a_few_tables():
    # 1023 elements, all idempotent: the unblocked products held
    # 1023 x 1023 x 20 entries, over 1500 times the table.
    table = enumerate_semigroup(commuting_idempotents(10))
    assert len(table) == len(table.idempotent_indices) == 1023
    for key in ("idempotents_commute", "orthodox", "clifford"):
        definitional_check(table, key)   # fill the table's cached arrays
        tracemalloc.start()
        try:
            report = definitional_check(table, key)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.verdict.value == "TRUE"
        assert peak < 16 * table.maps.nbytes, (key, peak)


def first_non_regular(table):
    """The oracle's ``regular`` as one gather per element: every t at once
    for each s in index order, stopping at the first s with no t."""
    maps = table.maps
    for i in range(len(table)):
        si = maps[i]
        sts = si[maps[:, si]]
        if (sts == si).all(axis=1).any():
            continue
        return Verdict.FALSE, {"kind": "non-regular-element",
                               "element": table.describe(i)}
    return Verdict.TRUE, None


# Its first non-regular element has index 160, in the eighth chunk of s
# (127..254), with regular elements before it in that chunk.
LATE_NON_REGULAR = GeneratorSet.from_maps([(5, 3, 1, 4, 2), (1, 4, 2, 2, 5)])


def test_regular_block_scan_matches_the_per_element_loop():
    rng = random.Random(36)
    sets = [full_monoid(4), full_monoid(5), LATE_NON_REGULAR,
            commuting_idempotents(10)]
    sets += [g for n in (1, 2, 3) for g in exhaustive_generator_sets(n, 2)]
    sets += [rand_gens(rng, n_max=5) for _ in range(100)]
    large = 0
    while large < 4:   # tables of a few thousand elements
        n = rng.randint(6, 7)
        gens = GeneratorSet.from_maps(
            [tuple(rng.randint(1, n) for _ in range(n)) for _ in range(2)])
        try:
            size = len(enumerate_semigroup(gens, cap=8000))
        except EnumerationCapExceeded:
            continue
        if size >= 1000:
            large += 1
            sets.append(gens)
    late = 0
    for gens in sets:
        table = enumerate_semigroup(gens)
        verdict, witness = first_non_regular(table)
        report = definitional_check(table, "regular")
        assert report.verdict is verdict, gens
        assert json.dumps(report.witness) == json.dumps(witness), gens
        late += witness is not None and table.index_of(
            Transformation(table.degree, tuple(witness["element"]["map"]))) >= 64
    assert late >= 1
