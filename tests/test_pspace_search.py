import json
import random

import pytest

from tsprops import cli

from tsprops.core import (
    GeneratorSet,
    Transformation,
    compose,
    idempotent_power_exponent,
    power,
    word_to_transformation,
)
from tsprops.crosscheck import exhaustive_generator_sets
from tsprops.errors import DegreeMismatchError, EnumerationCapExceeded
from tsprops.formats import render_generators
from tsprops.oracle import definitional_check, enumerate_semigroup
from tsprops.pspace_search import (
    canonical_weak_inverse,
    find_inverse,
    find_regularizer,
    find_weak_inverse,
    is_inverse_semigroup,
    is_regular,
    is_regular_semigroup,
    iter_elements,
)

from conftest import full_monoid

SIGMA = GeneratorSet.from_maps([(2, 3, 1)])
COLLAPSE = GeneratorSet.from_maps([(1, 1, 2)])


def rand_gens(rng, n_max=5, k_max=3):
    n = rng.randint(1, n_max)
    k = rng.randint(1, k_max)
    return GeneratorSet.from_maps(
        [tuple(rng.randint(1, n) for _ in range(n)) for _ in range(k)])


def test_iter_elements_canonical_order_and_words():
    elements = list(iter_elements(SIGMA))
    assert [t.map for t, _ in elements] == [(2, 3, 1), (3, 1, 2), (1, 2, 3)]
    assert [w for _, w in elements] == [(1,), (1, 1), (1, 1, 1)]
    for t, w in elements:
        assert word_to_transformation(SIGMA, w) == t
    # word lengths never decrease along the stream
    rng = random.Random(80)
    for _ in range(50):
        gens = rand_gens(rng, n_max=4)
        lengths = [len(w) for _, w in iter_elements(gens)]
        assert lengths == sorted(lengths)


def test_iter_elements_cap():
    # A cap of |S| yields every element; one less stops, and so does the
    # regularity search.
    for gens in (SIGMA, COLLAPSE, full_monoid(3)):
        size = len(enumerate_semigroup(gens))
        assert len(list(iter_elements(gens, cap=size))) == size
        with pytest.raises(EnumerationCapExceeded):
            list(iter_elements(gens, cap=size - 1))
        with pytest.raises(EnumerationCapExceeded) as exc:
            is_regular_semigroup(gens, cap=size - 1)
        assert exc.value.witness == {"kind": "enumeration-cap",
                                     "cap": size - 1}
        assert is_regular_semigroup(gens, cap=size).verdict.value in (
            "TRUE", "FALSE")


def test_find_inverse_of_sigma():
    t = SIGMA[0]
    hit = find_inverse(SIGMA, t)
    assert hit is not None
    inv, word = hit
    assert inv.map == (3, 1, 2)
    assert word == (1, 1)


def test_find_regularizer_none_case():
    s = COLLAPSE[0]
    assert find_regularizer(COLLAPSE, s) is None
    # yet a weak inverse of s exists inside <s>
    hit = find_weak_inverse(COLLAPSE, s)
    assert hit is not None
    t, _ = hit
    assert compose(compose(t, s), t) == t


@pytest.mark.parametrize("finder",
                         [find_regularizer, find_weak_inverse, find_inverse])
def test_find_functions_reject_target_of_other_degree(finder):
    with pytest.raises(DegreeMismatchError):
        finder(SIGMA, Transformation(2, (2, 1)))


def test_find_functions_replay_equations():
    rng = random.Random(81)
    for _ in range(200):
        gens = rand_gens(rng, n_max=4)
        s = gens[rng.randrange(len(gens))]
        reg = find_regularizer(gens, s)
        if reg is not None:
            t, word = reg
            assert compose(compose(s, t), s) == s
            assert word_to_transformation(gens, word) == t
        weak = find_weak_inverse(gens, s)
        assert weak is not None  # an in-semigroup target always has one
        t, word = weak
        assert compose(compose(t, s), t) == t
        assert word_to_transformation(gens, word) == t
        inv = find_inverse(gens, s)
        if inv is not None:
            t, word = inv
            assert compose(compose(s, t), s) == s
            assert compose(compose(t, s), t) == t
        # an inverse exists iff a regularizer does (take t s t for t regularizing)
        assert (inv is not None) == (reg is not None)
        # each is the first hit in canonical order
        elements = list(iter_elements(gens))

        def first(holds):
            return next(((t, w) for t, w in elements if holds(t)), None)

        def regularizes(t):
            return compose(compose(s, t), s) == s

        def weakly_inverts(t):
            return compose(compose(t, s), t) == t

        assert reg == first(regularizes)
        assert weak == first(weakly_inverts)
        assert inv == first(lambda t: regularizes(t) and weakly_inverts(t))


def test_canonical_weak_inverse_identity_and_exponent():
    # the documented small counterexample to using the plain idempotent
    # exponent minus one
    s = Transformation(3, (1, 1, 2))
    omega = idempotent_power_exponent(s)
    assert omega == 2
    assert compose(compose(s, s), s) != s          # s^(w-1)=s fails as inverse
    t, e = canonical_weak_inverse(s)
    assert e == 3
    assert t == power(s, 3)
    assert compose(compose(t, s), t) == t          # s^3 s s^3 = s^3

    rng = random.Random(82)
    for _ in range(500):
        n = rng.randint(1, 6)
        s = Transformation(n, tuple(rng.randint(1, n) for _ in range(n)))
        t, e = canonical_weak_inverse(s)
        assert e == 2 * idempotent_power_exponent(s) - 1
        assert compose(compose(t, s), t) == t


def test_is_regular_semigroup():
    assert is_regular_semigroup(SIGMA).verdict
    report = is_regular_semigroup(COLLAPSE)
    assert not report.verdict
    w = report.witness
    assert w["kind"] == "non-regular-element"
    assert w["element"]["map"] == [1, 1, 2]

    with pytest.raises(EnumerationCapExceeded) as exc:
        is_regular_semigroup(SIGMA, cap=2)
    assert exc.value.witness == {"kind": "enumeration-cap", "cap": 2}


def test_is_regular_against_oracle_random():
    rng = random.Random(83)
    for _ in range(200):
        gens = rand_gens(rng, n_max=4)
        structural = is_regular_semigroup(gens)
        oracle = definitional_check(enumerate_semigroup(gens), "regular")
        assert structural.verdict.value == oracle.verdict.value, gens


def test_is_inverse_semigroup():
    assert is_inverse_semigroup(SIGMA).verdict
    consts = GeneratorSet.from_maps([(1, 1, 1), (2, 2, 2)])
    report = is_inverse_semigroup(consts)
    assert not report.verdict  # regular, but idempotents do not commute
    assert not is_inverse_semigroup(COLLAPSE).verdict  # not even regular
    # Regularity is decided as structural ``regular`` decides it: the graph
    # route for a commutative set, whatever the cap, with its witness ...
    assert is_inverse_semigroup(SIGMA, cap=2).verdict
    assert (is_inverse_semigroup(COLLAPSE).witness
            == is_regular(COLLAPSE).witness
            == {"kind": "image-collapse", "p": 1, "q": 3, "u": 1, "v": 2,
                "word": [1]})
    # ... and the capped search of S for any other.
    s3 = GeneratorSet.from_maps([(2, 3, 1), (2, 1, 3)])
    assert is_inverse_semigroup(s3).verdict
    with pytest.raises(EnumerationCapExceeded) as exc:
        is_inverse_semigroup(s3, cap=2)
    assert exc.value.witness == {"kind": "enumeration-cap", "cap": 2}

    rng = random.Random(84)
    for _ in range(200):
        gens = rand_gens(rng, n_max=4)
        structural = is_inverse_semigroup(gens)
        oracle = definitional_check(enumerate_semigroup(gens),
                                    "inverse_semigroup")
        assert structural.verdict.value == oracle.verdict.value, gens


def all_pairs_regular(gens):
    """Reference: (verdict, witness) from the definition, trying every t in S
    for every s in canonical order, with S enumerated by ``compose``."""
    seen = set()
    elements = []
    for i, g in enumerate(gens, start=1):
        if g.map not in seen:
            seen.add(g.map)
            elements.append((g, (i,)))
    head = 0
    while head < len(elements):
        s, word = elements[head]
        head += 1
        for i, g in enumerate(gens, start=1):
            t = compose(s, g)
            if t.map not in seen:
                seen.add(t.map)
                elements.append((t, word + (i,)))
    maps = [t.map for t, _ in elements]
    n = gens.degree
    for s, word in elements:
        smap = s.map
        if not any(all(smap[tmap[smap[q] - 1] - 1] == smap[q] for q in range(n))
                   for tmap in maps):
            return "FALSE", {"kind": "non-regular-element",
                             "element": {"map": list(smap), "word": list(word)}}
    return "TRUE", None


def assert_matches_all_pairs(gens):
    report = is_regular_semigroup(gens)
    assert (report.verdict.value, report.witness) == all_pairs_regular(gens), gens


def test_is_regular_matches_all_pairs_exhaustive():
    # every set of degree 1-2 with up to three generators, and of degree 3
    # with up to two: 843 sets
    count = 0
    for n, k_max in ((1, 3), (2, 3), (3, 2)):
        for gens in exhaustive_generator_sets(n, k_max):
            assert_matches_all_pairs(gens)
            count += 1
    assert count == 843


def test_is_regular_matches_all_pairs_seeded():
    # The reference takes about half a minute on a set as large as T6, which
    # test_full_monoid_6_regular_not_inverse covers; sets past 10 000
    # elements are drawn again.
    rng = random.Random(85)
    compared = 0
    while compared < 300:
        gens = rand_gens(rng, n_max=6)
        try:
            report = is_regular_semigroup(gens, cap=10_000)
        except EnumerationCapExceeded:
            continue
        assert (report.verdict.value, report.witness) == \
            all_pairs_regular(gens), gens
        compared += 1


@pytest.mark.parametrize("n", [3, 4, 5])
def test_is_regular_matches_all_pairs_full_monoid(n):
    assert_matches_all_pairs(full_monoid(n))


def test_full_monoid_6_regular_not_inverse():
    t6 = full_monoid(6)
    assert is_regular_semigroup(t6).verdict.value == "TRUE"
    assert is_inverse_semigroup(t6).verdict.value == "FALSE"


def test_full_monoid_7_past_default_cap_is_undecided(tmp_path, capsys,
                                                     monkeypatch):
    t7 = full_monoid(7)  # 823 543 elements
    cap_witness = {"kind": "enumeration-cap", "cap": 200_000}
    for check in (is_regular_semigroup, is_inverse_semigroup):
        with pytest.raises(EnumerationCapExceeded) as exc:
            check(t7)
        assert exc.value.witness == cap_witness
    # The command line reports the limit as UNDECIDED with that witness.
    monkeypatch.delenv("TSPROPS_CAP", raising=False)
    path = tmp_path / "t7.txt"
    path.write_text(render_generators(t7))
    for prop in ("regular", "inverse"):
        assert cli.main(["check", str(path), "--property", prop,
                         "--json"]) == 4
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "UNDECIDED"
        assert report["witness"] == cap_witness
