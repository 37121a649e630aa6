import random
from itertools import product

import pytest

from tsprops.core import GeneratorSet, Transformation, compose, word_to_transformation
from tsprops.errors import PreconditionError
from tsprops.nl_checks import has_zero, is_nilpotent, is_r_trivial
from tsprops.identity_engine import idempotents_central
from tsprops.oracle import definitional_check, enumerate_semigroup, zero_index
from tsprops.pspace_search import find_regularizer, find_weak_inverse
from tsprops.reductions import (
    DFA,
    InputDigraph,
    dfa_emptiness_to_nilpotent,
    dfa_emptiness_to_zero,
    dfa_intersection_to_regular,
    dfa_intersection_to_weak_inverse,
    digraph_to_semigroup,
)

from dfa_judges import dfa_intersection_nonempty, dfa_language_nonempty


def dfa_of(n, initial, finals, *letters):
    return DFA(n, initial, frozenset(finals),
               tuple(Transformation(n, m) for m in letters))


def rand_dfa(rng, n_max=3, k_max=2, finals="any"):
    n = rng.randint(1, n_max)
    k = rng.randint(1, k_max)
    letters = [tuple(rng.randint(1, n) for _ in range(n)) for _ in range(k)]
    if finals == "one":
        fin = {rng.randint(1, n)}
    else:
        fin = {q for q in range(1, n + 1) if rng.random() < 0.4}
    return dfa_of(n, rng.randint(1, n), fin, *letters)


def test_dfa_validation():
    with pytest.raises(ValueError):
        dfa_of(2, 3, {1}, (1, 2))
    with pytest.raises(ValueError):
        dfa_of(2, 1, {3}, (1, 2))
    with pytest.raises(ValueError):
        DFA(2, 1, frozenset({1}), (Transformation(3, (1, 2, 3)),))
    d = dfa_of(2, 1, {2}, (2, 2))
    assert d.letter_name(1) == "a1"
    named = DFA(2, 1, frozenset(), (Transformation(2, (1, 1)),), ("x",))
    assert named.letter_name(1) == "x"


def test_input_digraph_validation():
    g = InputDigraph(3, ((1, 2), (2, 3)))
    assert g.edges == ((1, 2), (2, 3))
    with pytest.raises(ValueError):
        InputDigraph(2, ((1, 3),))


def test_zero_reduction_structure():
    d = dfa_of(2, 1, {2}, (2, 2), (1, 1))
    gens = dfa_emptiness_to_zero(d)
    assert gens.degree == 3
    assert len(gens) == 4  # k letters + reset + sink
    assert gens.names == ("a1", "a2", "reset", "sink")
    assert gens[0].map == (2, 2, 3)
    assert gens[1].map == (1, 1, 3)
    assert gens[2].map == (1, 1, 3)   # reset
    assert gens[3].map == (1, 3, 3)   # sink


def test_zero_reduction_frozen_examples():
    # 1-state DFA accepting everything: the empty word is accepted, and
    # reset.sink is the constant onto the extra point
    d = dfa_of(1, 1, {1}, (1,))
    gens = dfa_emptiness_to_zero(d)
    assert gens.degree == 2
    bc = compose(gens[1], gens[2])  # reset then sink
    assert bc.map == (2, 2)
    assert has_zero(gens).verdict
    assert zero_index(enumerate_semigroup(gens)) is not None

    # L nonempty via one step
    gens = dfa_emptiness_to_zero(dfa_of(2, 1, {2}, (2, 2)))
    assert has_zero(gens).verdict

    # L empty: the letter never leaves state 1
    gens = dfa_emptiness_to_zero(dfa_of(2, 1, {2}, (1, 1)))
    assert not has_zero(gens).verdict
    assert zero_index(enumerate_semigroup(gens)) is None


def test_zero_reduction_left_right_zero_equivalence():
    # on reduction outputs with at least one final state: right zero and zero
    # coincide with language nonemptiness; a left zero additionally appears
    # when every letter fixes the initial state (the reset map then never gets
    # moved off its image, so it is itself a left zero)
    rng = random.Random(90)
    for _ in range(150):
        d = rand_dfa(rng)
        if not d.finals:
            continue
        gens = dfa_emptiness_to_zero(d)
        table = enumerate_semigroup(gens)
        nonempty = dfa_language_nonempty(d)
        for key in ("right_zero_exists", "zero_exists"):
            assert (definitional_check(table, key).verdict.value
                    == ("TRUE" if nonempty else "FALSE"))
        stuck = all(m.apply(d.initial) == d.initial for m in d.letters)
        left = definitional_check(table, "left_zero_exists").verdict.value
        assert left == ("TRUE" if (nonempty or stuck) else "FALSE")


def test_zero_reduction_left_zero_without_zero():
    # regression: letters all fixing the initial state make the reset map a
    # left zero even though the language is empty and no zero exists
    d = dfa_of(2, 1, {2}, (1, 1))
    gens = dfa_emptiness_to_zero(d)
    table = enumerate_semigroup(gens)
    assert definitional_check(table, "left_zero_exists").verdict.value == "TRUE"
    assert definitional_check(table, "zero_exists").verdict.value == "FALSE"
    reset = gens[1]
    for i in range(len(table)):
        assert compose(reset, table.element(i)) == reset


def test_zero_reduction_empty_final_set_degenerate_case():
    # with F = 0 and every letter fixing the initial state, reset itself is a
    # zero even though the language is empty -- the guarantee needs F nonempty
    d = dfa_of(2, 1, set(), (1, 1))
    gens = dfa_emptiness_to_zero(d)
    assert not dfa_language_nonempty(d)
    assert has_zero(gens).verdict  # the documented degenerate outcome


def test_nilpotent_reduction_structure():
    d = dfa_of(2, 1, {2}, (2, 2))
    gens = dfa_emptiness_to_nilpotent(d)
    # n^2 + 1 generators of degree n^2 + 1, always
    assert gens.degree == 5
    assert len(gens) == 5
    assert gens.names == ("a1_1", "a1_2", "pad2_1", "pad2_2", "reset")
    # letter slot at stage 1: non-final state 1 advances, final state 2 dies
    # enc(1,1)=1, enc(1,2)=2, enc(2,1)=3, enc(2,2)=4, sink=5
    assert gens[0].map == (4, 5, 5, 5, 5)   # (1,1) -> (delta(1,a)=2, stage 2)
    assert gens[1].map == (5, 5, 5, 5, 5)   # stage n slots are sink constants
    assert gens[4].map == (5, 5, 1, 1, 5)   # reset: (2,j) -> (1,1)


def test_nilpotent_reduction_preconditions():
    with pytest.raises(PreconditionError):
        dfa_emptiness_to_nilpotent(dfa_of(2, 1, {1}, (2, 2)))
    with pytest.raises(PreconditionError):
        dfa_emptiness_to_nilpotent(
            dfa_of(2, 1, {2}, (2, 2), (1, 1), (1, 2)))  # 3 letters, 2 states


def test_nilpotent_reduction_frozen_examples():
    hot = dfa_emptiness_to_nilpotent(dfa_of(2, 1, {2}, (2, 2)))
    assert not is_nilpotent(hot).verdict
    assert definitional_check(enumerate_semigroup(hot),
                              "nilpotent").verdict.value == "FALSE"

    cold = dfa_emptiness_to_nilpotent(dfa_of(2, 1, {2}, (1, 1)))
    assert is_nilpotent(cold).verdict
    assert definitional_check(enumerate_semigroup(cold),
                              "nilpotent").verdict.value == "TRUE"

    # empty final set stays sound: b degenerates to the all-sink constant
    empty = dfa_emptiness_to_nilpotent(dfa_of(2, 1, set(), (2, 1)))
    assert is_nilpotent(empty).verdict


def test_nilpotent_reduction_nonempty_branch_has_bad_idempotent():
    # when a word is accepted, some idempotent is not a left zero
    d = dfa_of(2, 1, {2}, (2, 2))
    gens = dfa_emptiness_to_nilpotent(d)
    table = enumerate_semigroup(gens)
    found = False
    for i in range(len(table)):
        s = table.element(i)
        if compose(s, s) != s:
            continue
        if any(compose(s, table.element(j)) != s for j in range(len(table))):
            found = True
            break
    assert found


def test_digraph_reduction_structure():
    gens = digraph_to_semigroup(InputDigraph(2, ((1, 2),)))
    assert gens.degree == 3
    assert len(gens) == 1
    assert gens.names == ("e1_2",)
    assert gens[0].map == (2, 3, 3)
    # duplicate edges collapse
    gens = digraph_to_semigroup(InputDigraph(2, ((1, 2), (1, 2), (2, 1))))
    assert len(gens) == 2
    with pytest.raises(PreconditionError):
        digraph_to_semigroup(InputDigraph(3, ()))


def test_digraph_reduction_frozen_examples():
    # single edge: nilpotent and R-trivial
    single = digraph_to_semigroup(InputDigraph(2, ((1, 2),)))
    assert is_nilpotent(single).verdict
    assert is_r_trivial(single).verdict

    # 2-cycle: not R-trivial, and e1_2 e2_1 is a non-central idempotent
    two = digraph_to_semigroup(InputDigraph(2, ((1, 2), (2, 1))))
    assert not is_r_trivial(two).verdict
    assert not idempotents_central(two).verdict
    e = compose(two[0], two[1])
    assert compose(e, e) == e
    assert compose(e, two[0]) != compose(two[0], e)

    # a lone self-loop produces an idempotent singleton: R-trivial (and even
    # nilpotent) despite the loop -- only cycles through two or more vertices
    # carry the guarantee
    loop = digraph_to_semigroup(InputDigraph(2, ((1, 1),)))
    assert loop[0].map == (1, 3, 3)
    assert is_r_trivial(loop).verdict
    assert is_nilpotent(loop).verdict


def test_intersection_preconditions():
    a = dfa_of(2, 1, {2}, (2, 2))
    b_two_finals = dfa_of(2, 1, {1, 2}, (2, 2))
    b_other_alphabet = dfa_of(2, 1, {2}, (2, 2), (1, 1))
    with pytest.raises(PreconditionError):
        dfa_intersection_to_regular([])
    with pytest.raises(PreconditionError):
        dfa_intersection_to_regular([a, b_two_finals])
    with pytest.raises(PreconditionError):
        dfa_intersection_to_regular([a, b_other_alphabet])
    with pytest.raises(PreconditionError):
        dfa_intersection_to_weak_inverse([a, b_two_finals])


def test_regular_reduction_structure_and_frozen_examples():
    a = dfa_of(2, 1, {2}, (2, 2))
    gens, target_index = dfa_intersection_to_regular([a])
    assert gens.degree == 3          # 2 states + sink
    assert len(gens) == 2            # 1 letter + restart
    assert target_index == 2
    assert gens.names[-1] == "restart"
    assert gens[1].map == (3, 1, 3)  # final 2 -> initial 1, rest -> sink
    b = gens[target_index - 1]
    assert find_regularizer(gens, b) is not None

    # empty language: not regular
    gens, ti = dfa_intersection_to_regular([dfa_of(2, 1, {2}, (1, 1))])
    assert find_regularizer(gens, gens[ti - 1]) is None

    # two machines with disjoint languages: a* ending in state 2 vs never
    first = dfa_of(2, 1, {2}, (2, 2))
    second = dfa_of(2, 1, {2}, (1, 1))
    gens, ti = dfa_intersection_to_regular([first, second])
    assert gens.degree == 5
    assert not dfa_intersection_nonempty([first, second])
    assert find_regularizer(gens, gens[ti - 1]) is None


def test_weak_inverse_reduction_frozen_examples():
    a = dfa_of(2, 1, {2}, (2, 2))
    gens, target = dfa_intersection_to_weak_inverse([a])
    assert gens.degree == 3
    assert gens.names == ("a1", "rewind")
    assert gens[1].map == (1, 1, 3)      # rewind: both states -> initial
    assert target.map == (3, 1, 3)       # [target] finals -> initials
    hit = find_weak_inverse(gens, target)
    assert hit is not None
    t, word = hit
    assert compose(compose(t, target), t) == t
    assert word_to_transformation(gens, word) == t

    # empty language: no weak inverse in the letters+rewind semigroup
    gens, target = dfa_intersection_to_weak_inverse([dfa_of(2, 1, {2}, (1, 1))])
    assert find_weak_inverse(gens, target) is None

    # duplicating the machine does not change the verdict
    gens2, target2 = dfa_intersection_to_weak_inverse([a, a])
    assert (find_weak_inverse(gens2, target2) is not None)


def test_dfa_language_nonempty():
    assert dfa_language_nonempty(dfa_of(1, 1, {1}, (1,)))      # epsilon
    assert dfa_language_nonempty(dfa_of(2, 1, {2}, (2, 2)))
    assert not dfa_language_nonempty(dfa_of(2, 1, {2}, (1, 1)))
    assert not dfa_language_nonempty(dfa_of(2, 1, set(), (2, 2)))
    # final state reachable only through a longer path
    assert dfa_language_nonempty(dfa_of(3, 1, {3}, (2, 3, 3)))


def test_dfa_language_nonempty_matches_word_search():
    rng = random.Random(91)
    for _ in range(300):
        d = rand_dfa(rng)
        reachable = dfa_language_nonempty(d)
        brute = False
        k = len(d.letters)
        words = [()]
        for _ in range(d.n + 1):  # pumping: n states suffice
            if any(_run(d, w) in d.finals for w in words):
                brute = True
                break
            words = [w + (c,) for w in words for c in range(k)]
        assert reachable == brute, (d,)


def _run(dfa, word):
    q = dfa.initial
    for c in word:
        q = dfa.letters[c].apply(q)
    return q


def test_dfa_intersection_nonempty():
    a = dfa_of(2, 1, {2}, (2, 2))
    drop = dfa_of(2, 1, {2}, (1, 1))
    assert dfa_intersection_nonempty([a])
    assert dfa_intersection_nonempty([a, a])
    assert not dfa_intersection_nonempty([a, drop])
    with pytest.raises(PreconditionError):
        dfa_intersection_nonempty([])
    with pytest.raises(PreconditionError):
        dfa_intersection_nonempty([a, dfa_of(2, 1, {2}, (2, 2), (1, 2))])
    # epsilon in the intersection when every initial state is final
    eps = dfa_of(2, 2, {2}, (1, 1))
    assert dfa_intersection_nonempty([eps, eps])


def test_intersection_reductions_respect_block_structure():
    # letters act blockwise: running a joint word in the reduction equals
    # running it in each machine separately
    rng = random.Random(92)
    for _ in range(50):
        ds = [rand_dfa(rng, n_max=3, k_max=2, finals="one")
              for _ in range(rng.randint(1, 2))]
        k = len(ds[0].letters)
        if any(len(d.letters) != k for d in ds):
            continue
        gens, _ = dfa_intersection_to_regular(ds)
        word = tuple(rng.randint(1, k) for _ in range(rng.randint(1, 5)))
        t = word_to_transformation(gens, word)
        off = 0
        for d in ds:
            # blockwise: image of off+q under t equals off + the machine run
            for q in range(1, d.n + 1):
                expect = q
                for c in word:
                    expect = d.letters[c - 1].apply(expect)
                assert t.apply(off + q) == off + expect
            off += d.n
