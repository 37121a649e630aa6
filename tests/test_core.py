import random

import pytest

from tsprops.core import (
    GeneratorSet,
    Partition,
    Transformation,
    apply_word,
    compose,
    fixed_points,
    idempotent_power_exponent,
    image,
    image_action,
    is_idempotent,
    kernel,
    power,
    quotient_action,
    semigroup_image,
    word_to_transformation,
)
from tsprops.errors import DegreeMismatchError


def rand_map(rng, n):
    return Transformation(n, tuple(rng.randint(1, n) for _ in range(n)))


def test_transformation_validation():
    t = Transformation(3, (2, 3, 1))
    assert t.apply(1) == 2 and t.apply(3) == 1
    assert t.is_permutation()
    with pytest.raises(ValueError):
        Transformation(3, (2, 3))
    with pytest.raises(ValueError):
        Transformation(3, (2, 3, 4))
    with pytest.raises(ValueError):
        Transformation(0, ())
    with pytest.raises(ValueError):
        t.apply(4)


def test_compose_is_apply_left_then_right():
    s = Transformation(3, (2, 2, 3))
    t = Transformation(3, (3, 1, 1))
    st = compose(s, t)
    # q.(st) = t(s(q))
    assert st.map == (1, 1, 1)
    with pytest.raises(DegreeMismatchError):
        compose(s, Transformation(2, (1, 1)))


def test_compose_associative_random():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randint(1, 7)
        a, b, c = (rand_map(rng, n) for _ in range(3))
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_power_matches_iterated_compose():
    rng = random.Random(2)
    for _ in range(100):
        n = rng.randint(1, 6)
        s = rand_map(rng, n)
        acc = s
        for m in range(1, 9):
            assert power(s, m) == acc
            acc = compose(acc, s)
    with pytest.raises(ValueError):
        power(Transformation.identity(2), 0)


def test_idempotent_power_exponent():
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(1, 7)
        s = rand_map(rng, n)
        m = idempotent_power_exponent(s)
        assert is_idempotent(power(s, m))
        # minimality
        for e in range(1, m):
            assert not is_idempotent(power(s, e))
    # a permutation of order 6 needs exponent 6
    s = Transformation(5, (2, 1, 4, 5, 3))
    assert idempotent_power_exponent(s) == 6


def test_image_and_identity():
    assert image(Transformation(4, (2, 2, 3, 2))) == frozenset({2, 3})
    e = Transformation.identity(4)
    assert e.map == (1, 2, 3, 4)
    assert is_idempotent(e)


def test_kernel_partition():
    s = Transformation(4, (1, 1, 2, 3))
    part = kernel([s])
    assert part.classes == ((1, 2), (3,), (4,))
    assert part.class_of == (1, 1, 2, 3)
    # joint kernel refines both single kernels
    t = Transformation(4, (1, 2, 2, 3))
    joint = kernel([s, t])
    assert joint.classes == ((1,), (2,), (3,), (4,))
    with pytest.raises(ValueError):
        kernel([])


def test_partition_rejects_inconsistent_data():
    with pytest.raises(ValueError):
        Partition(2, (1, 1), ((1,), (2,)))
    with pytest.raises(ValueError):
        Partition(2, (1, 2), ((1,),))


def test_generator_set_basics():
    gens = GeneratorSet.from_maps([(2, 3, 1), (1, 1, 1)], names=["s", "c"])
    assert len(gens) == 2
    assert gens.degree == 3
    assert gens.name_of(1) == "s" and gens.name_of(2) == "c"
    unnamed = GeneratorSet.from_maps([(1, 2)])
    assert unnamed.name_of(1) == "a1"
    with pytest.raises(ValueError):
        GeneratorSet(3, ())
    with pytest.raises(DegreeMismatchError):
        GeneratorSet(3, (Transformation(2, (1, 1)),))
    with pytest.raises(ValueError):
        GeneratorSet.from_maps([(1, 2)], names=["a", "b"])


def test_words_and_application():
    gens = GeneratorSet.from_maps([(2, 3, 1), (1, 1, 1)])
    assert apply_word(gens, 1, (1, 1)) == 3
    assert apply_word(gens, 2, ()) == 2
    assert word_to_transformation(gens, (1, 1, 1)) == Transformation.identity(3)
    assert word_to_transformation(gens, (1, 2)).map == (1, 1, 1)
    rng = random.Random(4)
    for _ in range(100):
        n = rng.randint(1, 5)
        k = rng.randint(1, 3)
        gs = GeneratorSet.from_maps(
            [tuple(rng.randint(1, n) for _ in range(n)) for _ in range(k)])
        word = tuple(rng.randint(1, k) for _ in range(rng.randint(0, 6)))
        t = word_to_transformation(gs, word)
        for q in range(1, n + 1):
            assert t.apply(q) == apply_word(gs, q, word)


@pytest.mark.parametrize("letter", [0, -1, 3])
def test_words_reject_letters_outside_the_generators(letter):
    # Letters index the generators from 1 to k; 0 and -1 must not wrap round
    # to the last generators, nor k + 1 escape as an IndexError.
    gens = GeneratorSet.from_maps([(2, 3, 1), (1, 1, 1)])
    with pytest.raises(ValueError, match="generator index"):
        word_to_transformation(gens, (1, letter))
    with pytest.raises(ValueError, match="generator index"):
        apply_word(gens, 1, (letter,))
    with pytest.raises(ValueError, match="not a point"):
        apply_word(gens, 4, (1,))


def test_fixed_points_and_image():
    gens = GeneratorSet.from_maps([(1, 1, 3), (1, 2, 3)])
    assert fixed_points(gens) == frozenset({1, 3})
    assert semigroup_image(gens) == (1, 2, 3)
    only_consts = GeneratorSet.from_maps([(2, 2, 2)])
    assert fixed_points(only_consts) == frozenset({2})
    assert semigroup_image(only_consts) == (2,)


def test_quotient_action_respects_kernel():
    gens = GeneratorSet.from_maps([(2, 2, 1), (1, 1, 3)])
    q = quotient_action(gens)
    # joint kernel classes: {1,2}, {3}
    assert q.degree == 2
    assert q.generators[0].map == (1, 1)
    assert q.generators[1].map == (1, 2)


def test_image_action_relabels():
    gens = GeneratorSet.from_maps([(3, 3, 1)])
    act = image_action(gens)
    # image {1,3} relabelled to {1,2}: 1->3 becomes 1->2, 3->1 becomes 2->1
    assert act.degree == 2
    assert act.generators[0].map == (2, 1)


def test_action_words_commute_with_projection():
    # applying a word then projecting to the image action equals projecting
    # first and applying the word there
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(2, 6)
        k = rng.randint(1, 3)
        gens = GeneratorSet.from_maps(
            [tuple(rng.randint(1, n) for _ in range(n)) for _ in range(k)])
        pts = semigroup_image(gens)
        pos = {p: i + 1 for i, p in enumerate(pts)}
        act = image_action(gens)
        word = tuple(rng.randint(1, k) for _ in range(rng.randint(1, 6)))
        for p in pts:
            assert pos[apply_word(gens, p, word)] == apply_word(act, pos[p], word)
