"""Total maps on a finite point set and the actions a generating set induces.

Points are 1-indexed throughout the public API.  A transformation acts on
the right: the image of ``q`` under ``s`` then ``t`` is ``t(s(q))``, written
``q . (s t)``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

from .errors import DegreeMismatchError

# Element cap for the enumerating searches (oracle and pspace_search).
DEFAULT_CAP = 200_000


@dataclass(frozen=True)
class Transformation:
    """A total map on ``{1, .., degree}``; ``map[q-1]`` is the image of ``q``."""

    degree: int
    map: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "map", tuple(self.map))
        if self.degree < 1:
            raise ValueError(f"degree must be at least 1, got {self.degree}")
        if len(self.map) != self.degree:
            raise ValueError(
                f"expected {self.degree} images, got {len(self.map)}"
            )
        for q, img in enumerate(self.map, start=1):
            if not isinstance(img, int) or not 1 <= img <= self.degree:
                raise ValueError(
                    f"image of {q} is {img!r}, not a point in 1..{self.degree}"
                )

    @classmethod
    def from_images(cls, images: Iterable[int]) -> "Transformation":
        images = tuple(images)
        return cls(len(images), images)

    @classmethod
    def identity(cls, degree: int) -> "Transformation":
        return cls(degree, tuple(range(1, degree + 1)))

    def apply(self, q: int) -> int:
        if not 1 <= q <= self.degree:
            raise ValueError(f"{q} is not a point in 1..{self.degree}")
        return self.map[q - 1]

    def is_permutation(self) -> bool:
        return len(set(self.map)) == self.degree

    def __repr__(self):
        return f"Transformation([{', '.join(map(str, self.map))}])"


def compose(s: Transformation, t: Transformation) -> Transformation:
    """The product ``s t``: apply ``s`` first, then ``t``."""
    if s.degree != t.degree:
        raise DegreeMismatchError(
            f"cannot compose degree {s.degree} with degree {t.degree}"
        )
    return Transformation(s.degree, tuple(t.map[x - 1] for x in s.map))


def power(s: Transformation, m: int) -> Transformation:
    """The ``m``-th power of ``s`` for ``m >= 1``, by repeated squaring."""
    if m < 1:
        raise ValueError(f"exponent must be at least 1, got {m}")
    acc = None
    base = s
    while m:
        if m & 1:
            acc = base if acc is None else compose(acc, base)
        m >>= 1
        if m:
            base = compose(base, base)
    return acc


def image(s: Transformation) -> frozenset[int]:
    """The image set ``{ q . s : q }``."""
    return frozenset(s.map)


def is_idempotent(s: Transformation) -> bool:
    return compose(s, s) == s


def idempotent_power_exponent(s: Transformation) -> int:
    """The least ``m >= 1`` such that ``s^m`` is idempotent.

    Iterates powers until the first repetition, giving the index ``i`` and
    period ``p`` of ``s``; the answer is the least multiple of ``p`` that is
    at least ``i``.
    """
    seen: dict[Transformation, int] = {}
    cur = s
    m = 1
    while cur not in seen:
        seen[cur] = m
        cur = compose(cur, s)
        m += 1
    index = seen[cur]
    period = m - index
    return ((index + period - 1) // period) * period


@dataclass(frozen=True)
class Partition:
    """A partition of ``{1, .., degree}`` into classes numbered ``1..c``.

    Classes are numbered in order of their smallest member, and each class
    lists its members in ascending order.
    """

    degree: int
    class_of: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.class_of) != self.degree:
            raise ValueError("class assignment does not cover all points")
        seen_points = sorted(q for block in self.classes for q in block)
        if seen_points != list(range(1, self.degree + 1)):
            raise ValueError("classes are not a partition of the point set")
        for cid, block in enumerate(self.classes, start=1):
            for q in block:
                if self.class_of[q - 1] != cid:
                    raise ValueError("class assignment disagrees with classes")

    @classmethod
    def group_by(cls, degree: int, key) -> "Partition":
        """Partition points by ``key(q)``; classes ordered by smallest member."""
        buckets: dict[object, list[int]] = {}
        for q in range(1, degree + 1):
            buckets.setdefault(key(q), []).append(q)
        blocks = sorted(buckets.values(), key=lambda b: b[0])
        class_of = [0] * degree
        for cid, block in enumerate(blocks, start=1):
            for q in block:
                class_of[q - 1] = cid
        return cls(degree, tuple(class_of), tuple(tuple(b) for b in blocks))

    def __len__(self):
        return len(self.classes)


def kernel(transformations: Sequence[Transformation]) -> Partition:
    """The joint kernel: points are equivalent iff every map agrees on them."""
    if not transformations:
        raise ValueError("kernel of an empty family is undefined")
    n = transformations[0].degree
    for t in transformations:
        if t.degree != n:
            raise DegreeMismatchError("kernel requires equal degrees")
    return Partition.group_by(n, lambda q: tuple(t.map[q - 1] for t in transformations))


@dataclass(frozen=True)
class GeneratorSet:
    """A nonempty tuple of equal-degree transformations, optionally named."""

    degree: int
    generators: tuple[Transformation, ...]
    names: tuple[str, ...] | None = None
    # What has been computed about this instance: its digest, kept by
    # ``formats.cached_instance_digest``, and the structural reports kept
    # by ``report.remembered``.  Equal sets share nothing.
    _facts: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        if not self.generators:
            raise ValueError("a generator set must be nonempty")
        for g in self.generators:
            if g.degree != self.degree:
                raise DegreeMismatchError(
                    f"generator of degree {g.degree} in a set of degree {self.degree}"
                )
        if self.names is not None:
            object.__setattr__(self, "names", tuple(self.names))
            if len(self.names) != len(self.generators):
                raise ValueError("one name per generator required")

    @classmethod
    def from_maps(cls, maps: Iterable[Iterable[int]],
                  names: Iterable[str] | None = None) -> "GeneratorSet":
        gens = tuple(Transformation.from_images(m) for m in maps)
        if not gens:
            raise ValueError("a generator set must be nonempty")
        return cls(gens[0].degree, gens, tuple(names) if names is not None else None)

    def name_of(self, i: int) -> str:
        """Display name of generator ``i`` (1-indexed)."""
        if self.names is not None:
            return self.names[i - 1]
        return f"a{i}"

    def __len__(self):
        return len(self.generators)

    def __iter__(self) -> Iterator[Transformation]:
        return iter(self.generators)

    def __getitem__(self, i: int) -> Transformation:
        return self.generators[i]


def _letter(gens: GeneratorSet, c: int) -> Transformation:
    """The generator a word's letter ``c`` names; letters run over 1..k."""
    if not 1 <= c <= len(gens.generators):
        raise ValueError(f"letter {c!r} is not a generator index in "
                         f"1..{len(gens.generators)}")
    return gens.generators[c - 1]


def apply_word(gens: GeneratorSet, q: int, word: Sequence[int]) -> int:
    """Image of point ``q`` under the word (1-indexed generator indices)."""
    if not 1 <= q <= gens.degree:
        raise ValueError(f"{q!r} is not a point in 1..{gens.degree}")
    for c in word:
        q = _letter(gens, c).map[q - 1]
    return q


def word_to_transformation(gens: GeneratorSet, word: Sequence[int]) -> Transformation:
    """The element named by a word; the empty word gives the identity map."""
    out = Transformation.identity(gens.degree)
    for c in word:
        out = compose(out, _letter(gens, c))
    return out


def fixed_points(gens: GeneratorSet) -> frozenset[int]:
    """Points fixed by every generator (hence by every element)."""
    return frozenset(
        q for q in range(1, gens.degree + 1)
        if all(g.map[q - 1] == q for g in gens.generators)
    )


def semigroup_image(gens: GeneratorSet) -> tuple[int, ...]:
    """The union of generator images, ascending.  Closed under every generator."""
    pts = set()
    for g in gens.generators:
        pts.update(g.map)
    return tuple(sorted(pts))


def quotient_action(gens: GeneratorSet) -> GeneratorSet:
    """The action induced on the classes of the joint kernel.

    Class ``i`` maps to the class containing the image of any of its members;
    the joint kernel makes this independent of the member chosen.
    """
    part = kernel(gens.generators)
    maps = []
    for g in gens.generators:
        m = []
        for block in part.classes:
            targets = {part.class_of[g.map[q - 1] - 1] for q in block}
            if len(targets) != 1:
                raise RuntimeError(
                    "kernel class split by a generator; this is a bug"
                )
            m.append(targets.pop())
        maps.append(Transformation(len(part), tuple(m)))
    return GeneratorSet(len(part), tuple(maps), gens.names)


def image_action(gens: GeneratorSet) -> GeneratorSet:
    """The action restricted to the union of generator images.

    The surviving points are relabelled ``1..m`` in ascending order.
    """
    pts = semigroup_image(gens)
    pos = {p: i + 1 for i, p in enumerate(pts)}
    maps = []
    for g in gens.generators:
        imgs = [g.map[p - 1] for p in pts]
        for x in imgs:
            if x not in pos:
                raise RuntimeError("image set not closed under a generator; this is a bug")
        maps.append(Transformation(len(pts), tuple(pos[x] for x in imgs)))
    return GeneratorSet(len(pts), tuple(maps), gens.names)
