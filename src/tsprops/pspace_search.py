"""Regularity of S, and witness search for regularizers, weak inverses and
inverses.

Every search here walks S as the orbit of the identity tuple under
``graph.search``: raw map tuples in canonical order (by word length, then
lexicographically by generator index), each stored with its parent only,
so ``graph.trace`` rebuilds a word only for an element that is reported.
``iter_elements``, which reports every element, also stores each one's
last letter and walks the stored letters back.
On instances whose element count exceeds the cap every search here raises
``EnumerationCapExceeded`` instead of guessing; the front end reports that
as UNDECIDED with the cap as its witness.

Deciding whether an element is regular is PSPACE-complete, so the structural
``regular`` route (``is_regular``, which ``inverse`` shares) still enumerates
S up to the cap unless S is commutative.  It does not try every t
for every s, though: it tests each (kernel, image-component) class once
against the orbit of images under right multiplication (``image_orbit``),
which is tiny next to S (T6 has 63 images and 46 656 elements).  See Linton,
Pfeiffer, Robertson and Ruškuc, "Groups and actions in transformation
semigroups" (Math. Z. 1998), and East, Egri-Nagy, Mitchell and Péresse,
"Computing finite semigroups" (J. Symbolic Comput. 2019).
"""

from __future__ import annotations

from typing import Callable, Iterator

from .core import (DEFAULT_CAP, GeneratorSet, Transformation,
                   idempotent_power_exponent, power)
from .errors import (DegreeMismatchError, EnumerationCapExceeded,
                     PreconditionError)
from .graph import search, trace
from .image_orbit import image_orbit
from .nl_checks import is_regular_commutative
from .report import PropertyReport, ReportBuilder, all_of, remembered

Map = tuple[int, ...]


def _identity(gens: GeneratorSet) -> Map:
    return tuple(range(1, gens.degree + 1))


def _maps(gens: GeneratorSet, cap: int, parent: dict) -> Iterator[Map]:
    """S as raw map tuples in canonical order, with each map's parent put
    in ``parent``; raises EnumerationCapExceeded at the map after the
    ``cap``-th."""
    for count, t in enumerate(search(gens, [_identity(gens)], parent)):
        if count == cap:
            raise EnumerationCapExceeded(cap)
        yield t


def _word(gens: GeneratorSet, parent: dict, t: Map) -> tuple[int, ...]:
    """The canonical word of the map ``t``."""
    return trace(gens, [_identity(gens)], parent, t)[1]


def iter_elements(gens: GeneratorSet,
                  cap: int = DEFAULT_CAP) -> Iterator[tuple[Transformation, tuple[int, ...]]]:
    """Yield (element, canonical word) pairs in canonical order.

    Raises EnumerationCapExceeded as soon as more than ``cap`` distinct
    elements appear.
    """
    steps = [((0,) + g.map).__getitem__ for g in gens.generators]
    identity = _identity(gens)
    parent: dict = {}
    letter: dict = {}
    for t in _maps(gens, cap, parent):
        prev = parent[t]
        # graph.trace's letter: the first generator stepping the source to t.
        source = identity if prev is None else prev
        letter[t] = next(c for c, step in enumerate(steps, start=1)
                         if tuple(map(step, source)) == t)
        word = []
        u = t
        while u is not None:
            word.append(letter[u])
            u = parent[u]
        yield Transformation(gens.degree, t), tuple(reversed(word))


def _first(gens: GeneratorSet, s: Transformation, cap: int,
           hit: Callable[[Map], bool]
           ) -> tuple[Transformation, tuple[int, ...]] | None:
    """The first element in canonical order whose map passes ``hit``, a
    test that relates it to the target ``s``."""
    if s.degree != gens.degree:
        raise DegreeMismatchError(
            f"target of degree {s.degree} in a semigroup of degree {gens.degree}")
    parent: dict = {}
    for t in _maps(gens, cap, parent):
        if hit(t):
            return Transformation(gens.degree, t), _word(gens, parent, t)
    return None


# s·t·s = s says s(t(x)) = x for every x in im(s); t·s·t = t says
# t(s(y)) = y for every y in im(t).  Maps are 1-indexed tuples, and
# shifted = (0,) + s.map indexes s by point.

def find_regularizer(gens: GeneratorSet, s: Transformation,
                     cap: int = DEFAULT_CAP) -> tuple[Transformation, tuple[int, ...]] | None:
    """First t in canonical order with s·t·s = s, or None after exhausting S."""
    shifted, im_s = (0,) + s.map, set(s.map)
    return _first(gens, s, cap,
                  lambda t: all(shifted[t[x - 1]] == x for x in im_s))


def find_weak_inverse(gens: GeneratorSet, s: Transformation,
                      cap: int = DEFAULT_CAP) -> tuple[Transformation, tuple[int, ...]] | None:
    """First t in canonical order with t·s·t = t, or None."""
    shifted = (0,) + s.map
    return _first(gens, s, cap,
                  lambda t: all(t[shifted[y] - 1] == y for y in t))


def find_inverse(gens: GeneratorSet, s: Transformation,
                 cap: int = DEFAULT_CAP) -> tuple[Transformation, tuple[int, ...]] | None:
    """First t in canonical order with s·t·s = s and t·s·t = t, or None."""
    shifted, im_s = (0,) + s.map, set(s.map)
    return _first(gens, s, cap,
                  lambda t: all(shifted[t[x - 1]] == x for x in im_s)
                  and all(t[shifted[y] - 1] == y for y in t))


def canonical_weak_inverse(s: Transformation) -> tuple[Transformation, int]:
    """The weak inverse s^(2w-1), where w is s's least idempotent exponent.

    With w minimal, the exponent w-1 can fail (s = [1,1,2] has w = 2 and
    s·s·s = s² ≠ s); 2w-1 always works: it is at least the index of s, and
    the period of s divides 2w, so s^(2w-1)·s·s^(2w-1) = s^(4w-1) = s^(2w-1).
    """
    omega = idempotent_power_exponent(s)
    t = power(s, 2 * omega - 1)
    return t, 2 * omega - 1


@remembered
def is_regular_semigroup(gens: GeneratorSet,
                         cap: int = DEFAULT_CAP) -> PropertyReport:
    """Every element has some t with s·t·s = s; raises
    EnumerationCapExceeded past the cap.

    s is regular iff some image A in the strong component of im(s), in the
    orbit of images under the generators, is a transversal of ker(s):
    |A| = rank(s) and s is injective on A.

    If s = s·t·s, then e = s·t is an idempotent R-related to s, and
    A = im(e) = im(s)·t lies in the component of im(s), since A·s = im(s).
    s maps A onto im(s), so A is a transversal of ker(s).  Conversely, if
    A = im(s)·u (u in S or empty) is a transversal of ker(s), then s·u maps
    A = im(s·u) bijectively onto im(s)·u = A, so some power e = (s·u)^k is
    an idempotent, and ker(e) = ker(s·u) = ker(s) because the ranks agree.
    e maps each point into its own class of ker(e) = ker(s), so e·s = s; with
    v = u·(s·u)^(k-1) that reads s = s·v·s; t = v·s·v is then in S and
    s·t·s = s.

    So the test depends only on the pair (ker(s), component of im(s)); each
    pair is tested once.  The first non-regular element in canonical order
    is the witness.
    """
    rb = ReportBuilder("regular", gens, "structural")
    parent: dict = {}
    for _ in _maps(gens, cap, parent):
        pass
    orbit = image_orbit(gens)
    regular_class: dict[tuple[Map, int], bool] = {}
    for s in parent:    # S in canonical order
        first: dict[int, int] = {}
        labels = tuple([first.setdefault(x, len(first)) for x in s])
        comp = orbit.component[orbit.index[frozenset(s)]]
        key = (labels, comp)
        regular = regular_class.get(key)
        if regular is None:
            rank = len(first)
            regular = regular_class[key] = any(
                len(orbit.images[j]) == rank
                and len({labels[a - 1] for a in orbit.images[j]}) == rank
                for j in orbit.components[comp])
        if not regular:
            return rb.false({"kind": "non-regular-element",
                             "element": {"map": list(s),
                                         "word": list(_word(gens, parent, s))}})
    return rb.true()


def is_regular(gens: GeneratorSet, cap: int = DEFAULT_CAP) -> PropertyReport:
    """Structural ``regular``: a commutative semigroup is regular exactly
    when it is completely regular, which the graph route decides; any
    other goes through the capped search of S."""
    try:
        return is_regular_commutative(gens)
    except PreconditionError:
        return is_regular_semigroup(gens, cap)


def is_inverse_semigroup(gens: GeneratorSet,
                         cap: int = DEFAULT_CAP) -> PropertyReport:
    """Regular, decided as ``is_regular`` decides it, with commuting
    idempotents; a limit in either propagates."""
    from .identity_engine import idempotents_commute

    return all_of("inverse", gens, lambda g: is_regular(g, cap),
                  idempotents_commute)
