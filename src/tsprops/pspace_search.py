"""Witness search for regularizers, weak inverses, and inverses.

The search walks the semigroup's elements in canonical order (breadth-first
by word length, then lexicographically by generator index) and returns the
first element satisfying the defining equation.  On instances whose element
count exceeds the cap the search is honest about giving up: callers receive
an UNDECIDED outcome instead of a guess.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

from .core import (DEFAULT_CAP, GeneratorSet, Transformation, compose,
                   idempotent_power_exponent, power)
from .errors import EnumerationCapExceeded
from .report import PropertyReport, ReportBuilder


def iter_elements(gens: GeneratorSet,
                  cap: int = DEFAULT_CAP) -> Iterator[tuple[Transformation, tuple[int, ...]]]:
    """Yield (element, canonical word) pairs in canonical order.

    Raises EnumerationCapExceeded as soon as more than ``cap`` distinct
    elements appear.
    """
    seen: set[tuple[int, ...]] = set()
    queue: deque[tuple[Transformation, tuple[int, ...]]] = deque()
    for i, g in enumerate(gens):
        if g.map not in seen:
            if len(seen) >= cap:
                raise EnumerationCapExceeded(cap)
            seen.add(g.map)
            queue.append((g, (i + 1,)))
            yield g, (i + 1,)
    while queue:
        s, word = queue.popleft()
        for i, g in enumerate(gens):
            t = compose(s, g)
            if t.map not in seen:
                if len(seen) >= cap:
                    raise EnumerationCapExceeded(cap)
                seen.add(t.map)
                queue.append((t, word + (i + 1,)))
                yield t, word + (i + 1,)


def find_regularizer(gens: GeneratorSet, s: Transformation,
                     cap: int = DEFAULT_CAP) -> tuple[Transformation, tuple[int, ...]] | None:
    """First t in canonical order with s·t·s = s, or None after exhausting S."""
    for t, word in iter_elements(gens, cap):
        if compose(compose(s, t), s) == s:
            return t, word
    return None


def find_weak_inverse(gens: GeneratorSet, s: Transformation,
                      cap: int = DEFAULT_CAP) -> tuple[Transformation, tuple[int, ...]] | None:
    """First t in canonical order with t·s·t = t, or None."""
    for t, word in iter_elements(gens, cap):
        if compose(compose(t, s), t) == t:
            return t, word
    return None


def find_inverse(gens: GeneratorSet, s: Transformation,
                 cap: int = DEFAULT_CAP) -> tuple[Transformation, tuple[int, ...]] | None:
    """First t in canonical order with s·t·s = s and t·s·t = t, or None."""
    for t, word in iter_elements(gens, cap):
        if compose(compose(s, t), s) == s and compose(compose(t, s), t) == t:
            return t, word
    return None


def canonical_weak_inverse(s: Transformation) -> tuple[Transformation, int]:
    """The weak inverse s^(2w-1), where w is s's least idempotent exponent.

    With w minimal, the exponent w-1 can fail (s = [1,1,2] has w = 2 and
    s·s·s = s² ≠ s); 2w-1 always works: it is at least the index of s, and
    the period of s divides 2w, so s^(2w-1)·s·s^(2w-1) = s^(4w-1) = s^(2w-1).
    """
    omega = idempotent_power_exponent(s)
    t = power(s, 2 * omega - 1)
    return t, 2 * omega - 1


def is_regular_semigroup(gens: GeneratorSet,
                         cap: int = DEFAULT_CAP) -> PropertyReport:
    """Every element has some t with s·t·s = s; UNDECIDED past the cap."""
    rb = ReportBuilder("regular", gens, "structural")
    try:
        elements = list(iter_elements(gens, cap))
    except EnumerationCapExceeded:
        return rb.undecided({"kind": "enumeration-cap", "cap": cap})
    maps = [t.map for t, _ in elements]
    n = gens.degree
    for s, word in elements:
        smap = s.map
        regular = False
        for tmap in maps:
            # s·t·s displayed pointwise, avoiding object churn
            if all(smap[tmap[smap[q] - 1] - 1] == smap[q] for q in range(n)):
                regular = True
                break
        if not regular:
            return rb.false({"kind": "non-regular-element",
                             "element": {"map": list(smap), "word": list(word)}})
    return rb.true()


def is_inverse_semigroup(gens: GeneratorSet,
                         cap: int = DEFAULT_CAP) -> PropertyReport:
    """Regular with commuting idempotents; UNDECIDED propagates."""
    from .identity_engine import idempotents_commute

    rb = ReportBuilder("inverse", gens, "structural")
    regular = is_regular_semigroup(gens, cap)
    if regular.verdict == "UNDECIDED":
        return rb.undecided(regular.witness)
    if not regular.verdict:
        return rb.false(regular.witness)
    commuting = idempotents_commute(gens)
    if not commuting.verdict:
        return rb.false(commuting.witness)
    return rb.true()
