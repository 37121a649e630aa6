"""The orbit of images under right multiplication, and its strong components.

For S = ⟨A⟩ ≤ T_n every element s = a·w has im(s) = im(a)·w, so closing the
generators' images under A ↦ A·g (g a generator) gives exactly the set of
images of elements of S.  Two images lie in one strongly connected component
when each reaches the other; the images met inside an R-class of S form one
such component (Linton, Pfeiffer, Robertson and Ruškuc, "Groups and actions
in transformation semigroups", Math. Z. 1998).  The orbit has at most
2^n - 1 members however large S is.

Pure Python on purpose: the structural checks that use it must not depend
on numpy or on the oracle.  The components come from
``graph.strong_components``, which the oracle's R-triviality check also
uses; no property decides through it on both routes.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import GeneratorSet
from .graph import strong_components


class ImageOrbit(NamedTuple):
    """Images in discovery order, with their strong components.

    ``images[i]`` is a frozenset of points; ``index`` inverts ``images``;
    ``component[i]`` numbers the component of image ``i``; and
    ``components[c]`` lists, ascending, the image indices in component ``c``.
    Components are numbered in the order Tarjan's algorithm closes them, so a
    component's successors all have smaller numbers.
    """

    images: list[frozenset[int]]
    index: dict[frozenset[int], int]
    component: list[int]
    components: list[list[int]]


def image_orbit(gens: GeneratorSet) -> ImageOrbit:
    """Close the generators' images under the generators and find the SCCs."""
    gmaps = [g.map for g in gens]
    images: list[frozenset[int]] = []
    index: dict[frozenset[int], int] = {}
    succ: list[list[int]] = []
    for g in gmaps:
        a = frozenset(g)
        if a not in index:
            index[a] = len(images)
            images.append(a)
    head = 0
    while head < len(images):
        out = []
        for g in gmaps:
            b = frozenset([g[x - 1] for x in images[head]])
            j = index.get(b)
            if j is None:
                j = index[b] = len(images)
                images.append(b)
            out.append(j)
        succ.append(out)
        head += 1
    component, components = strong_components(succ)
    return ImageOrbit(images, index, component, components)
