"""The orbit of images under right multiplication, and its strong components.

For S = ⟨A⟩ ≤ T_n every element s = a·w has im(s) = im(a)·w, so closing the
generators' images under A ↦ A·g (g a generator) gives exactly the set of
images of elements of S.  Two images lie in one strongly connected component
when each reaches the other; the images met inside an R-class of S form one
such component (Linton, Pfeiffer, Robertson and Ruškuc, "Groups and actions
in transformation semigroups", Math. Z. 1998).  The orbit has at most
2^n - 1 members however large S is.

Pure Python on purpose: the structural checks that use it must not depend
on numpy or on the oracle.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import GeneratorSet


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
    component, components = _tarjan(succ)
    return ImageOrbit(images, index, component, components)


def _tarjan(succ: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """Strong components of the digraph ``v -> succ[v]``, without recursion."""
    n = len(succ)
    order = [-1] * n          # discovery number, -1 while unvisited
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    component = [-1] * n
    components: list[list[int]] = []
    counter = 0
    for root in range(n):
        if order[root] >= 0:
            continue
        order[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, 0)]    # (vertex, next successor position)
        while work:
            v, pos = work[-1]
            if pos < len(succ[v]):
                work[-1] = (v, pos + 1)
                w = succ[v][pos]
                if order[w] < 0:
                    order[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, 0))
                elif on_stack[w] and order[w] < low[v]:
                    low[v] = order[w]
                continue
            work.pop()
            if work:
                u = work[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
            if low[v] == order[v]:
                members = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    component[w] = len(components)
                    members.append(w)
                    if w == v:
                        break
                components.append(sorted(members))
    return component, components
