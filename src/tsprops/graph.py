"""Transformation graphs and the tuple-search layer.

The transformation graph of a generator set has an edge ``p -> q`` whenever
some generator maps ``p`` to ``q``.

S acts on tuples of points componentwise, and S itself is the orbit of the
identity tuple ``(1, .., n)`` under that action, so every ordered search
here, over elements or over point tuples, is one breadth-first search,
``search``.  A generator ``g`` steps ``t`` to
``tuple(map(((0,) + g.map).__getitem__, t))``; sources are taken in the
order given and each tuple's successors in generator order, so the path
back to a source spells the shortest word, and among those the
lexicographically least by 1-indexed generator index.  The search stores
only each tuple's parent, in a dict that is also its visited set, so it
holds the tuples it reaches and never the whole space of ``n ** d``
tuples.  ``trace`` rebuilds a word from the parents: each letter is the
first generator mapping the parent to the child, and the source the first
one with a generator mapping it to the path's first tuple, which is what
the search took.

``multi_tuple_reachability`` stops at the first target and traces its word;
the oracle's R-triviality check searches from one element's map the same
way for its connecting words.

``closure`` grows a set under any step function, with no order and no
words: ``reach_set`` closes a tuple's successors under a successor function
its caller may memoise, as ``identity_engine`` does, and the zero checks
close backwards over predecessor maps.  ``strong_components`` is the one
Tarjan, for ``image_orbit``, the nilpotency bound and the oracle's
R-triviality check.  Every structural search checks the size of its state
space with ``within_budget``, which reads ``STATE_BUDGET`` at call time.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass

from .core import GeneratorSet
from .errors import StateBudgetExceeded

STATE_BUDGET = 100_000_000


def within_budget(states: int) -> None:
    """Raise StateBudgetExceeded when a search of ``states`` states would
    pass ``STATE_BUDGET``."""
    if states > STATE_BUDGET:
        raise StateBudgetExceeded(states, STATE_BUDGET)


# A point tuple's images under each generator, in generator order.
Successors = Callable[[tuple[int, ...]], list[tuple[int, ...]]]


@dataclass(frozen=True)
class Digraph:
    """A directed graph on an explicit vertex set (vertices keep their labels)."""

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        vset = set(self.vertices)
        object.__setattr__(self, "vertices", tuple(sorted(vset)))
        for u, v in self.edges:
            if u not in vset or v not in vset:
                raise ValueError(f"edge ({u}, {v}) leaves the vertex set")
        object.__setattr__(self, "edges", tuple(sorted(set(self.edges))))

    def successors(self) -> dict[int, list[int]]:
        succ: dict[int, list[int]] = {v: [] for v in self.vertices}
        for u, v in self.edges:
            succ[u].append(v)
        return succ


def transformation_graph(gens: GeneratorSet,
                         restrict: Iterable[int] | None = None) -> Digraph:
    """Edges ``p -> q`` for generators mapping ``p`` to ``q``.

    With ``restrict``, the subgraph induced on those vertices: edges with
    either endpoint outside the set are dropped.
    """
    if restrict is None:
        verts = range(1, gens.degree + 1)
    else:
        verts = sorted(set(restrict))
        for v in verts:
            if not 1 <= v <= gens.degree:
                raise ValueError(f"vertex {v} outside 1..{gens.degree}")
    vset = set(verts)
    edges = set()
    for g in gens.generators:
        for p in verts:
            q = g.map[p - 1]
            if q in vset:
                edges.add((p, q))
    return Digraph(tuple(verts), tuple(edges))


def undirected_components(g: Digraph) -> list[tuple[int, ...]]:
    """Connected components ignoring edge direction, each ascending, ordered
    by smallest member."""
    succ: dict[int, set[int]] = {v: set() for v in g.vertices}
    for u, v in g.edges:
        succ[u].add(v)
        succ[v].add(u)
    seen: set[int] = set()
    comps = []
    for root in g.vertices:
        if root in seen:
            continue
        comp = []
        queue = deque([root])
        seen.add(root)
        while queue:
            v = queue.popleft()
            comp.append(v)
            for w in sorted(succ[v]):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        comps.append(tuple(sorted(comp)))
    return comps


def has_cycle(g: Digraph, ignore_self_loops: bool) -> tuple[bool, tuple[int, ...] | None]:
    """Detect a directed cycle; the witness lists its vertices ending where it began.

    Tolerant mode (``ignore_self_loops=True``) only reports cycles through at
    least two distinct vertices; strict mode counts self-loops as cycles.
    """
    if not ignore_self_loops:
        for u, v in g.edges:
            if u == v:
                return True, (u, u)
    succ = {v: sorted(ws) for v, ws in g.successors().items()}
    color = dict.fromkeys(g.vertices, 0)  # 0 new, 1 on path, 2 done
    for root in g.vertices:
        if color[root]:
            continue
        path = [root]
        stack = [(root, iter(succ[root]))]
        color[root] = 1
        while stack:
            v, it = stack[-1]
            w = next(it, None)
            if w is None:
                color[v] = 2
                path.pop()
                stack.pop()
                continue
            if w == v:
                continue  # self-loop; strict mode already returned above
            if color[w] == 1:
                i = path.index(w)
                return True, tuple(path[i:] + [w])
            if color[w] == 0:
                color[w] = 1
                path.append(w)
                stack.append((w, iter(succ[w])))
    return False, None


def tuple_successors(gens: GeneratorSet) -> Successors:
    """The successor function of ``gens`` on point tuples of any dimension."""
    steps = [((0,) + g.map).__getitem__ for g in gens.generators]

    def successors(t: tuple[int, ...]) -> list[tuple[int, ...]]:
        return [tuple(map(step, t)) for step in steps]

    return successors


def search(gens: GeneratorSet, sources: Sequence[tuple[int, ...]],
           parent: dict) -> Iterator[tuple[int, ...]]:
    """Yield each tuple reached from ``sources`` by a nonempty word, once, in
    breadth-first order: sources in the order given, each tuple's
    successors in generator order.

    ``parent`` is the visited set: before a tuple is yielded it maps it to
    the tuple it was reached from, or to None when a source reached it.
    """
    # (0,) + g.map is g shifted to index by point.
    steps = [((0,) + g.map).__getitem__ for g in gens.generators]
    queue: deque[tuple[int, ...]] = deque()
    for s in sources:
        for step in steps:
            t = tuple(map(step, s))
            if t not in parent:
                parent[t] = None
                yield t
                queue.append(t)
    while queue:
        cur = queue.popleft()
        for step in steps:
            t = tuple(map(step, cur))
            if t not in parent:
                parent[t] = cur
                yield t
                queue.append(t)


def trace(gens: GeneratorSet, sources: Sequence[tuple[int, ...]],
          parent: dict, t: tuple[int, ...]
          ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``(source, word)`` of ``t`` in the search of ``sources`` that filled
    ``parent``: the canonical word, shortest and then lexicographically
    least, and the first source it is shortest from."""
    steps = [((0,) + g.map).__getitem__ for g in gens.generators]

    def letter(prev: tuple[int, ...], cur: tuple[int, ...]) -> int | None:
        """The first generator mapping ``prev`` to ``cur``, 1-indexed."""
        for c, step in enumerate(steps, start=1):
            if tuple(map(step, prev)) == cur:
                return c
        return None

    word = []
    while (prev := parent[t]) is not None:
        word.append(letter(prev, t))
        t = prev
    for source in sources:
        if (c := letter(source, t)) is not None:
            word.append(c)
            return source, tuple(reversed(word))
    raise ValueError("the path does not start at a source")


def closure(seeds: Iterable, step: Callable[..., Iterable]) -> set:
    """The seeds and every state ``step`` reaches from them, in no order."""
    reached = set(seeds)
    todo = list(reached)
    while todo:
        for t in step(todo.pop()):
            if t not in reached:
                reached.add(t)
                todo.append(t)
    return reached


def reach_set(source: tuple[int, ...],
              successors: Successors) -> frozenset[tuple[int, ...]]:
    """Every tuple reached from ``source`` by a nonempty word: the orbit
    ``source·S``, so at most |S| tuples."""
    return frozenset(closure(successors(source), successors))


def strong_components(succ: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """Strong components of the digraph ``v -> succ[v]`` on 0..len(succ)-1.

    Tarjan's algorithm without recursion: a frame scans its vertex's
    successors in place and a new frame is pushed only to descend.
    ``component[v]`` numbers the component of ``v`` and ``components[c]``
    lists its members ascending.  Components are numbered in the order
    they close, so every edge ``v -> w`` has ``component[w] <= component[v]``.
    """
    n = len(succ)
    order = [-1] * n          # discovery number, -1 while unvisited
    low = [0] * n
    component = [-1] * n      # a visited vertex is on the stack while -1
    components: list[list[int]] = []
    stack: list[int] = []
    counter = 0
    for root in range(n):
        if order[root] >= 0:
            continue
        work = [(root, 0)]    # (vertex, next successor position)
        while work:
            v, pos = work[-1]
            if pos == 0:
                order[v] = low[v] = counter
                counter += 1
                stack.append(v)
            row = succ[v]
            while pos < len(row):
                w = row[pos]
                pos += 1
                if order[w] < 0:
                    work[-1] = (v, pos)
                    work.append((w, 0))
                    break
                if component[w] < 0 and order[w] < low[v]:
                    low[v] = order[w]
            else:
                work.pop()
                if low[v] == order[v]:
                    members = []
                    while True:
                        w = stack.pop()
                        component[w] = len(components)
                        members.append(w)
                        if w == v:
                            break
                    components.append(sorted(members))
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
    return component, components


def multi_tuple_reachability(
    gens: GeneratorSet,
    sources: Iterable[Sequence[int]],
    targets: Iterable[Sequence[int]] | Callable[[tuple[int, ...]], bool],
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Shortest nonempty word moving some source tuple into the target set,
    componentwise.

    Returns ``(source, word)`` or None.  Among shortest words the earliest
    source in lexicographic order wins, and the word itself is the
    lexicographically least by generator index.
    """
    n = gens.degree
    srcs = sorted(set(tuple(s) for s in sources))
    if not srcs:
        return None
    d = len(srcs[0])
    if d < 1:
        raise ValueError("tuples must have at least one coordinate")
    for s in srcs:
        if len(s) != d:
            raise ValueError("all source tuples must share one dimension")
        for q in s:
            if not 1 <= q <= n:
                raise ValueError(f"point {q} outside 1..{n}")
    within_budget(n ** d)

    if callable(targets):
        is_target = targets
    else:
        tset = set(tuple(t) for t in targets)
        for t in tset:
            if len(t) != d:
                raise ValueError("target dimension differs from source dimension")
        is_target = tset.__contains__

    parent: dict = {}
    for hit in search(gens, srcs, parent):
        if is_target(hit):
            return trace(gens, srcs, parent, hit)
    return None


def tuple_reachability(
    gens: GeneratorSet,
    start: Sequence[int],
    targets: Iterable[Sequence[int]] | Callable[[tuple[int, ...]], bool],
) -> tuple[int, ...] | None:
    """Canonical shortest nonempty word moving ``start`` into the target
    set, or None."""
    hit = multi_tuple_reachability(gens, [start], targets)
    return None if hit is None else hit[1]
