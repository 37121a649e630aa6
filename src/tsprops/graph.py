"""Transformation graphs and the tuple-search layer.

The transformation graph of a generator set has an edge ``p -> q`` whenever
some generator maps ``p`` to ``q``.

Every reachability question about the semigroup's componentwise action on
tuples of points goes through one breadth-first search, ``_bfs``.  It is
keyed by the point tuples themselves: a generator ``g`` steps ``t`` to
``tuple(map(((0,) + g.map).__getitem__, t))``, and the dict of back-pointers
is the only visited set, so a search holds the tuples it reaches and never
the whole space of ``n ** d`` tuples.  ``multi_tuple_reachability`` stops at
the first target and reads its word off the back-pointers; words are over
1-indexed generator indices, canonicalised shortest-first and then
lexicographically.  ``reach_set`` runs the search to exhaustion and returns
the orbit ``source·S``; a caller asking for many orbits passes a memoised
successor function, as ``identity_engine`` does.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass

from .core import GeneratorSet
from .errors import StateBudgetExceeded

STATE_BUDGET = 100_000_000

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


def _bfs(sources: Sequence[tuple[int, ...]], successors: Successors,
         back: dict) -> Iterator[tuple[int, ...]]:
    """Yield each tuple reached from ``sources`` by a nonempty word, once, in
    breadth-first order: sources in the order given, each tuple's successors
    in generator order.  The path back to a source is therefore the
    shortest word, and among those the lexicographically least.

    ``back`` is the visited set: before a tuple is yielded it maps it to
    ``(previous tuple or None, generator index, source index)``.
    """
    queue: deque[tuple[int, ...]] = deque()
    for si, s in enumerate(sources):
        for c, t in enumerate(successors(s)):
            if t not in back:
                back[t] = (None, c, si)
                yield t
                queue.append(t)
    while queue:
        cur = queue.popleft()
        for c, t in enumerate(successors(cur)):
            if t not in back:
                back[t] = (cur, c, 0)
                yield t
                queue.append(t)


def reach_set(source: tuple[int, ...],
              successors: Successors) -> frozenset[tuple[int, ...]]:
    """Every tuple reached from ``source`` by a nonempty word: the orbit
    ``source·S``, so at most |S| tuples."""
    back: dict = {}
    for _ in _bfs((source,), successors, back):
        pass
    return frozenset(back)


def multi_tuple_reachability(
    gens: GeneratorSet,
    sources: Iterable[Sequence[int]],
    targets: Iterable[Sequence[int]] | Callable[[tuple[int, ...]], bool],
    min_length: int = 1,
    budget: int = STATE_BUDGET,
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Shortest word moving some source tuple into the target set, componentwise.

    Returns ``(source, word)`` or None.  Among shortest words the earliest
    source in lexicographic order wins, and the word itself is the
    lexicographically least by generator index.  ``min_length`` 0 permits the
    empty word; 1 demands at least one generator application.
    """
    if min_length not in (0, 1):
        raise ValueError("min_length must be 0 or 1")
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
    n_states = n ** d
    if n_states > budget:
        raise StateBudgetExceeded(n_states, budget)

    if callable(targets):
        is_target = targets
    else:
        tset = set(tuple(t) for t in targets)
        for t in tset:
            if len(t) != d:
                raise ValueError("target dimension differs from source dimension")
        is_target = tset.__contains__

    if min_length == 0:
        for s in srcs:
            if is_target(s):
                return s, ()

    back: dict = {}
    for hit in _bfs(srcs, tuple_successors(gens), back):
        if is_target(hit):
            word = []
            cur = hit
            while True:
                prev, c, si = back[cur]
                word.append(c + 1)
                if prev is None:
                    return srcs[si], tuple(reversed(word))
                cur = prev
    return None


def tuple_reachability(
    gens: GeneratorSet,
    start: Sequence[int],
    targets: Iterable[Sequence[int]] | Callable[[tuple[int, ...]], bool],
    min_length: int = 1,
    budget: int = STATE_BUDGET,
) -> tuple[int, ...] | None:
    """Canonical shortest word moving ``start`` into the target set, or None."""
    hit = multi_tuple_reachability(gens, [start], targets, min_length, budget)
    return None if hit is None else hit[1]
