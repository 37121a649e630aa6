"""Reachability-based property checkers.

Each property here is characterized by the existence (or absence) of paths in
the transformation graph, in its componentwise action on point tuples, or in
its action on (image, point pair) states, so every check reduces to
breadth-first search and yields a replayable witness.
"""

from __future__ import annotations

from .core import GeneratorSet, fixed_points
from .errors import PreconditionError
from .graph import (closure, has_cycle, multi_tuple_reachability,
                    strong_components, transformation_graph,
                    undirected_components, within_budget)
from .report import PropertyReport, ReportBuilder, all_of, remembered


@remembered
def has_right_zero(gens: GeneratorSet) -> PropertyReport:
    """A right zero exists iff every two points in one (undirected) component
    of the transformation graph are collapsed by some element.

    One backward closure over the graph of unordered pairs {p, q}, p < q,
    of points in one component (the generators map a component into
    itself) marks every collapsible pair at once: it starts from the pairs
    that some generator collapses and adds each pair that a generator
    takes to a marked pair.  The pairs are then scanned in order, so the
    first non-collapsible pair is the witness a per-pair search would give.
    """
    rb = ReportBuilder("right-zero", gens, "structural")
    n = gens.degree
    pairs = [(p, q)
             for comp in undirected_components(transformation_graph(gens))
             for i, p in enumerate(comp) for q in comp[i + 1:]]
    if pairs:
        # The state space of the ordered pair search this closure replaced.
        within_budget(n * n)
    maps = [(0,) + g.map for g in gens]
    collapsed = set()
    # A generator maps each component into itself, so every pair it
    # reaches from ``pairs`` is one of them.
    preds: dict[tuple[int, int], list] = {pair: [] for pair in pairs}
    for p, q in pairs:
        for m in maps:
            a, b = m[p], m[q]
            if a == b:
                collapsed.add((p, q))
                break
            preds[(a, b) if a < b else (b, a)].append((p, q))
    collapsible = closure(collapsed, preds.__getitem__)
    for p, q in pairs:
        if (p, q) not in collapsible:
            return rb.false({"kind": "non-collapsible-pair", "pair": [p, q]})
    return rb.true()


@remembered
def has_left_zero(gens: GeneratorSet) -> PropertyReport:
    """A left zero exists iff every point can be moved into the fixed-point
    set by some element.

    One backward closure over the transformation graph, from the fixed
    points, marks every point with a path into them; a fixed point counts,
    since every generator keeps it there.  The points are then scanned in
    order, so the first unmarked point is the witness.
    """
    rb = ReportBuilder("left-zero", gens, "structural")
    fix = fixed_points(gens)
    if not fix:
        return rb.false({"kind": "point-misses-fixed", "point": 1,
                         "fixed_points": []})
    n = gens.degree
    within_budget(n)
    preds: list[list[int]] = [[] for _ in range(n + 1)]
    for g in gens:
        for p, q in enumerate(g.map, start=1):
            preds[q].append(p)
    reaching = closure(fix, preds.__getitem__)
    for q in range(1, n + 1):
        if q not in reaching:
            return rb.false({"kind": "point-misses-fixed", "point": q,
                             "fixed_points": sorted(fix)})
    return rb.true()


@remembered
def has_zero(gens: GeneratorSet) -> PropertyReport:
    """A zero exists iff both a left zero and a right zero exist."""
    return all_of("zero", gens, has_left_zero, has_right_zero)


def is_nilpotent(gens: GeneratorSet) -> PropertyReport:
    """Nilpotent iff a zero exists and the transformation graph restricted to
    the non-fixed points is acyclic (self-loops forbidden).

    The zero's image equals the fixed-point set, so the restriction never
    needs the zero element itself.
    """
    rb = ReportBuilder("nilpotent", gens, "structural")
    zero = has_zero(gens)
    if not zero.verdict:
        return rb.false(zero.witness)
    fix = fixed_points(gens)
    restrict = [q for q in range(1, gens.degree + 1) if q not in fix]
    cyclic, cycle = has_cycle(transformation_graph(gens, restrict),
                              ignore_self_loops=False)
    if cyclic:
        return rb.false({"kind": "graph-cycle", "vertices": "non-fixed",
                         "cycle": list(cycle)})
    return rb.true()


def nilpotency_degree_upper_bound(gens: GeneratorSet) -> int:
    """1 + the longest path (in edges) of the restricted acyclic graph.

    Once a point enters the fixed-point set it stays there, and inside the
    non-fixed set a trajectory follows a path of the restricted DAG, so every
    product of that many generators is a left zero — and with a zero present,
    the zero itself.  Hence the value bounds the exact nilpotency degree from
    above, and it is at most n.
    """
    report = is_nilpotent(gens)
    if not report.verdict:
        raise PreconditionError(
            "nilpotency degree bound is defined only for nilpotent semigroups")
    fix = fixed_points(gens)
    restrict = [q for q in range(1, gens.degree + 1) if q not in fix]
    position = {q: i for i, q in enumerate(restrict)}
    edges = transformation_graph(gens, restrict).successors()
    succ = [[position[w] for w in edges[q]] for q in restrict]
    # The restricted graph is acyclic, so its components are single
    # vertices and each closes after every vertex it reaches.
    depth = [0] * len(restrict)
    for (v,) in strong_components(succ)[1]:
        depth[v] = 1 + max((depth[w] for w in succ[v]), default=-1)
    return 1 + max(depth, default=0)


def is_r_trivial(gens: GeneratorSet) -> PropertyReport:
    """R-trivial iff every cycle of the transformation graph is a self-loop."""
    rb = ReportBuilder("r-trivial", gens, "structural")
    found, cycle = has_cycle(transformation_graph(gens), ignore_self_loops=True)
    if found:
        return rb.false({"kind": "graph-cycle", "vertices": "all",
                         "cycle": list(cycle)})
    return rb.true()


@remembered
def is_completely_regular(gens: GeneratorSet) -> PropertyReport:
    """Completely regular iff no element collapses two points of its own image.

    The violating pattern is a word w and points p, q, u, v with p·w = u,
    q·w = v, u ≠ v and u·w = v·w.  Points p and q with p·w = u and q·w = v
    exist iff u and v both lie in im(w), so the ordered pair (u, v) is
    violated iff some nonempty word w reaches a state
    (im(w), u·w, v·w) = (A, x, y) with x = y and u, v ∈ A.  A generator g
    takes the state of w to the state of w·g, since im(w·g) = im(w)·g, so a
    breadth-first search from the states (im(g), u·g, v·g) of the
    generators meets the state of every nonempty word and no other.

    The pattern is symmetric under swapping (p, u) with (q, v), so (v, u)
    is violated iff (u, v) is, and the first violated pair in the order
    (1, 2), (1, 3), .., (2, 1), .. has u < v; only those pairs are searched.
    The witness comes from one multi-source search over the point
    quadruples (p, q, u, v) of the first violated pair: the shortest word,
    with the earliest (p, q).

    Each distinct image is stored once, with its successors, for all pairs.
    A pair's state search stops once its states plus the points of the
    stored images exceed n**4, the quadruple search's own bound, and the
    quadruple search then decides the pair; so no pair holds more than
    about n**4 states or image points in either search.
    """
    rb = ReportBuilder("completely-regular", gens, "structural")
    n = gens.degree
    limit = n ** 4
    if n > 1:
        within_budget(limit)
    points = range(1, n + 1)
    maps = [(0,) + g.map for g in gens]
    canon: dict[frozenset[int], frozenset[int]] = {}
    starts = []
    for g, m in zip(gens, maps):
        image = frozenset(g.map)
        starts.append((canon.setdefault(image, image), m))
    cells = sum(map(len, canon))    # points held by the stored images
    image_steps: dict[frozenset[int], list[frozenset[int]]] = {}

    def collapses(u: int, v: int) -> bool | None:
        """Whether (u, v) is violated; None past the ``limit``."""
        nonlocal cells
        queue = [(image, m[u], m[v]) for image, m in starts]
        seen = set(queue)
        for image, x, y in queue:
            if x == y and u in image and v in image:
                return True
            if len(seen) + cells > limit:
                return None
            steps = image_steps.get(image)
            if steps is None:
                steps = image_steps[image] = []
                for m in maps:
                    nxt = frozenset(map(m.__getitem__, image))
                    stored = canon.setdefault(nxt, nxt)
                    if stored is nxt:
                        cells += len(nxt)
                    steps.append(stored)
            for nxt, m in zip(steps, maps):
                state = (nxt, m[x], m[y])
                if state not in seen:
                    seen.add(state)
                    queue.append(state)
        return False

    for u in points:
        for v in range(u + 1, n + 1):
            if collapses(u, v) is False:
                continue
            sources = [(p, q, u, v) for p in points for q in points]

            def is_target(t, _u=u, _v=v):
                return t[0] == _u and t[1] == _v and t[2] == t[3]

            hit = multi_tuple_reachability(gens, sources, is_target)
            if hit is not None:
                (p, q, _, _), word = hit
                return rb.false({"kind": "image-collapse", "p": p, "q": q,
                                 "u": u, "v": v, "word": list(word)})
    return rb.true()


def is_regular_commutative(gens: GeneratorSet) -> PropertyReport:
    """For commutative semigroups, regular coincides with completely regular."""
    from .fo_checks import is_commutative

    rb = ReportBuilder("regular", gens, "structural")
    if not is_commutative(gens).verdict:
        raise PreconditionError(
            "this regularity check applies only to commutative semigroups")
    inner = is_completely_regular(gens)
    return rb.done(inner.verdict, inner.witness)


def is_clifford(gens: GeneratorSet) -> PropertyReport:
    """Clifford iff completely regular with commuting idempotents."""
    from .identity_engine import idempotents_commute

    return all_of("clifford", gens, is_completely_regular, idempotents_commute)
