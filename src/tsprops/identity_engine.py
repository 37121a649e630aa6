"""Deciding fixed quasi-identities: premises x_i = x_i^2 for chosen variables,
conclusion u = v for words u, v over the variables.

A counterexample assignment is witnessed by its *boundary trajectories*: the
point sequences p_1..p_{l+1} and q_1..q_{r+1} traced by the two sides from a
common start p_1 = q_1 to distinct ends.  The search enumerates boundary
valuations and asks, per variable independently, whether one word can realize
all of that variable's required transitions simultaneously (plus, for
idempotency-constrained variables, re-fixing each landing point).

Three devices keep the enumeration honest but small:

* Slots provably forced equal are merged up front by a union-find closure:
  starting from p_1 = q_1, whenever two occurrences of one variable have
  merged source slots their target slots merge too (one word maps equal
  sources to equal targets).  If the two end slots merge, the conclusion is
  forced and the answer is TRUE with no search at all.  The classes depend
  on the quasi-identity alone and are computed once per quasi-identity.
* Per-variable transition requirements are deduplicated to distinct
  (source class, target class) pairs.  A target tuple is feasible iff it lies
  in the source tuple's orbit under the componentwise action, which
  ``graph.reach_set`` closes over a successor function memoised here.
  The orbit is looked up under the distinct source points: a valuation
  turns the pairs into a partial map from source points to target points,
  and is infeasible at once if one point needs two targets.  Otherwise the
  map's values on the ascending tuple of its points must lie in that
  tuple's orbit; one word maps equal points to equal points, so the answer
  is the same as for the original tuples.  Orbits are memoised under these
  ascending tuples, so tuples that repeat or permute one point set share
  one closure, and each tuple's successors are memoised, for the whole
  valuation search of one ``models`` call; only a counterexample's words
  come from ``graph``'s ordered search, run on the original tuples.
* Valuations are assigned depth-first, class by class in index order, and a
  partial valuation is abandoned as soon as it fails: a variable is tested
  once its highest class is bound, the end classes once both are.  A class
  b that is the target of a pair (a, b) with a < b takes its values only
  from the orbit of the bound point v_a, because a nonempty word maps v_a
  to v_b; that orbit is the memoised orbit of the 1-tuple (v_a,).  The
  surviving valuations are met in the lexicographic order of
  a full sweep, so the first counterexample, and the witness built from
  it, are the ones the full sweep would give.
"""

from __future__ import annotations

import re
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cache
from operator import itemgetter
from typing import NamedTuple

from .core import GeneratorSet
from .errors import ParseError
from .graph import (reach_set, tuple_reachability, tuple_successors,
                    within_budget)
from .report import PropertyReport, ReportBuilder, remembered

_VARIABLE = re.compile(r"x([1-9])")


@dataclass(frozen=True)
class QuasiIdentity:
    """Premises x_i = x_i^2 for i in idempotent_vars, conclusion lhs = rhs."""

    variables: int
    idempotent_vars: frozenset[int]
    lhs: tuple[int, ...]
    rhs: tuple[int, ...]

    def __post_init__(self):
        if self.variables < 1:
            raise ValueError("at least one variable required")
        if not self.lhs or not self.rhs:
            raise ValueError("both words must be nonempty")
        for letter in (*self.lhs, *self.rhs):
            if not 1 <= letter <= self.variables:
                raise ValueError(f"letter {letter} outside 1..{self.variables}")
        if not self.idempotent_vars <= set(range(1, self.variables + 1)):
            raise ValueError("idempotent variable outside declared range")

    def render(self) -> str:
        body = (" ".join(f"x{i}" for i in self.lhs) + " = "
                + " ".join(f"x{i}" for i in self.rhs))
        if self.idempotent_vars:
            head = "idem(" + ",".join(f"x{i}" for i in sorted(self.idempotent_vars)) + ") => "
            return head + body
        return body


def parse_quasi_identity(text: str) -> QuasiIdentity:
    """Parse `idem(x1,x2) => x1 x2 = x2 x1` style input.

    Variables are x1..x9, words are whitespace-separated variables, the
    premise clause is optional.
    """
    s = text.strip()
    idem: set[int] = set()
    if "=>" in s:
        head, _, s = s.partition("=>")
        m = re.fullmatch(r"idem\(([^()]*)\)", head.strip())
        if m is None:
            raise ParseError(1, "premise must have the form idem(x1,x2)")
        for tok in m.group(1).split(","):
            tok = tok.strip()
            mv = _VARIABLE.fullmatch(tok)
            if mv is None:
                raise ParseError(1, f"bad variable {tok!r} in idem(...)")
            idem.add(int(mv.group(1)))
        s = s.strip()
    if s.count("=") != 1:
        raise ParseError(1, "expected exactly one '=' between two words")
    left, right = s.split("=")

    def parse_word(part: str, side: str) -> tuple[int, ...]:
        tokens = part.split()
        if not tokens:
            raise ParseError(1, f"{side} word is empty")
        out = []
        for tok in tokens:
            mv = _VARIABLE.fullmatch(tok)
            if mv is None:
                raise ParseError(
                    1, f"unrecognized token {tok!r} (variables are x1..x9, "
                       "separated by spaces)")
            out.append(int(mv.group(1)))
        return tuple(out)

    lhs = parse_word(left, "left")
    rhs = parse_word(right, "right")
    m = max(*lhs, *rhs, *idem) if idem else max(*lhs, *rhs, 1)
    try:
        return QuasiIdentity(m, frozenset(idem), lhs, rhs)
    except ValueError as exc:
        raise ParseError(1, str(exc)) from exc


PRESETS: dict[str, QuasiIdentity] = {
    # every element is idempotent
    "band": QuasiIdentity(1, frozenset(), (1, 1), (1,)),
    # idempotents commute with each other
    "commuting_idempotents": QuasiIdentity(2, frozenset({1, 2}), (1, 2), (2, 1)),
    # idempotents commute with everything
    "central_idempotents": QuasiIdentity(2, frozenset({1}), (1, 2), (2, 1)),
    # products of idempotents are idempotent
    "orthodox": QuasiIdentity(2, frozenset({1, 2}), (1, 2, 1, 2), (1, 2)),
    # x^2 y = x^2: every square absorbs on the right
    "squares_are_left_zeros": QuasiIdentity(2, frozenset(), (1, 1, 2), (1, 1)),
    # idempotents act as left / right identities (two halves of the
    # group-characterizing pair of implications)
    "idempotents_left_neutral": QuasiIdentity(2, frozenset({1}), (1, 2), (2,)),
    "idempotents_right_neutral": QuasiIdentity(2, frozenset({1}), (2, 1), (2,)),
}


class _UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True


def _projection(indices: list[int]):
    """The function taking a valuation to the tuple of its entries at
    ``indices``."""
    if len(indices) == 1:
        i, = indices
        return lambda valuation: (valuation[i],)
    return itemgetter(*indices)


class _VariableSearch:
    """Cached reachability for one variable's deduplicated transition pairs.

    State tuples hold one coordinate per distinct (source class, target class)
    pair; a target tuple is reachable from a source tuple iff one word (of
    length >= 1) realizes every required transition at once.  ``orbit``
    maps an ascending tuple of distinct points to its orbit, memoised by
    one ``models`` call.
    """

    def __init__(self, gens: GeneratorSet, pairs: Sequence[tuple[int, int]],
                 orbit):
        self.gens = gens
        within_budget(gens.degree ** len(pairs))
        self._source = _projection([s for s, _ in pairs])
        self._target = _projection([t for _, t in pairs])
        self._orbit = orbit

    def feasible(self, valuation) -> bool:
        image = {}
        for p, q in zip(self._source(valuation), self._target(valuation)):
            if image.setdefault(p, q) != q:
                return False
        key = tuple(sorted(image))
        return tuple(map(image.__getitem__, key)) in self._orbit(key)

    def witness_word(self, valuation) -> tuple[int, ...]:
        word = tuple_reachability(self.gens, self._source(valuation),
                                  {self._target(valuation)})
        if word is None:
            raise RuntimeError("feasible transition lost its word; this is a bug")
        return word


class _Classes(NamedTuple):
    """The slot classes of one quasi-identity, which depend on it alone.

    ``slot_class[s]`` numbers the class of slot s; ``pairs`` holds
    ``(i, transitions)`` for each variable i that occurs, in order, with its
    distinct (source class, target class) transitions ascending;
    ``sources[b]`` lists ascending the classes a < b with (a, b) a
    transition of some variable.
    """

    slot_class: tuple[int, ...]
    classes: int
    end_left: int
    end_right: int
    pairs: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]
    sources: tuple[tuple[int, ...], ...]


@cache
def _slot_classes(qid: QuasiIdentity) -> _Classes | None:
    """Merge the slots provably forced equal; None when that merges the two
    end slots, so the conclusion holds under every assignment.  Computed
    once per quasi-identity."""
    l, r = len(qid.lhs), len(qid.rhs)
    # Slots 0..l trace the left word, slots l+1..l+r+1 the right word.
    slots = l + r + 2
    last_left, last_right = l, l + r + 1
    uf = _UnionFind(slots)
    uf.union(0, l + 1)

    occurrences: dict[int, list[tuple[int, int]]] = {
        i: [] for i in range(1, qid.variables + 1)}
    for j, letter in enumerate(qid.lhs):
        occurrences[letter].append((j, j + 1))
    for j, letter in enumerate(qid.rhs):
        occurrences[letter].append((l + 1 + j, l + 2 + j))
    for i in qid.idempotent_vars:
        occurrences[i].extend([(t, t) for _, t in occurrences[i]])

    changed = True
    while changed:
        changed = False
        for pairs in occurrences.values():
            first_target: dict[int, int] = {}
            for s, t in pairs:
                root = uf.find(s)
                if root in first_target:
                    if uf.union(first_target[root], t):
                        changed = True
                else:
                    first_target[root] = t
    if uf.find(last_left) == uf.find(last_right):
        # Equal sources force equal targets all the way to both ends.
        return None

    roots = sorted({uf.find(s) for s in range(slots)})
    class_index = {root: idx for idx, root in enumerate(roots)}
    slot_class = tuple(class_index[uf.find(s)] for s in range(slots))
    pairs = []
    sources: list[set[int]] = [set() for _ in roots]
    for i, occ in occurrences.items():
        if occ:
            transitions = tuple(sorted({(slot_class[s], slot_class[t])
                                        for s, t in occ}))
            pairs.append((i, transitions))
            for a, b in transitions:
                if a < b:
                    sources[b].add(a)
    return _Classes(slot_class, len(roots), slot_class[last_left],
                    slot_class[last_right], tuple(pairs),
                    tuple(tuple(sorted(srcs)) for srcs in sources))


@remembered
def models(gens: GeneratorSet, qid: QuasiIdentity,
           property_name: str | None = None) -> PropertyReport:
    """TRUE iff every assignment (idempotent elements for constrained
    variables) makes the two words equal."""
    rb = ReportBuilder(property_name or "quasi-identity", gens, "structural")
    merged = _slot_classes(qid)
    if merged is None:
        return rb.true()
    n = gens.degree
    slot_class, classes, end_left, end_right, pairs, sources = merged
    within_budget(n ** classes)

    # One models call memoises every tuple's successors and the orbit of
    # every ascending tuple of distinct points that a variable's test looks
    # up; an orbit depends on the tuple alone, not on the variable.
    # Tuples on one cycle share their orbit, so equal orbits are stored once.
    step = tuple_successors(gens)
    successor_memo: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    orbit_memo: dict[tuple[int, ...], frozenset[tuple[int, ...]]] = {}
    distinct_orbits: dict[frozenset, frozenset] = {}

    def successors(t: tuple[int, ...]) -> list[tuple[int, ...]]:
        succ = successor_memo.get(t)
        if succ is None:
            succ = successor_memo[t] = step(t)
        return succ

    def orbit(src: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
        hit = orbit_memo.get(src)
        if hit is None:
            hit = reach_set(src, successors)
            hit = orbit_memo[src] = distinct_orbits.setdefault(hit, hit)
        return hit

    # Variables with no occurrences stay unconstrained; any word serves them.
    # A variable is tested as soon as its highest class is bound.
    searches: dict[int, _VariableSearch] = {}
    tests_at: list[list] = [[] for _ in range(classes)]
    for i, transitions in pairs:
        searches[i] = _VariableSearch(gens, transitions, orbit)
        tests_at[max(map(max, transitions))].append(searches[i].feasible)
    ends_at = max(end_left, end_right)

    # When class b is the target of a transition (a, b) with a < b, a
    # nonempty word maps v_a to v_b, so b takes its values only from the
    # orbit of the point v_a, the 1-tuple orbit of (v_a,), sorted when first
    # needed.
    points = range(1, n + 1)
    point_orbits: dict[int, list[int]] = {}
    valuation = [0] * classes

    def point_orbit(p: int) -> list[int]:
        """The points p·w for nonempty words w, ascending."""
        hit = point_orbits.get(p)
        if hit is None:
            hit = point_orbits[p] = sorted(q for (q,) in orbit((p,)))
        return hit

    def values(depth: int) -> Iterator[int]:
        """Candidate values of class ``depth``, ascending."""
        allowed = points
        for a in sources[depth]:
            orbit_a = point_orbit(valuation[a])
            if allowed is points:
                allowed = orbit_a
            else:
                allowed = [q for q in allowed if q in orbit_a]
        return iter(allowed)

    # Depth-first over the classes in index order: the valuations that pass
    # every test are met in the lexicographic order of
    # product(range(1, n + 1), repeat=classes), so the first counterexample
    # is the same as a full sweep's.
    stack = [values(0)]
    while stack:
        depth = len(stack) - 1
        for value in stack[-1]:
            valuation[depth] = value
            if (depth == ends_at
                    and valuation[end_left] == valuation[end_right]):
                continue
            for feasible in tests_at[depth]:
                if not feasible(valuation):
                    break
            else:
                break
        else:
            stack.pop()
            continue
        if depth + 1 < classes:
            stack.append(values(depth + 1))
            continue
        assignment = []
        for i in range(1, qid.variables + 1):
            if i in searches:
                word = searches[i].witness_word(valuation)
            else:
                word = (1,)
            assignment.append({
                "var": i,
                "word": list(word),
                "idempotent_substitution": i in qid.idempotent_vars,
            })
        l = len(qid.lhs)
        witness = {
            "kind": "quasi-identity-counterexample",
            "identity": qid.render(),
            "boundary_left": [valuation[c] for c in slot_class[:l + 1]],
            "boundary_right": [valuation[c] for c in slot_class[l + 1:]],
            "assignment": assignment,
            "note": ("constrained variables stand for the idempotent "
                     "power of the reported word's element"),
        }
        return rb.false(witness)
    return rb.true()


def is_band(gens: GeneratorSet) -> PropertyReport:
    return models(gens, PRESETS["band"], "band")


def idempotents_commute(gens: GeneratorSet) -> PropertyReport:
    return models(gens, PRESETS["commuting_idempotents"],
                  "idempotents-commute")


def idempotents_central(gens: GeneratorSet) -> PropertyReport:
    return models(gens, PRESETS["central_idempotents"],
                  "idempotents-central")


def is_orthodox(gens: GeneratorSet) -> PropertyReport:
    return models(gens, PRESETS["orthodox"], "orthodox")
