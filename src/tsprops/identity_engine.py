"""Deciding fixed quasi-identities: premises x_i = x_i^2 for chosen variables,
conclusion u = v for words u, v over the variables.

A counterexample assignment is witnessed by its *boundary trajectories*: the
point sequences p_1..p_{l+1} and q_1..q_{r+1} traced by the two sides from a
common start p_1 = q_1 to distinct ends.  The search enumerates boundary
valuations and asks, per variable independently, whether one word can realize
all of that variable's required transitions simultaneously (plus, for
idempotency-constrained variables, re-fixing each landing point).

Two devices keep the enumeration honest but small:

* Slots provably forced equal are merged up front by a union-find closure:
  starting from p_1 = q_1, whenever two occurrences of one variable have
  merged source slots their target slots merge too (one word maps equal
  sources to equal targets).  If the two end slots merge, the conclusion is
  forced and the answer is TRUE with no search at all.
* Per-variable transition requirements are deduplicated to distinct
  (source class, target class) pairs.  A target tuple is feasible iff it lies
  in the source tuple's orbit under the componentwise action, which
  ``graph.reach_set`` computes by the package's one tuple-keyed
  breadth-first search.  Orbits are cached per source tuple, and each
  tuple's successors are memoised, for the whole valuation sweep of one
  ``models`` call.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import product
from operator import itemgetter

from .core import GeneratorSet
from .errors import ParseError, StateBudgetExceeded, UnknownPropertyError
from .graph import (STATE_BUDGET, reach_set, tuple_reachability,
                    tuple_successors)
from .report import PropertyReport, ReportBuilder

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


def preset(name: str) -> QuasiIdentity:
    try:
        return PRESETS[name]
    except KeyError:
        raise UnknownPropertyError(name) from None


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
    maps a source tuple to its orbit, memoised by one ``models`` call.
    """

    def __init__(self, gens: GeneratorSet, pairs: list[tuple[int, int]],
                 orbit, budget: int):
        self.gens = gens
        space = gens.degree ** len(pairs)
        if space > budget:
            raise StateBudgetExceeded(space, budget)
        self._source = _projection([s for s, _ in pairs])
        self._target = _projection([t for _, t in pairs])
        self._orbit = orbit

    def feasible(self, valuation) -> bool:
        return self._target(valuation) in self._orbit(self._source(valuation))

    def witness_word(self, valuation) -> tuple[int, ...]:
        word = tuple_reachability(self.gens, self._source(valuation),
                                  {self._target(valuation)}, min_length=1)
        if word is None:
            raise RuntimeError("feasible transition lost its word; this is a bug")
        return word


def models(gens: GeneratorSet, qid: QuasiIdentity,
           budget: int = STATE_BUDGET,
           property_name: str | None = None) -> PropertyReport:
    """TRUE iff every assignment (idempotent elements for constrained
    variables) makes the two words equal."""
    rb = ReportBuilder(property_name or "quasi-identity", gens, "structural")
    n = gens.degree
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
        # Equal sources force equal targets all the way to both ends: the
        # conclusion holds under every assignment.
        return rb.true()

    roots = sorted({uf.find(s) for s in range(slots)})
    class_index = {root: idx for idx, root in enumerate(roots)}
    slot_class = [class_index[uf.find(s)] for s in range(slots)]
    classes = len(roots)
    if n ** classes > budget:
        raise StateBudgetExceeded(n ** classes, budget)
    end_left, end_right = slot_class[last_left], slot_class[last_right]

    # One models call memoises every tuple's successors and every source
    # tuple's orbit; an orbit depends on the tuple alone, not on the variable.
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
    searches: dict[int, _VariableSearch] = {}
    for i in range(1, qid.variables + 1):
        pairs = sorted({(slot_class[s], slot_class[t])
                        for s, t in occurrences[i]})
        if pairs:
            searches[i] = _VariableSearch(gens, pairs, orbit, budget)

    search_list = list(searches.values())
    for valuation in product(range(1, n + 1), repeat=classes):
        if valuation[end_left] == valuation[end_right]:
            continue
        for search in search_list:
            if not search.feasible(valuation):
                break
        else:
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
            witness = {
                "kind": "quasi-identity-counterexample",
                "identity": qid.render(),
                "boundary_left": [valuation[slot_class[s]]
                                  for s in range(0, l + 1)],
                "boundary_right": [valuation[slot_class[s]]
                                   for s in range(l + 1, slots)],
                "assignment": assignment,
                "note": ("constrained variables stand for the idempotent "
                         "power of the reported word's element"),
            }
            return rb.false(witness)
    return rb.true()


def is_band(gens: GeneratorSet, budget: int = STATE_BUDGET) -> PropertyReport:
    return models(gens, PRESETS["band"], budget, property_name="band")


def idempotents_commute(gens: GeneratorSet,
                        budget: int = STATE_BUDGET) -> PropertyReport:
    return models(gens, PRESETS["commuting_idempotents"], budget,
                  property_name="idempotents-commute")


def idempotents_central(gens: GeneratorSet,
                        budget: int = STATE_BUDGET) -> PropertyReport:
    return models(gens, PRESETS["central_idempotents"], budget,
                  property_name="idempotents-central")


def is_orthodox(gens: GeneratorSet,
                budget: int = STATE_BUDGET) -> PropertyReport:
    return models(gens, PRESETS["orthodox"], budget,
                  property_name="orthodox")
