"""Brute-force ground truth: enumerate all elements, then decide properties
directly from their definitions.

The enumeration is a breadth-first closure under right multiplication by
generators, so element ``i``'s canonical word (shortest, then lexicographically
least by generator index) is recovered by following discovery parents.  One
pure-Python pass over map tuples fills the index, the parents and the right
Cayley graph ``succ`` together, as Froidure and Pin's enumeration does; the
numpy arrays the vectorised checkers read are built once, at the end.
Universally quantified conditions are evaluated over the whole element table;
where a condition over all elements provably reduces to the generator case by
associativity alone (left/right zeros, identities, commuting, centrality),
the loop runs over generators.  ``regular`` is still the definition, some t
with s·t·s = s for every s, but it tries the candidates t in index order
one block at a time, for a chunk of s at once, and an s stops at the first
block that holds its t; the first s left without one is the witness, as if
each s had been tried against every t in turn.  R-triviality takes the
right-multiplication graph's components from
``graph.iter_strong_components`` as they close and stops at the first one
with two members, the witness; its connecting words come from
``graph.search`` and ``graph.trace``.  The structural ``r-trivial`` uses
neither.

Each fact derived from the table is computed once and cached on it: the
idempotent mask and powers, the left-zero, right-zero and zero masks, the
left- and right-identity masks (all four from one generator equation), and
the stable power of the chain S, S², S³, ….  The checkers and witness
replay read them from there rather than computing them again.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cached_property, partial
from itertools import chain
from math import lcm
from operator import itemgetter

import numpy as np

from .core import DEFAULT_CAP, GeneratorSet, Transformation
from .errors import EnumerationCapExceeded, StateBudgetExceeded, UnknownPropertyError
from .graph import iter_strong_components, search, trace
from .report import PropertyReport, ReportBuilder, Verdict


def _compose_rows(first: np.ndarray, then: np.ndarray) -> np.ndarray:
    # Row-wise product: apply `first`, then `then` (both 0-indexed image rows).
    return np.take_along_axis(then, first, axis=1)


def _power_rows(maps: np.ndarray, e: int) -> np.ndarray:
    """Row-wise e-th power (e >= 1) by repeated squaring."""
    acc = None
    base = maps
    while e:
        if e & 1:
            acc = base if acc is None else _compose_rows(acc, base)
        e >>= 1
        if e:
            base = _compose_rows(base, base)
    return acc


class ElementTable:
    """Every element of the generated semigroup, in canonical word order."""

    def __init__(self, gens: GeneratorSet, elements: list[tuple[int, ...]],
                 parents: list[int], letters: list[int],
                 succ: list[int], index: dict[tuple[int, ...], int]):
        self.gens = gens
        self.degree = n = gens.degree
        images = np.fromiter(chain.from_iterable(elements), np.int16, len(elements) * n)
        self.maps = images.reshape(-1, n) - 1   # (m, n) int16, 0-indexed images
        # (m, k) int32; succ[i, c] = index of element i followed by generator c+1
        self.succ = np.array(succ, dtype=np.int32).reshape(-1, len(gens))
        self._elements = elements
        self._parents = parents
        self._letters = letters
        self._index = index

    def __len__(self) -> int:
        return len(self._elements)

    def word(self, i: int) -> tuple[int, ...]:
        """Canonical word (1-indexed generator indices) for element ``i``."""
        out = []
        while i >= 0:
            out.append(self._letters[i])
            i = self._parents[i]
        return tuple(reversed(out))

    def element(self, i: int) -> Transformation:
        return Transformation(self.degree, self._elements[i])

    def index_of(self, t: Transformation) -> int | None:
        return self._index.get(t.map)

    def describe(self, i: int) -> dict:
        """Witness fragment naming element ``i``."""
        return {"map": list(self._elements[i]), "word": list(self.word(i))}

    @cached_property
    def generator_arrays(self) -> np.ndarray:
        return self.maps[self.generator_indices]

    @cached_property
    def generator_indices(self) -> list[int]:
        # Table index of each generator (duplicates share an element).
        return [self._index[g.map] for g in self.gens.generators]

    @cached_property
    def squares(self) -> np.ndarray:
        return _compose_rows(self.maps, self.maps)

    @cached_property
    def idempotent_mask(self) -> np.ndarray:
        return (self.squares == self.maps).all(axis=1)

    @cached_property
    def idempotent_indices(self) -> np.ndarray:
        return np.flatnonzero(self.idempotent_mask)

    @cached_property
    def _uniform_exponent(self) -> int:
        # Any common multiple of all periods that is >= every index; powers at
        # this exponent are simultaneously idempotent.
        return lcm(*range(1, self.degree + 1))

    @cached_property
    def power_uniform(self) -> np.ndarray:
        """Row-wise idempotent power s^omega for every element."""
        return _power_rows(self.maps, self._uniform_exponent)

    @cached_property
    def power_uniform_next(self) -> np.ndarray:
        """Row-wise s^(omega+1)."""
        return _compose_rows(self.power_uniform, self.maps)

    @cached_property
    def left_zero_mask(self) -> np.ndarray:
        return _generator_equation(self, "left", to_generator=False)

    @cached_property
    def right_zero_mask(self) -> np.ndarray:
        return _generator_equation(self, "right", to_generator=False)

    @cached_property
    def zero_mask(self) -> np.ndarray:
        return self.left_zero_mask & self.right_zero_mask

    @cached_property
    def left_identity_mask(self) -> np.ndarray:
        return _generator_equation(self, "left", to_generator=True)

    @cached_property
    def right_identity_mask(self) -> np.ndarray:
        return _generator_equation(self, "right", to_generator=True)

    @cached_property
    def stable_power(self) -> tuple[int, np.ndarray]:
        """(d, mask of S^d) for the first S^d with S^(d+1) = S^d; only the
        last mask of ``set_powers`` is kept, as the chain can be |S| long."""
        for d, power in enumerate(set_powers(self), start=1):
            pass
        return d, power


def enumerate_semigroup(gens: GeneratorSet, cap: int = DEFAULT_CAP) -> ElementTable:
    """BFS closure of the generators under right multiplication.

    Each element is taken in discovery order and multiplied by every
    generator in turn, so the same pass that finds the elements fills in
    their rows of ``succ``.  Raises EnumerationCapExceeded as soon as the
    element count would pass ``cap``.
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    by_point = [(0,) + g.map for g in gens.generators]
    elements: list[tuple[int, ...]] = []
    index: dict[tuple[int, ...], int] = {}
    parents: list[int] = []     # -1 for a generator
    letters: list[int] = []     # last letter of the canonical word
    succ: list[int] = []        # row-major, one row of k per element
    # The generators are the identity's products, taken first; the identity
    # is an element only if a product reaches it.
    identity = tuple(range(1, gens.degree + 1))
    for i, t in chain([(-1, identity)], enumerate(elements)):
        # t·g reads g at t's images; itemgetter of one index gives no tuple.
        times = itemgetter(*t) if len(t) > 1 else lambda g, q=t[0]: (g[q],)
        for c, g in enumerate(by_point, start=1):
            u = times(g)
            j = index.get(u)
            if j is None:
                if len(elements) >= cap:
                    raise EnumerationCapExceeded(cap)
                j = index[u] = len(elements)
                elements.append(u)
                parents.append(i)
                letters.append(c)
            succ.append(j)
    return ElementTable(gens, elements, parents, letters, succ[len(gens):], index)


def times_generators(table: ElementTable, mask: np.ndarray) -> np.ndarray:
    """The set {s·a : s masked, a a generator}, one gather of ``table.succ``.

    Applied to S^d it gives S^(d+1).  S^d·A ⊆ S^(d+1) is clear.  For the
    converse take s·a_1⋯a_k with s ∈ S^d and generators a_i: it equals
    (s·a_1⋯a_(k−1))·a_k, and the left factor is s itself or lies in
    S^(d+1), which S² ⊆ S puts inside S^d; so the product lies in S^d·A.
    """
    out = np.zeros(len(table), dtype=bool)
    out[table.succ[mask].reshape(-1)] = True
    return out


def _generator_equation(table: ElementTable, side: str, to_generator: bool) -> np.ndarray:
    """Mask of the s with s.a (``side`` "left") or a.s ("right") equal to a
    if ``to_generator``, else to s, for every generator a.

    l.s = l for all s reduces to generators: l.(ab) = (l.a).b; l.s = s too,
    as l.(ab) = (l.a).b = ab; right zeros and identities likewise."""
    maps = table.maps
    mask = np.ones(len(table), dtype=bool)
    for a in table.generator_arrays:
        applied = a[maps] if side == "left" else maps[:, a]
        mask &= (applied == (a if to_generator else maps)).all(axis=1)
    return mask


def zero_index(table: ElementTable) -> int | None:
    """Index of the (necessarily unique) two-sided zero, if any."""
    hits = np.flatnonzero(table.zero_mask)
    return int(hits[0]) if hits.size else None


def left_identity_indices(table: ElementTable) -> list[int]:
    return np.flatnonzero(table.left_identity_mask).tolist()


def right_identity_indices(table: ElementTable) -> list[int]:
    return np.flatnonzero(table.right_identity_mask).tolist()


def set_powers(table: ElementTable) -> Iterator[np.ndarray]:
    """Yield the masks of S, S^2, S^3, ... up to the first S^d with
    S^(d+1) = S^d, each one ``times_generators`` of the last."""
    cur = np.ones(len(table), dtype=bool)
    # Each power before the fixed point is strictly smaller than the last.
    for _ in range(len(table) + 1):
        yield cur
        nxt = times_generators(table, cur)
        if (nxt == cur).all():
            return
        cur = nxt
    raise RuntimeError("set-product iteration failed to stabilise; this is a bug")


def nilpotency_degree(table: ElementTable) -> int | None:
    """Least d with S^d = {zero}, or None when S is not nilpotent.  As
    {zero}·A = {zero}, that can hold only at ``table.stable_power``."""
    if zero_index(table) is None:
        return None
    d, power = table.stable_power
    return d if power.sum() == 1 else None


def _word_between(table: ElementTable, src: int, dst: int) -> tuple[int, ...]:
    """Shortest-lex word w with src.w = dst in the right-multiplication graph."""
    source, target = table._elements[src], table._elements[dst]
    parent: dict = {}
    for t in search(table.gens, [source], parent):
        if t == target:
            return trace(table.gens, [source], parent, t)[1]
    raise RuntimeError("no connecting word; this is a bug")


def _pair_products(first: np.ndarray, then: np.ndarray) -> np.ndarray:
    """All pairwise products: out[i, j] is first[i] followed by then[j]."""
    j = np.arange(then.shape[0])
    return then[j[np.newaxis, :, np.newaxis], first[:, np.newaxis, :]]


def _first_bad_idempotent_pair(table, bad_pairs,
                               symmetric: bool) -> tuple[int, int] | None:
    """The first (i, j), in row-major order, at which ``bad_pairs`` flags the
    pair of idempotents (i, j), as positions in ``idempotent_indices``.

    ``bad_pairs(block, cols)`` gets two runs of idempotent rows and returns a
    boolean array over ``block`` x ``cols``.  Blocks go in order and hold at
    most len(table) // e rows each, so that their pairwise products hold no
    more entries than the table itself.

    A ``symmetric`` relation flags (j, i) whenever it flags (i, j), so its
    first flagged pair has i <= j: a pair with j < i would put (j, i) in an
    earlier row.  Block rows i >= lo are then compared only with the
    columns j >= lo, which halves the products.
    """
    rows = table.maps[table.idempotent_indices]
    e = rows.shape[0]
    size = max(1, len(table) // e)
    for lo in range(0, e, size):
        start = lo if symmetric else 0
        hits = np.argwhere(bad_pairs(rows[lo:lo + size], rows[start:]))
        if hits.size:
            i, j = (int(x) for x in hits[0])
            return lo + i, start + j
    return None


def _check_commutative(table):
    maps, A = table.maps, table.generator_arrays
    for c in range(A.shape[0]):
        left = A[c][maps]        # s . a_c
        right = maps[:, A[c]]    # a_c . s
        bad = np.flatnonzero((left != right).any(axis=1))
        if bad.size:
            i = int(bad[0])
            q = int(np.flatnonzero(left[i] != right[i])[0])
            return Verdict.FALSE, {
                "kind": "non-commuting-elements",
                "left": table.describe(i),
                "right": table.describe(table.generator_indices[c]),
                "point": q + 1,
            }
    return Verdict.TRUE, None


def _check_band(table):
    bad = np.flatnonzero(~table.idempotent_mask)
    if bad.size:
        return Verdict.FALSE, {"kind": "non-idempotent-element",
                               "element": table.describe(int(bad[0]))}
    return Verdict.TRUE, None


def _check_semilattice(table):
    verdict, witness = _check_band(table)
    if verdict is not Verdict.TRUE:
        return verdict, witness
    return _check_commutative(table)


def _check_certificate(table, role):
    # role is "left-zero", "right-zero" or "zero", named as the table's mask.
    hits = np.flatnonzero(getattr(table, role.replace("-", "_") + "_mask"))
    if hits.size:
        return Verdict.TRUE, {"kind": "element-certificate", "role": role,
                              "element": table.describe(int(hits[0]))}
    return Verdict.FALSE, None


def _check_nilpotent(table):
    z = zero_index(table)
    if z is None:
        return Verdict.FALSE, None
    degree = nilpotency_degree(table)
    if degree is not None:
        return Verdict.TRUE, {"kind": "nilpotency-degree", "degree": degree,
                              "zero": table.describe(z)}
    # The set products stabilised above {zero}: exhibit a persistent element.
    i = next(int(i) for i in np.flatnonzero(table.stable_power[1]) if i != z)
    return Verdict.FALSE, {"kind": "persistent-element", "element": table.describe(i)}


def _check_group(table):
    idems = table.idempotent_indices
    if idems.size > 1:
        return Verdict.FALSE, {
            "kind": "two-idempotents",
            "left": table.describe(int(idems[0])),
            "right": table.describe(int(idems[1])),
        }
    e = int(idems[0])
    maps = table.maps
    erow = maps[e]
    left_ok = (maps[:, erow] == maps).all(axis=1)   # e . s = s
    right_ok = (erow[maps] == maps).all(axis=1)     # s . e = s
    bad = np.flatnonzero(~(left_ok & right_ok))
    if bad.size:
        return Verdict.FALSE, {"kind": "identity-failure",
                               "idempotent": table.describe(e),
                               "element": table.describe(int(bad[0]))}
    bad = np.flatnonzero((table.power_uniform != erow).any(axis=1))
    if bad.size:
        return Verdict.FALSE, {"kind": "no-inverse-power",
                               "idempotent": table.describe(e),
                               "element": table.describe(int(bad[0]))}
    return Verdict.TRUE, None


def _check_idempotents_commute(table):
    def bad_pairs(block, cols):
        after = _pair_products(block, cols)    # e_i . e_j
        before = _pair_products(cols, block)   # e_j . e_i
        return (after != before.swapaxes(0, 1)).any(axis=2)

    hit = _first_bad_idempotent_pair(table, bad_pairs, symmetric=True)
    if hit is not None:
        i, j = hit
        return Verdict.FALSE, {
            "kind": "non-commuting-idempotents",
            "left": table.describe(int(table.idempotent_indices[i])),
            "right": table.describe(int(table.idempotent_indices[j])),
        }
    return Verdict.TRUE, None


def _check_orthodox(table):
    def bad_pairs(block, cols):
        flat = _pair_products(block, cols).reshape(-1, cols.shape[1])
        bad = (_compose_rows(flat, flat) != flat).any(axis=1)
        return bad.reshape(block.shape[0], cols.shape[0])

    hit = _first_bad_idempotent_pair(table, bad_pairs, symmetric=False)
    if hit is not None:
        i, j = hit
        return Verdict.FALSE, {
            "kind": "non-idempotent-product",
            "left": table.describe(int(table.idempotent_indices[i])),
            "right": table.describe(int(table.idempotent_indices[j])),
        }
    return Verdict.TRUE, None


def _check_idempotents_central(table):
    # Centrality reduces to commuting with every generator by associativity.
    A = table.generator_arrays
    rows = table.maps[table.idempotent_indices]
    for c in range(A.shape[0]):
        left = A[c][rows]       # e . a_c
        right = rows[:, A[c]]   # a_c . e
        bad = np.flatnonzero((left != right).any(axis=1))
        if bad.size:
            i = int(bad[0])
            return Verdict.FALSE, {
                "kind": "non-central-idempotent",
                "idempotent": table.describe(int(table.idempotent_indices[i])),
                "other": table.describe(table.generator_indices[c]),
            }
    return Verdict.TRUE, None


def _check_completely_regular(table):
    bad = np.flatnonzero((table.power_uniform_next != table.maps).any(axis=1))
    if bad.size:
        return Verdict.FALSE, {"kind": "element-outside-subgroup",
                               "element": table.describe(int(bad[0]))}
    return Verdict.TRUE, None


def _check_clifford(table):
    verdict, witness = _check_completely_regular(table)
    if verdict is not Verdict.TRUE:
        return verdict, witness
    return _check_idempotents_commute(table)


def _first_irregular(maps: np.ndarray, lo: int, hi: int) -> int | None:
    """The first s in lo..hi-1 with no t such that s·t·s = s, or None.

    The candidates t are tried in index order, one block at a time, and an
    s leaves as soon as a block holds a t that works.  A block's products
    hold no more entries than the table, so it has len(maps) // (open s)
    candidates.  The last two open s take the rest one gather each: a
    block shared by fewer s saves less than its extra numpy calls cost.
    """
    m, n = maps.shape
    start = 0
    open_s = range(lo, hi)
    if hi - lo > 2:
        chunk = np.arange(lo, hi)
        rows = maps[lo:hi]
        # Row s of the open rows starts at s·n when they are flattened.
        offsets = np.arange(0, (hi - lo) * n, n, dtype=np.int32)[:, np.newaxis]
        while start < m:
            block = maps[start:start + m // chunk.size]
            start += block.shape[0]
            # st[t, s, p]: p under s, then t, as a position in the flat rows.
            st = block[:, rows] + offsets[:chunk.size]
            hit = (rows.ravel()[st] == rows).all(axis=2).any(axis=0)
            if hit.all():
                return None
            chunk, rows = chunk[~hit], rows[~hit]
            if chunk.size <= 2:
                break
        else:
            return int(chunk[0])
        open_s = chunk.tolist()
    for s in open_s:
        si = maps[s]
        if not (si[maps[start:, si]] == si).all(axis=1).any():
            return s
    return None


def _check_regular(table):
    """The first s, in index order, with no t such that s·t·s = s.

    The s are taken in chunks of 1, 2, 4, … up to 256 elements, and
    ``_first_irregular`` scans each chunk.  Every earlier chunk closed, so
    the first s a chunk leaves open is the first non-regular element.
    """
    maps = table.maps
    m = len(table)
    lo, size = 0, 1
    while lo < m:
        hi = min(lo + size, m)
        i = _first_irregular(maps, lo, hi)
        if i is not None:
            return Verdict.FALSE, {"kind": "non-regular-element",
                                   "element": table.describe(i)}
        lo, size = hi, min(2 * size, 256)
    return Verdict.TRUE, None


def _check_inverse(table):
    maps = table.maps
    for i in range(len(table)):
        si = maps[i]
        sts_ok = (si[maps[:, si]] == si).all(axis=1)
        tst = np.take_along_axis(maps, si[maps], axis=1)
        tst_ok = (tst == maps).all(axis=1)
        count = int((sts_ok & tst_ok).sum())
        if count != 1:
            return Verdict.FALSE, {"kind": "inverse-count",
                                   "element": table.describe(i),
                                   "count": count}
    return Verdict.TRUE, None


def _check_r_trivial(table):
    for comp in iter_strong_components(table.succ.tolist()):
        if len(comp) < 2:
            continue
        s, t = comp[:2]
        return Verdict.FALSE, {
            "kind": "mutually-reachable-pair",
            "left": table.describe(s),
            "right": table.describe(t),
            "word_left_to_right": list(_word_between(table, s, t)),
            "word_right_to_left": list(_word_between(table, t, s)),
        }
    return Verdict.TRUE, None


def _check_aperiodic(table):
    bad = np.flatnonzero((table.power_uniform_next != table.power_uniform).any(axis=1))
    if bad.size:
        return Verdict.FALSE, {"kind": "periodic-element",
                               "element": table.describe(int(bad[0]))}
    return Verdict.TRUE, None


def _check_identities(table, side):
    idx = np.flatnonzero(getattr(table, side + "_identity_mask"))
    verdict = Verdict.TRUE if idx.size else Verdict.FALSE
    return verdict, {
        "kind": "identity-list",
        "side": side,
        "identities": [table.describe(int(i)) for i in idx],
    }


_CHECKS = {
    "left_zero_exists": partial(_check_certificate, role="left-zero"),
    "right_zero_exists": partial(_check_certificate, role="right-zero"),
    "zero_exists": partial(_check_certificate, role="zero"),
    "nilpotent": _check_nilpotent,
    "commutative": _check_commutative,
    "band": _check_band,
    "semilattice": _check_semilattice,
    "group": _check_group,
    "orthodox": _check_orthodox,
    "idempotents_commute": _check_idempotents_commute,
    "idempotents_central": _check_idempotents_central,
    "completely_regular": _check_completely_regular,
    "clifford": _check_clifford,
    "regular": _check_regular,
    "inverse_semigroup": _check_inverse,
    "r_trivial": _check_r_trivial,
    "aperiodic": _check_aperiodic,
    "left_identities": partial(_check_identities, side="left"),
    "right_identities": partial(_check_identities, side="right"),
}

PROPERTIES = tuple(sorted(_CHECKS))


def definitional_check(table: ElementTable, prop: str) -> PropertyReport:
    """Decide ``prop`` over the full element table, straight from the definition."""
    fn = _CHECKS.get(prop)
    if fn is None:
        raise UnknownPropertyError(prop)
    rb = ReportBuilder(prop, table.gens, "oracle")
    verdict, witness = fn(table)
    return rb.done(verdict, witness)


def models_by_enumeration(table: ElementTable, qid,
                          max_assignments: int = 4_000_000):
    """Evaluate a quasi-identity by trying every assignment of elements.

    Variables constrained to be idempotent draw from the idempotent elements
    only.  Returns (True, None) or (False, witness).  Raises
    ``StateBudgetExceeded`` when the assignments or the m × m product table
    would exceed ``max_assignments``.
    """
    m = len(table)
    pools = []
    for v in range(1, qid.variables + 1):
        if v in qid.idempotent_vars:
            pools.append([int(i) for i in table.idempotent_indices])
        else:
            pools.append(list(range(m)))
    total = 1
    for p in pools:
        total *= len(p)
    if total > max_assignments:
        raise StateBudgetExceeded(total, max_assignments)
    if total == 0:
        return True, None
    if m * m > max_assignments:
        raise StateBudgetExceeded(m * m, max_assignments)

    # Pair-product table: prod[i, j] = index of element i followed by element j.
    # Element j is its parent followed by generator c, so column j is one
    # gather of column parent(j) through succ; parents come first.
    succ = table.succ
    prod = np.empty((m, m), dtype=np.int32, order="F")
    for j, (p, c) in enumerate(zip(table._parents, table._letters)):
        prod[:, j] = succ[:, c - 1] if p < 0 else succ[prod[:, p], c - 1]

    shape = [len(p) for p in pools]
    axes = [np.asarray(p, dtype=np.int32).reshape(
        [-1 if a == v else 1 for a in range(qid.variables)])
        for v, p in enumerate(pools)]

    def evaluate(word):
        cur = axes[word[0] - 1]
        for letter in word[1:]:
            cur = prod[cur, axes[letter - 1]]
        return cur

    hu = evaluate(qid.lhs)
    hv = evaluate(qid.rhs)
    diff = (hu != hv)
    if not diff.any():
        return True, None
    flat = int(np.argmax(diff.reshape(-1)))
    coords = np.unravel_index(flat, diff.shape) if diff.shape else ()
    assignment = []
    for v in range(qid.variables):
        pool = pools[v]
        pick = pool[int(coords[v])] if len(shape) else pool[0]
        assignment.append({"var": v + 1, "element": table.describe(pick)})
    return False, {"kind": "assignment-counterexample",
                   "identity": qid.render(), "assignment": assignment}
