"""Expected answers computed without tsprops.

Everything here works on plain image tuples (1-indexed, ``s[q-1]`` is the
image of ``q``) and imports nothing from the package under test, so a fault
in tsprops cannot make the benchmark agree with it.

* ``closure`` is a breadth-first closure of the generators under right
  multiplication; its length must equal ``len(table)`` of the oracle.
* ``answers`` decides the properties whose definition fits in a few lines by
  brute force over that closure.  Universally quantified conditions of the
  form "for every element t" are tested against the generators where
  associativity makes that equivalent (``x t = t x`` for every generator t
  gives it for every product of generators).
* ``implied`` lists the implications between properties that any correct
  pair of engines must respect.
* ``language_nonempty``, ``intersection_nonempty`` and ``has_long_cycle``
  decide the automaton and digraph problems behind the reductions.
* ``self_test`` runs all of the above on semigroups whose answers are known
  by hand.
"""

from __future__ import annotations

from collections import deque

Map = tuple[int, ...]


def compose(s: Map, t: Map) -> Map:
    """Apply ``s`` first, then ``t``."""
    return tuple(t[x - 1] for x in s)


def closure(gens: list[Map], cap: int | None = None) -> list[Map] | None:
    """Every element of the semigroup, or None once more than ``cap`` appear."""
    seen = set()
    order: list[Map] = []
    for g in gens:
        if g not in seen:
            seen.add(g)
            order.append(g)
    i = 0
    while i < len(order):
        s = order[i]
        i += 1
        for g in gens:
            t = tuple(g[x - 1] for x in s)
            if t not in seen:
                seen.add(t)
                order.append(t)
                if cap is not None and len(order) > cap:
                    return None
    return order


def _powers(s: Map) -> tuple[list[Map], int]:
    """Powers s, s^2, ... up to the first repeat, and the index it repeats at."""
    seen: dict[Map, int] = {}
    out: list[Map] = []
    cur = s
    while cur not in seen:
        seen[cur] = len(out)
        out.append(cur)
        cur = compose(cur, s)
    return out, seen[cur]


def _identity_set(elements: list[Map], gens: list[Map], side: str) -> set[Map]:
    if side == "left":
        return {e for e in elements if all(compose(e, g) == g for g in gens)}
    return {e for e in elements if all(compose(g, e) == g for g in gens)}


def answers(gens: list[Map], elements: list[Map]) -> dict:
    """Brute-force verdicts (bools) and identity sets for one semigroup."""
    commutative = all(compose(s, g) == compose(g, s)
                      for s in elements for g in gens)
    idempotents = [e for e in elements if compose(e, e) == e]
    band = len(idempotents) == len(elements)
    left_zero = any(all(compose(z, g) == z for g in gens) for z in elements)
    right_zero = any(all(compose(g, z) == z for g in gens) for z in elements)
    zero = any(all(compose(z, g) == z == compose(g, z) for g in gens)
               for z in elements)
    commute = all(compose(e, f) == compose(f, e)
                  for i, e in enumerate(idempotents)
                  for f in idempotents[i + 1:])
    central = all(compose(e, g) == compose(g, e)
                  for e in idempotents for g in gens)
    group = False
    if len(idempotents) == 1:
        e = idempotents[0]
        if all(compose(e, g) == g == compose(g, e) for g in gens):
            # With e an identity, s has an inverse iff e is a power of s.
            group = all(e in _powers(s)[0] for s in elements)
    aperiodic = True
    for s in elements:
        pw, start = _powers(s)
        if len(pw) - start != 1:
            aperiodic = False
            break
    left_ids = _identity_set(elements, gens, "left")
    right_ids = _identity_set(elements, gens, "right")
    return {
        "verdicts": {
            "commutative": commutative,
            "band": band,
            "semilattice": band and commutative,
            "group": group,
            "left-zero": left_zero,
            "right-zero": right_zero,
            "zero": zero,
            "idempotents-commute": commute,
            "idempotents-central": central,
            "aperiodic": aperiodic,
            "left-identities": bool(left_ids),
            "right-identities": bool(right_ids),
        },
        "left-identities": left_ids,
        "right-identities": right_ids,
    }


# (premise, consequence): whenever the premise holds, so must the consequence.
IMPLICATIONS = (
    ("semilattice", "band"),
    ("semilattice", "commutative"),
    ("clifford", "completely-regular"),
    ("completely-regular", "regular"),
    ("zero", "left-zero"),
    ("zero", "right-zero"),
    ("nilpotent", "zero"),
    ("inverse", "regular"),
    ("inverse", "idempotents-commute"),
)


def implied(verdicts: dict[str, bool]) -> list[str]:
    """Properties whose verdict breaks an implication (or zero ⇔ both zeros)."""
    broken = []
    for premise, consequence in IMPLICATIONS:
        if verdicts.get(premise) is True and verdicts.get(consequence) is False:
            broken.append(consequence)
    if (verdicts.get("left-zero") is True and verdicts.get("right-zero") is True
            and verdicts.get("zero") is False):
        broken.append("zero")
    return broken


def full_monoid_generators(n: int) -> list[Map]:
    """An n-cycle, a transposition and a rank-(n-1) idempotent: they generate T_n."""
    cycle = tuple(list(range(2, n + 1)) + [1])
    swap = tuple([2, 1] + list(range(3, n + 1)))
    merge = tuple([1, 1] + list(range(3, n + 1)))
    return [cycle, swap, merge]


def relabel(maps: list[Map], perm: list[int]) -> list[Map]:
    """The same semigroup with point q renamed perm[q-1]."""
    out = []
    for m in maps:
        new = [0] * len(m)
        for q, image in enumerate(m, start=1):
            new[perm[q - 1] - 1] = perm[image - 1]
        out.append(tuple(new))
    return out


def semilattice_generators(n: int) -> list[Map]:
    """⟨[1,1,3..n], [1..1]⟩: a two-element semilattice {a, 0} for every n >= 3."""
    return [tuple([1, 1] + list(range(3, n + 1))), (1,) * n]


# The two-element semilattice {a, 0}: a is an identity, 0 a zero, both
# idempotent, so every property below holds except group and nilpotent.
SEMILATTICE_VERDICTS = {
    "commutative": True, "semilattice": True, "group": False,
    "left-zero": True, "right-zero": True, "zero": True, "nilpotent": False,
    "r-trivial": True, "band": True, "idempotents-commute": True,
    "idempotents-central": True, "orthodox": True,
    "completely-regular": True, "clifford": True, "regular": True,
    "inverse": True, "left-identities": True, "right-identities": True,
    "aperiodic": True,
}

# T_n for n >= 3 is regular and not inverse.  It holds the identity map, and
# its constant maps are right zeros (s then a constant is that constant), but
# no element is a left zero, so there is no zero.
FULL_MONOID_VERDICTS = {
    "commutative": False, "semilattice": False, "group": False,
    "left-zero": False, "right-zero": True, "zero": False,
    "nilpotent": False, "r-trivial": False, "band": False,
    "idempotents-commute": False, "idempotents-central": False,
    "orthodox": False, "regular": True, "inverse": False,
    "completely-regular": False, "clifford": False,
    "left-identities": True, "right-identities": True, "aperiodic": False,
}


def language_nonempty(n: int, initial: int, finals: set[int],
                      letters: list[Map]) -> bool:
    """Does some word (the empty word included) lead from ``initial`` to a final state?"""
    seen = {initial}
    queue = deque([initial])
    while queue:
        q = queue.popleft()
        if q in finals:
            return True
        for a in letters:
            r = a[q - 1]
            if r not in seen:
                seen.add(r)
                queue.append(r)
    return False


def intersection_nonempty(automata: list[tuple[int, set[int], list[Map]]]) -> bool:
    """Do the automata (initial, finals, letters) accept a common word?"""
    start = tuple(init for init, _, _ in automata)
    k = len(automata[0][2])
    seen = {start}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        if all(q in fin for q, (_, fin, _) in zip(state, automata)):
            return True
        for c in range(k):
            nxt = tuple(letters[c][q - 1]
                        for q, (_, _, letters) in zip(state, automata))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return False


def has_long_cycle(n: int, edges: list[tuple[int, int]]) -> bool:
    """Does the digraph have a cycle through at least two distinct vertices?

    Some vertex v != u reaches u while u reaches v, i.e. u lies on a cycle
    that is not a self-loop.
    """
    succ = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
        if u != v:
            succ[u].add(v)
    for u in range(1, n + 1):
        seen = set()
        queue = deque(succ[u])
        while queue:
            v = queue.popleft()
            if v == u:
                return True
            if v not in seen:
                seen.add(v)
                queue.extend(succ[v])
    return False


def self_test() -> None:
    """Check the brute force against semigroups whose answers are known by hand."""
    def expect(cond, what):
        if not cond:
            raise AssertionError(f"benchmark reference self-test: {what}")

    # C3, the cyclic group of order 3.
    c3 = [(2, 3, 1)]
    el = closure(c3)
    v = answers(c3, el)["verdicts"]
    expect(len(el) == 3, "|C3| = 3")
    expect(v["group"] and v["commutative"] and not v["band"], "C3 is an abelian group")
    expect(not v["zero"] and not v["aperiodic"], "C3 has no zero and is periodic")

    # {a, 0}: the two-element semilattice, at several degrees.
    for n in (3, 5):
        gens = semilattice_generators(n)
        el = closure(gens)
        ans = answers(gens, el)
        expect(len(el) == 2, f"the semilattice family has 2 elements at n={n}")
        for prop, want in ans["verdicts"].items():
            expect(SEMILATTICE_VERDICTS[prop] == want, f"semilattice {prop} at n={n}")

    # Constant maps: st = t, so every element is a right zero and idempotent.
    consts = [(1, 1), (2, 2)]
    v = answers(consts, closure(consts))["verdicts"]
    expect(v["band"] and v["right-zero"] and not v["left-zero"],
           "a right-zero semigroup")
    expect(not v["commutative"] and not v["idempotents-commute"],
           "distinct constants do not commute")

    # T_n: n^n elements.
    for n in (2, 3, 4):
        el = closure(full_monoid_generators(n))
        expect(len(el) == n ** n, f"|T_{n}| = {n}^{n}")
    expect(len(closure(relabel(full_monoid_generators(3), [2, 3, 1]))) == 27,
           "relabelling keeps |T_3|")
    v = answers(full_monoid_generators(3), closure(full_monoid_generators(3)))["verdicts"]
    for prop, want in v.items():
        expect(FULL_MONOID_VERDICTS[prop] == want, f"T_3 {prop}")

    # A nilpotent semigroup: 1 -> 2 -> 3 -> 3, so a^2 is the zero.
    nil = [(2, 3, 3)]
    v = answers(nil, closure(nil))["verdicts"]
    expect(v["zero"] and v["aperiodic"] and not v["group"], "⟨[2,3,3]⟩ has a zero")

    expect(language_nonempty(2, 1, {2}, [(2, 2)]), "1 -a-> 2 reaches 2")
    expect(not language_nonempty(2, 1, {2}, [(1, 2)]), "1 is stuck at 1")
    expect(not intersection_nonempty([(1, {2}, [(2, 1)]), (1, {1}, [(2, 1)])]),
           "no word has both odd and even length")
    expect(intersection_nonempty([(1, {2}, [(2, 1)]), (1, {2}, [(2, 2)])]),
           "the word a is accepted by both")
    expect(has_long_cycle(3, [(1, 2), (2, 1)]), "1 -> 2 -> 1 is a cycle")
    expect(not has_long_cycle(3, [(1, 1), (1, 2), (2, 3)]), "self-loops only")
