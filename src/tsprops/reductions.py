"""Instance constructors that translate automaton and graph problems into
generator sets with promised properties.

Each constructor is an exact translation with a testable guarantee tying the
input problem to a semigroup property of the output (zero existence,
nilpotency, R-triviality, regularity of a designated element, existence of a
weak inverse).  The direct DFA/digraph deciders at the bottom provide the
independent left-hand sides for those guarantees in tests.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .core import GeneratorSet, Transformation
from .errors import PreconditionError


@dataclass(frozen=True)
class DFA:
    """Complete deterministic automaton on states 1..n."""

    n: int
    initial: int
    finals: frozenset[int]
    letters: tuple[Transformation, ...]
    letter_names: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("state count must be positive")
        if not 1 <= self.initial <= self.n:
            raise ValueError(f"initial state {self.initial} outside 1..{self.n}")
        object.__setattr__(self, "finals", frozenset(self.finals))
        for f in self.finals:
            if not 1 <= f <= self.n:
                raise ValueError(f"final state {f} outside 1..{self.n}")
        object.__setattr__(self, "letters", tuple(self.letters))
        for a in self.letters:
            if a.degree != self.n:
                raise ValueError("letter degree differs from state count")
        if self.letter_names is not None:
            names = tuple(self.letter_names)
            if len(names) != len(self.letters):
                raise ValueError("one name per letter required")
            object.__setattr__(self, "letter_names", names)

    def letter_name(self, i: int) -> str:
        """Name of letter i (1-indexed)."""
        if self.letter_names is not None:
            return self.letter_names[i - 1]
        return f"a{i}"


@dataclass(frozen=True)
class InputDigraph:
    """Vertex count plus a directed edge list (order preserved)."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("vertex count must be positive")
        object.__setattr__(self, "edges",
                           tuple((int(u), int(v)) for u, v in self.edges))
        for u, v in self.edges:
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise ValueError(f"edge ({u},{v}) outside 1..{self.n}")


def dfa_emptiness_to_zero(dfa: DFA) -> GeneratorSet:
    """Generators on n+1 points whose semigroup has a zero iff the language
    is nonempty.

    Letters keep their action and fix the extra point; `reset` sends every
    state to the initial state; `sink` sends final states and the extra point
    to the extra point, fixing the rest.  Given at least one final state, a
    zero, a right zero and a nonempty language are all equivalent for the
    output.  A left zero is not: it also appears when every letter fixes the
    initial state, since `reset` is then a left zero even when the language
    is empty and no zero exists.

    The guarantee needs at least one final state: with none at all, `sink`
    degenerates to the identity, and when every letter also fixes the initial
    state the `reset` generator itself turns out to be a zero even though the
    language is empty.  Callers deciding emptiness should special-case an
    empty final set.
    """
    n = dfa.n
    extra = n + 1
    maps = []
    names = []
    for i, a in enumerate(dfa.letters, start=1):
        maps.append(tuple(a.map) + (extra,))
        names.append(dfa.letter_name(i))
    maps.append((dfa.initial,) * n + (extra,))
    names.append("reset")
    maps.append(tuple(extra if q in dfa.finals else q for q in range(1, n + 1))
                + (extra,))
    names.append("sink")
    return GeneratorSet.from_maps(maps, names=names)


def dfa_emptiness_to_nilpotent(dfa: DFA) -> GeneratorSet:
    """Generators on n²+1 points whose semigroup is nilpotent iff the language
    is empty (requires the initial state to be non-final).

    Points are (state, stage) pairs — encoded as (state-1)·n + stage — plus a
    sink.  Generator i_j applies letter i to non-final states at stage j and
    advances the stage; all other points go to the sink.  Stage slots exist
    for i up to n; with fewer letters the remaining slots are sink constants,
    so the generator count is exactly n²+1.  The final generator sends
    (final state, any stage) back to (initial state, stage 1).  A nonempty
    language additionally yields an idempotent that is not a left zero.
    """
    n = dfa.n
    k = len(dfa.letters)
    if dfa.initial in dfa.finals:
        raise PreconditionError(
            "the initial state is final: the language trivially contains the "
            "empty word, so this construction does not apply")
    if k > n:
        raise PreconditionError(
            f"construction supports at most {n} letters for {n} states "
            f"(got {k}): stage slots exist only for letter indices up to the "
            "state count")
    size = n * n + 1
    sink = size

    def enc(state: int, stage: int) -> int:
        return (state - 1) * n + stage

    maps = []
    names = []
    for i in range(1, n + 1):
        letter = dfa.letters[i - 1] if i <= k else None
        for j in range(1, n + 1):
            img = [sink] * size
            if letter is not None and j < n:
                for q in range(1, n + 1):
                    if q not in dfa.finals:
                        img[enc(q, j) - 1] = enc(letter.apply(q), j + 1)
            maps.append(tuple(img))
            if letter is not None:
                names.append(f"{dfa.letter_name(i)}_{j}")
            else:
                names.append(f"pad{i}_{j}")
    img = [sink] * size
    for q in dfa.finals:
        for j in range(1, n + 1):
            img[enc(q, j) - 1] = enc(dfa.initial, 1)
    maps.append(tuple(img))
    names.append("reset")
    return GeneratorSet.from_maps(maps, names=names)


def digraph_to_semigroup(graph: InputDigraph) -> GeneratorSet:
    """One generator per edge (u ↦ v, everything else to a sink) on |V|+1
    points.

    Guarantees: an acyclic input yields a nilpotent semigroup; an input with
    a cycle of length at least 2 yields one that is not R-trivial and
    contains a non-central idempotent.  A self-loop alone is not enough: the
    generator for a loop edge fixes its vertex and the sink and kills the
    rest, so a graph whose only cycles are self-loops can still produce an
    R-trivial (even nilpotent) semigroup.
    """
    seen = set()
    edges = []
    for e in graph.edges:
        if e not in seen:
            seen.add(e)
            edges.append(e)
    if not edges:
        raise PreconditionError("the graph has no edges; a generator set "
                                "must be nonempty")
    sink = graph.n + 1
    maps = []
    names = []
    for u, v in edges:
        img = [sink] * (graph.n + 1)
        img[u - 1] = v
        maps.append(tuple(img))
        names.append(f"e{u}_{v}")
    return GeneratorSet.from_maps(maps, names=names)


def _disjoint_union(dfas: list[DFA] | tuple[DFA, ...]
                    ) -> tuple[list[tuple[int, ...]], list[str],
                               tuple[int, ...], list[int]]:
    """The automata side by side on the disjoint union of their states
    plus a sink, the last point: each letter's map, the letter names, the
    map sending each final state to its automaton's initial state and
    everything else to the sink, and each automaton's offset."""
    if not dfas:
        raise PreconditionError("at least one automaton required")
    k = len(dfas[0].letters)
    for d in dfas:
        if len(d.letters) != k:
            raise PreconditionError("all automata must share one alphabet "
                                    "(same letter count)")
        if len(d.finals) != 1:
            raise PreconditionError("each automaton must have exactly one "
                                    "final state")
    offsets = []
    total = 0
    for d in dfas:
        offsets.append(total)
        total += d.n
    sink = size = total + 1
    maps = []
    names = []
    for i in range(1, k + 1):
        img = [sink] * size
        for off, d in zip(offsets, dfas):
            letter = d.letters[i - 1]
            for q in range(1, d.n + 1):
                img[off + q - 1] = off + letter.apply(q)
        maps.append(tuple(img))
        names.append(dfas[0].letter_name(i))
    img = [sink] * size
    for off, d in zip(offsets, dfas):
        final = next(iter(d.finals))
        img[off + final - 1] = off + d.initial
    return maps, names, tuple(img), offsets


def dfa_intersection_to_regular(dfas: list[DFA] | tuple[DFA, ...]) -> tuple[GeneratorSet, int]:
    """Generators on the disjoint state union plus a sink; returns the set and
    the 1-indexed position of the `restart` generator b.

    b sends each automaton's final state to its initial state and everything
    else to the sink.  Guarantee: b is regular in the semigroup iff some word
    is accepted by every automaton.
    """
    maps, names, restart, _ = _disjoint_union(dfas)
    gens = GeneratorSet.from_maps(maps + [restart], names=names + ["restart"])
    return gens, len(maps) + 1


def dfa_intersection_to_weak_inverse(dfas: list[DFA] | tuple[DFA, ...]) -> tuple[GeneratorSet, Transformation]:
    """Generators ⟨letters, rewind⟩ plus a target transformation b.

    `rewind` sends every state of each automaton back to that automaton's
    initial state; the target b (not a generator) sends finals to initials
    and everything else to the sink.  Guarantee: b has a weak inverse in the
    semigroup iff the intersection language is nonempty.
    """
    maps, names, target, offsets = _disjoint_union(dfas)
    sink = len(target)
    rewind = tuple(off + d.initial for off, d in zip(offsets, dfas)
                   for _ in range(d.n)) + (sink,)
    gens = GeneratorSet.from_maps(maps + [rewind], names=names + ["rewind"])
    return gens, Transformation(sink, target)


def dfa_language_nonempty(dfa: DFA) -> bool:
    """Direct reachability: does some word (possibly empty) reach a final
    state from the initial state?"""
    if dfa.initial in dfa.finals:
        return True
    seen = {dfa.initial}
    queue = deque([dfa.initial])
    while queue:
        q = queue.popleft()
        for a in dfa.letters:
            nxt = a.apply(q)
            if nxt in dfa.finals:
                return True
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return False


def dfa_intersection_nonempty(dfas: list[DFA] | tuple[DFA, ...]) -> bool:
    """Direct product-automaton reachability for the common language."""
    if not dfas:
        raise PreconditionError("at least one automaton required")
    k = len(dfas[0].letters)
    for d in dfas:
        if len(d.letters) != k:
            raise PreconditionError("all automata must share one alphabet "
                                    "(same letter count)")
    start = tuple(d.initial for d in dfas)

    def accepting(state: tuple[int, ...]) -> bool:
        return all(q in d.finals for q, d in zip(state, dfas))

    if accepting(start):
        return True
    seen = {start}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        for i in range(k):
            nxt = tuple(d.letters[i].apply(q) for q, d in zip(state, dfas))
            if nxt not in seen:
                if accepting(nxt):
                    return True
                seen.add(nxt)
                queue.append(nxt)
    return False
