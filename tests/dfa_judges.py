"""Direct deciders for the automaton problems that ``tsprops.reductions``
translates: the independent left-hand sides of the reduction tests.

They use no semigroup code, only breadth-first search over automaton states.
"""

from __future__ import annotations

from collections import deque

from tsprops.errors import PreconditionError
from tsprops.reductions import DFA


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
