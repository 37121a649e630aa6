"""Plain-text instance formats and canonical rendering.

Generator file: first non-comment line is the degree ``n``; every further
line is one transformation given as ``n`` images, optionally prefixed with
``name:``.  ``#`` starts a comment anywhere.  DFA file: ``n`` / ``initial q``
/ ``final q1 q2 ...`` / one letter per line in generator syntax.  Digraph
file: ``n`` then one ``u v`` pair per line.  Everything is 1-indexed.
"""

from __future__ import annotations

import hashlib

from .core import GeneratorSet, Transformation
from .errors import ParseError


def _logical_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _parse_map_line(lineno: int, line: str, n: int) -> tuple[str | None, tuple[int, ...]]:
    name = None
    body = line
    if ":" in line:
        name, body = line.split(":", 1)
        name = name.strip()
        if not name:
            raise ParseError(lineno, "empty name before ':'")
    parts = body.split()
    if len(parts) != n:
        raise ParseError(lineno, f"expected {n} images, got {len(parts)}")
    try:
        images = tuple(int(p) for p in parts)
    except ValueError:
        raise ParseError(lineno, "images must be integers") from None
    for img in images:
        if not 1 <= img <= n:
            raise ParseError(lineno, f"image {img} outside 1..{n}")
    return name, images


def _parse_count(lines, what: str) -> int:
    """The positive integer on the first logical line, called ``what`` (the
    degree, vertex count or state count) in errors."""
    lineno, first = lines[0]
    try:
        n = int(first)
    except ValueError:
        raise ParseError(lineno, f"{what.replace(' ', '-')} line must be an "
                                 f"integer, got {first!r}") from None
    if n < 1:
        raise ParseError(lineno, f"{what} must be at least 1, got {n}")
    return n


def _parse_maps(lines, n: int) -> tuple[tuple[Transformation, ...],
                                        tuple[str, ...] | None]:
    """Map lines of degree ``n`` and their names: None when no line is
    named, else ``a<i>`` for each unnamed i-th line."""
    maps = []
    names = []
    for lineno, line in lines:
        name, images = _parse_map_line(lineno, line, n)
        names.append(name)
        maps.append(Transformation(n, images))
    if all(name is None for name in names):
        return tuple(maps), None
    return tuple(maps), tuple(nm if nm is not None else f"a{i}"
                              for i, nm in enumerate(names, 1))


def _render_rows(maps, names) -> list[str]:
    """One line per map, ``name: `` first when ``names`` is not None."""
    rows = [" ".join(str(x) for x in m.map) for m in maps]
    if names is None:
        return rows
    return [f"{name}: {row}" for name, row in zip(names, rows)]


def parse_generators(text: str) -> GeneratorSet:
    """Parse a generator file; raises ParseError with a line number."""
    lines = list(_logical_lines(text))
    if not lines:
        raise ParseError(1, "empty input")
    n = _parse_count(lines, "degree")
    gens, names = _parse_maps(lines[1:], n)
    if not gens:
        raise ParseError(lines[0][0], "no generators given")
    return GeneratorSet(n, gens, names)


def render_generators(gens: GeneratorSet) -> str:
    """Canonical text for a generator set; parses back to an equal set."""
    rows = _render_rows(gens.generators, gens.names)
    return "\n".join([str(gens.degree), *rows]) + "\n"


def instance_digest(gens: GeneratorSet) -> str:
    """Stable short digest of the canonical rendering."""
    return hashlib.sha256(render_generators(gens).encode()).hexdigest()[:16]


def cached_instance_digest(gens: GeneratorSet) -> str:
    """``instance_digest(gens)``, computed once and kept on the instance."""
    facts = gens._facts
    digest = facts.get("digest")
    if digest is None:
        digest = facts["digest"] = instance_digest(gens)
    return digest


def parse_digraph(text: str):
    """Parse a digraph file into (vertex count, edge list)."""
    lines = list(_logical_lines(text))
    if not lines:
        raise ParseError(1, "empty input")
    n = _parse_count(lines, "vertex count")
    edges = []
    for lineno, line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(lineno, f"expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(lineno, "edge endpoints must be integers") from None
        for x in (u, v):
            if not 1 <= x <= n:
                raise ParseError(lineno, f"vertex {x} outside 1..{n}")
        edges.append((u, v))
    return n, edges


def render_digraph(n: int, edges) -> str:
    out = [str(n)]
    out.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(out) + "\n"


def parse_dfa(text: str):
    """Parse a DFA file; returns a reductions.DFA."""
    from .reductions import DFA  # local import to avoid a cycle

    lines = list(_logical_lines(text))
    if len(lines) < 3:
        raise ParseError(lines[-1][0] if lines else 1,
                         "a DFA needs a state count, an initial line and a final line")
    n = _parse_count(lines, "state count")

    lineno, line = lines[1]
    parts = line.split()
    if len(parts) != 2 or parts[0] != "initial":
        raise ParseError(lineno, f"expected 'initial q', got {line!r}")
    try:
        initial = int(parts[1])
    except ValueError:
        raise ParseError(lineno, "initial state must be an integer") from None
    if not 1 <= initial <= n:
        raise ParseError(lineno, f"initial state {initial} outside 1..{n}")

    lineno, line = lines[2]
    parts = line.split()
    if not parts or parts[0] != "final":
        raise ParseError(lineno, f"expected 'final q1 q2 ...', got {line!r}")
    try:
        finals = frozenset(int(p) for p in parts[1:])
    except ValueError:
        raise ParseError(lineno, "final states must be integers") from None
    for f in finals:
        if not 1 <= f <= n:
            raise ParseError(lineno, f"final state {f} outside 1..{n}")

    letters, names = _parse_maps(lines[3:], n)
    return DFA(n, initial, finals, letters, names)


def render_dfa(dfa) -> str:
    out = [str(dfa.n), f"initial {dfa.initial}"]
    out.append("final" + "".join(f" {f}" for f in sorted(dfa.finals)))
    out.extend(_render_rows(dfa.letters, dfa.letter_names))
    return "\n".join(out) + "\n"


def parse_dfa_list(text: str):
    """Parse several DFAs separated by blank lines.

    Comment-only lines belong to the surrounding block; only genuinely blank
    lines separate automata.
    """
    blocks: list[list[str]] = [[]]
    starts: list[int] = [1]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            if blocks[-1]:
                blocks.append([])
                starts.append(lineno + 1)
            else:
                starts[-1] = lineno + 1
            continue
        blocks[-1].append(raw)
    if blocks and not blocks[-1]:
        blocks.pop()
        starts.pop()
    if not blocks:
        raise ParseError(1, "empty input")
    dfas = []
    for start, block in zip(starts, blocks):
        try:
            dfas.append(parse_dfa("\n".join(block)))
        except ParseError as exc:
            raise ParseError(start + exc.line - 1, exc.message) from None
    return dfas
