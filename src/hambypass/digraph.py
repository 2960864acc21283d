"""Core digraph value type and structural primitives.

Digraphs here are loop-free directed graphs on vertices 0..n-1 with at most
one arc per ordered pair. Adjacency is stored as one out-neighbour bitset per
vertex plus a transposed copy, so degree-toward-set queries are popcounts.
Orders are capped at MAX_N = 16 so every bitset fits comfortably in one
machine word.

The plain-text exchange format lives here too (the CLI reuses it): first line
"n m", then one "u v" line per arc; "#" starts a comment; emission is always
in lexicographic arc order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

MAX_N = 16


class DigraphError(ValueError):
    """Invalid digraph construction."""


class OrderError(DigraphError):
    """Order outside [1, MAX_N]."""


class SelfLoopError(DigraphError):
    """Arc with equal endpoints."""


class VertexRangeError(DigraphError):
    """Not a vertex: anything but an int, not a bool, in range(n)."""


class DuplicateArcError(DigraphError):
    """Arc listed twice."""


class PathError(ValueError):
    """Vertex sequence violating a path or cycle invariant."""


class ParseError(ValueError):
    """Malformed digraph text."""


@dataclass(frozen=True, slots=True)
class Digraph:
    """Immutable digraph: `rows[u]` has bit v set iff arc u->v exists.

    `cols` is the transpose (bit u of `cols[v]` set iff arc u->v). Build
    instances through new_digraph / parse_digraph / the family generators;
    the raw constructor trusts its arguments. So do the accessors below:
    they sit in inner loops, and `has_arc(-1, 0)` reads row n-1. Every API
    function that takes a vertex checks it with vertex_mask instead.
    """

    n: int
    rows: tuple[int, ...]
    cols: tuple[int, ...]

    @classmethod
    def _from_rows(cls, n: int, rows: Iterable[int]) -> "Digraph":
        rows = tuple(rows)
        cols = []
        for v in range(n):
            c = 0
            for u in range(n):
                c |= ((rows[u] >> v) & 1) << u
            cols.append(c)
        return cls(n, rows, tuple(cols))

    def has_arc(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    @property
    def m(self) -> int:
        """Arc count."""
        return sum(r.bit_count() for r in self.rows)

    def arcs(self) -> list[tuple[int, int]]:
        """All arcs in lexicographic order."""
        out = []
        for u in range(self.n):
            r = self.rows[u]
            while r:
                b = r & -r
                out.append((u, b.bit_length() - 1))
                r ^= b
        return out

    def out_degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def in_degree(self, v: int) -> int:
        return self.cols[v].bit_count()

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count() + self.cols[v].bit_count()


def new_digraph(n: int, arcs: Iterable[tuple[int, int]]) -> Digraph:
    """Build a digraph, rejecting self-loops, range errors and duplicates.

    Each defect class raises its own error type so callers (and tests) can
    tell them apart.
    """
    _check_order(n)
    rows = [0] * n
    for arc in arcs:
        u, v = arc
        vertex_mask(n, (u, v))
        if u == v:
            raise SelfLoopError(f"self-loop at {u}")
        if (rows[u] >> v) & 1:
            raise DuplicateArcError(f"duplicate arc {arc}")
        rows[u] |= 1 << v
    return Digraph._from_rows(n, rows)


def _check_order(n: int) -> None:
    if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= MAX_N:
        raise OrderError(f"order must be an integer in [1, {MAX_N}], got {n!r}")


def _check_int(value, name: str, least: int | None = None) -> int:
    """value, by the one rule for an integer parameter that is neither a
    vertex nor an order: an int, not a bool, and at least `least` if given.
    Anything else raises ValueError naming the value."""
    if isinstance(value, bool) or not isinstance(value, int) or least is not None and value < least:
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
    return value


def degrees(g: Digraph, v: int) -> tuple[int, int, int]:
    """(out-degree, in-degree, total degree) of v."""
    return degrees_toward_set(g, v, range(g.n))


def degrees_toward_set(g: Digraph, v: int, s: Iterable[int]) -> tuple[int, int, int]:
    """Degrees of v counted toward the vertex set s only."""
    vertex_mask(g.n, (v,))
    mask = vertex_mask(g.n, s)
    do = (g.rows[v] & mask).bit_count()
    di = (g.cols[v] & mask).bit_count()
    return do, di, do + di


def vertex_mask(n: int, s: Iterable[int]) -> int:
    """Bitmask of the vertices in s, and the one vertex rule of the API: a
    vertex is an int, not a bool, in range(n). Anything else raises
    VertexRangeError."""
    mask = 0
    for v in s:
        if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < n:
            raise VertexRangeError(f"vertex {v!r} outside range({n})")
        mask |= 1 << v
    return mask


def converse(g: Digraph) -> Digraph:
    """Reverse every arc. An involution: converse(converse(g)) == g."""
    return Digraph(g.n, g.cols, g.rows)


def _strong_raw(n: int, rows: tuple[int, ...], cols: tuple[int, ...]) -> bool:
    # Strong iff vertex 0 reaches everything and everything reaches 0.
    full = (1 << n) - 1
    for adj in (rows, cols):
        seen = 1
        frontier = 1
        while frontier:
            nxt = 0
            f = frontier
            while f:
                b = f & -f
                nxt |= adj[b.bit_length() - 1]
                f ^= b
            frontier = nxt & ~seen
            seen |= frontier
        if seen != full:
            return False
    return True


def is_strong(g: Digraph) -> bool:
    """True iff g is strongly connected (single vertex counts as strong)."""
    if g.n == 1:
        return True
    return _strong_raw(g.n, g.rows, g.cols)


def non_adjacent_pairs(g: Digraph) -> list[tuple[int, int]]:
    """Unordered pairs with no arc in either direction, lexicographic."""
    out = []
    for u in range(g.n):
        adj = g.rows[u] | g.cols[u]
        for v in range(u + 1, g.n):
            if not (adj >> v) & 1:
                out.append((u, v))
    return out


def induced_subdigraph(g: Digraph, s: Iterable[int]) -> tuple[Digraph, tuple[int, ...]]:
    """Subdigraph induced on s, plus the new-index -> old-vertex map.

    Vertices of s are relabelled 0..|s|-1 in ascending old-label order.
    """
    mask = vertex_mask(g.n, s)
    if not mask:
        raise DigraphError("induced subdigraph needs a nonempty vertex set")
    verts = [v for v in range(g.n) if (mask >> v) & 1]
    index = {v: i for i, v in enumerate(verts)}
    rows = [0] * len(verts)
    for v in verts:
        r = g.rows[v]
        for w in verts:
            if (r >> w) & 1:
                rows[index[v]] |= 1 << index[w]
    return Digraph._from_rows(len(verts), rows), tuple(verts)


# ---------------------------------------------------------------------------
# Paths and cycles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Path:
    """Distinct vertices, consecutive ones joined by arcs in some digraph."""

    vertices: tuple[int, ...]

    @property
    def first(self) -> int:
        return self.vertices[0]

    @property
    def last(self) -> int:
        return self.vertices[-1]

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self) -> Iterator[int]:
        return iter(self.vertices)


@dataclass(frozen=True)
class Cycle:
    """Distinct vertices, consecutive arcs plus the closing arc last->first."""

    vertices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self) -> Iterator[int]:
        return iter(self.vertices)


def _check_sequence(g: Digraph, verts: tuple[int, ...], what: str) -> None:
    if vertex_mask(g.n, verts).bit_count() != len(verts):
        raise PathError(f"{what} repeats a vertex: {verts}")
    for a, b in zip(verts, verts[1:]):
        if not g.has_arc(a, b):
            raise PathError(f"{what} needs missing arc {a}->{b}")


def make_path(g: Digraph, verts: Iterable[int]) -> Path:
    verts = tuple(verts)
    if not verts:
        raise PathError("path needs at least one vertex")
    _check_sequence(g, verts, "path")
    return Path(verts)


def make_cycle(g: Digraph, verts: Iterable[int]) -> Cycle:
    verts = tuple(verts)
    if len(verts) < 2:
        raise PathError("cycle needs at least two vertices")
    _check_sequence(g, verts, "cycle")
    if not g.has_arc(verts[-1], verts[0]):
        raise PathError(f"cycle needs missing closing arc {verts[-1]}->{verts[0]}")
    return Cycle(verts)


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------


def id_int(text: str) -> int:
    """An integer in its one spelling ("-2"; not "+0", " 0", "0_0" or "-0"),
    as ids and digraph text write it: ValueError unless str(int(text)) == text."""
    value = int(text)
    if str(value) != text:
        raise ValueError(f"integer {text!r} is not in canonical form")
    return value


def split_id(text: str, units: dict, kind: str) -> tuple[str, int | None]:
    """(name, integer or None) of an id of `kind`: name is a key of units,
    and it is followed by ":<integer>" in id_int's spelling exactly when
    units[name] names the integer ("k", "offset", ...), by nothing when it
    is None. Condition, filter, evaluator and structure ids all read so."""
    name, colon, param = text.partition(":")
    if name not in units:
        raise ValueError(f"unknown {kind} {text!r}")
    if units[name] is None:
        if colon:
            raise ValueError(f"{kind} {name!r} takes no parameter, got {text!r}")
        return name, None
    try:
        return name, id_int(param)
    except ValueError as exc:
        got = param if colon else None
        raise ValueError(f"{kind} {name!r} needs an integer {units[name]}, got {got!r}: {exc}")


def parse_digraph(text: str) -> Digraph:
    """Parse the "n m" / "u v" plain-text format. '#' starts a comment."""
    tokens: list[tuple[int, list[str]]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if body:
            tokens.append((lineno, body.split()))
    if not tokens:
        raise ParseError("empty input")
    lineno, head = tokens[0]
    if len(head) != 2:
        raise ParseError(f"line {lineno}: header must be 'n m'")
    try:
        n, m = id_int(head[0]), id_int(head[1])
    except ValueError as exc:
        raise ParseError(f"line {lineno}: header must be two integers") from exc
    body_lines = tokens[1:]
    if len(body_lines) != m:
        raise ParseError(f"header promises {m} arcs, found {len(body_lines)}")
    arcs = []
    for lineno, parts in body_lines:
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: arc line must be 'u v'")
        try:
            arcs.append((id_int(parts[0]), id_int(parts[1])))
        except ValueError as exc:
            raise ParseError(f"line {lineno}: arc endpoints must be integers") from exc
    try:
        return new_digraph(n, arcs)
    except DigraphError as exc:
        raise ParseError(str(exc)) from exc


def format_digraph(g: Digraph) -> str:
    """Emit the plain-text format, arcs in lexicographic order."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.arcs())
    return "\n".join(lines) + "\n"
