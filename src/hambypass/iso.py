"""Canonical forms and isomorphism tests for small digraphs (n <= 8).

The canonical form is the lexicographically minimal row-major adjacency
bitstring over all vertex relabelings (row 0 first, column 0 the most
significant bit of each row). It is computed exactly by ordered-partition
branch and bound. Key fact: once a vertex is placed, its whole matrix row is
already determined, because refining the remaining cells into
non-neighbour/neighbour subcells pins down every later column position; so
rows can be minimized greedily, and the per-row minimum is where the
degree-based pruning lives (the smallest achievable first row is the
trailing-ones pattern of a minimum-out-degree vertex). Two digraphs are
isomorphic iff their canonical forms coincide.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import families
from .digraph import Digraph

CANON_MAX_N = 8


@dataclass(frozen=True)
class CanonicalForm:
    n: int
    bits: int

    @property
    def hex(self) -> str:
        width = (self.n * self.n + 3) // 4
        return format(self.bits, f"0{width}x")


def canonical_form(g: Digraph) -> CanonicalForm:
    """Exact minimal adjacency bitstring over all relabelings."""
    n = g.n
    if n > CANON_MAX_N:
        raise ValueError(f"canonical form supports n <= {CANON_MAX_N}, got {n}")
    if n == 1:
        return CanonicalForm(1, 0)
    rows = g.rows
    best: list[int] | None = None

    def row_value(v: int, placed: list[int], cells: list[tuple[int, ...]]) -> int:
        # Columns: placed vertices in order, v's own diagonal zero, then the
        # remaining cells left to right, non-neighbours before neighbours
        # inside each cell. Placing v commits to exactly this row.
        rv = rows[v]
        val = 0
        for u in placed:
            val = (val << 1) | ((rv >> u) & 1)
        val <<= 1
        for cell in cells:
            ones = 0
            width = 0
            for u in cell:
                if u == v:
                    continue
                width += 1
                ones += (rv >> u) & 1
            val = (val << width) | ((1 << ones) - 1)
        return val

    def refine(v: int, cells: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
        rv = rows[v]
        out = []
        for cell in cells:
            zeros = tuple(u for u in cell if u != v and not (rv >> u) & 1)
            ones = tuple(u for u in cell if u != v and (rv >> u) & 1)
            if zeros:
                out.append(zeros)
            if ones:
                out.append(ones)
        return out

    def prunable(rowvals: list[int], low: int) -> bool:
        # Fresh comparison against best every time: best may have improved
        # while siblings ran.
        if best is None:
            return False
        i = len(rowvals)
        prefix = best[:i]
        if rowvals != prefix:
            return rowvals > prefix
        return low > best[i]

    def rec(placed: list[int], cells: list[tuple[int, ...]], rowvals: list[int]):
        nonlocal best
        if not cells:
            if best is None or rowvals < best:
                best = list(rowvals)
            return
        scored = sorted((row_value(v, placed, cells), v) for v in cells[0])
        low = scored[0][0]
        # Only candidates achieving the minimal row can reach the global
        # minimum; ties must all be explored since they diverge deeper.
        for val, v in scored:
            if val != low:
                break
            if prunable(rowvals, low):
                return
            placed.append(v)
            rowvals.append(val)
            rec(placed, refine(v, cells), rowvals)
            rowvals.pop()
            placed.pop()

    rec([], [tuple(range(n))], [])
    assert best is not None
    bits = 0
    for rv in best:
        bits = (bits << n) | rv
    return CanonicalForm(n, bits)


def are_isomorphic(g: Digraph, h: Digraph) -> bool:
    """Size mismatch is just False; otherwise canonical forms are compared
    after cheap invariant screens."""
    if g.n != h.n or g.m != h.m:
        return False
    gp = sorted((g.out_degree(v), g.in_degree(v)) for v in range(g.n))
    hp = sorted((h.out_degree(v), h.in_degree(v)) for v in range(h.n))
    if gp != hp:
        return False
    return canonical_form(g) == canonical_form(h)


@lru_cache(maxsize=1)
def _t5_canonical() -> CanonicalForm:
    return canonical_form(families.t5())


def is_isomorphic_to_t5(g: Digraph) -> bool:
    """Structural screen (order, size, tournament) then canonical compare."""
    if g.n != 5 or g.m != 10:
        return False
    for u in range(5):
        if (g.rows[u] | g.cols[u]) != (0b11111 & ~(1 << u)):
            return False  # not a tournament
    return canonical_form(g) == _t5_canonical()


def is_balanced_complete_bipartite(g: Digraph) -> bool:
    """True iff g is K*_{n/2,n/2}: a balanced split with both arcs of every
    cross pair and none inside either part.

    The part containing vertex 0 is read off the adjacency complement; no
    search involved.
    """
    n = g.n
    if n < 2 or n % 2:
        return False
    adj0 = g.rows[0] | g.cols[0]
    part = 1
    for v in range(1, n):
        if not (adj0 >> v) & 1:
            part |= 1 << v
    if part.bit_count() != n // 2:
        return False
    full = (1 << n) - 1
    for v in range(n):
        crossing = (full & ~part) if (part >> v) & 1 else part
        if g.rows[v] != crossing or g.cols[v] != crossing:
            return False
    return True


def is_glued_cliques(g: Digraph) -> bool:
    """True iff g is two complete digraphs of at least two vertices each that
    share exactly one vertex: the family d1, up to labels.

    Apart from the shared vertex, adjacent to all, every vertex's closed
    neighbourhood is its block; no search involved.
    """
    full = (1 << g.n) - 1
    if g.rows != g.cols:
        return False
    blocks = {r | (1 << v) for v, r in enumerate(g.rows)} - {full}
    if len(blocks) != 2:
        return False
    one, two = blocks
    return (one & two).bit_count() == 1 and one | two == full


def d0_inner_kind(g: Digraph) -> str | None:
    """How g fills part B if g is the family d0 up to labels, else None:
    "empty" or "complete" if B carries no arc or every arc, else "explicit".

    d0 is an independent set A of (n+1)/2 vertices, n odd and at least 5,
    with both arcs between A and every vertex of B = V - A. Every vertex of
    A has exactly B as its out- and in-neighbourhood, so it gives A away.
    """
    n = g.n
    if n < 5 or n % 2 == 0:
        return None
    rows, cols = g.rows, g.cols
    full = (1 << n) - 1
    for v in range(n):
        b = rows[v]
        a = full ^ b
        if a.bit_count() != (n + 1) // 2:
            continue
        if all(rows[u] == b == cols[u] for u in range(n) if (a >> u) & 1):
            size = b.bit_count()
            arcs = sum((rows[u] & b).bit_count() for u in range(n) if (b >> u) & 1)
            if arcs == 0:
                return "empty"
            return "complete" if arcs == size * (size - 1) else "explicit"
    return None
