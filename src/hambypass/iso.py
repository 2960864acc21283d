"""Canonical forms and isomorphism tests for small digraphs, and recognizers
for the allowed-exception families. Canonical forms need n <= 8; the
recognizers work at every order, since only T(5)'s computes one, at n = 5.

The canonical form is the lexicographically minimal row-major adjacency
bitstring over all vertex relabelings (row 0 first, column 0 the most
significant bit of each row). It is computed exactly by ordered-partition
branch and bound. A cell of the partition is an int bitmask of unplaced
vertices. Key fact: once a vertex is placed, its whole matrix row is already
determined, because refining the remaining cells into non-neighbour/neighbour
subcells pins down every later column position; so rows can be minimized
greedily, and the per-row minimum is where the degree-based pruning lives
(the smallest achievable first row is the trailing-ones pattern of a
minimum-out-degree vertex). Two digraphs are isomorphic iff their canonical
forms coincide.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    rows = g.rows
    best: list[int] = []
    placed: list[int] = []
    rowvals: list[int] = []

    def rec(cells: list[int]) -> None:
        nonlocal best
        if not cells:
            if not best or rowvals < best:
                best = rowvals[:]
            return
        # Placing v commits to its row: the placed vertices in order, v's own
        # diagonal zero, then each remaining cell left to right with its
        # non-neighbours of v before its neighbours.
        scored = []
        first = cells[0]
        while first:
            bit = first & -first
            first ^= bit
            v = bit.bit_length() - 1
            rv = rows[v]
            val = 0
            for u in placed:
                val = (val << 1) | ((rv >> u) & 1)
            val <<= 1
            for c in cells:
                c &= ~bit
                val = (val << c.bit_count()) | ((1 << (c & rv).bit_count()) - 1)
            scored.append((val, v))
        scored.sort()
        low = scored[0][0]
        # Only candidates achieving the minimal row can reach the global
        # minimum; ties must all be explored since they diverge deeper. The
        # prune is re-checked per candidate: best may have improved meanwhile.
        for val, v in scored:
            if val != low or best and rowvals + [low] > best[: len(rowvals) + 1]:
                return
            rv = rows[v]
            off = ~(rv | (1 << v))
            refined = [part for c in cells for part in (c & off, c & rv) if part]
            placed.append(v)
            rowvals.append(val)
            rec(refined)
            rowvals.pop()
            placed.pop()

    rec([(1 << n) - 1])
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


def is_isomorphic_to_t5(g: Digraph) -> bool:
    """True iff g is a relabeling of the tournament `families.t5()`."""
    return are_isomorphic(g, families.t5())


def is_balanced_complete_bipartite(g: Digraph) -> bool:
    """True iff g is K*_{n/2,n/2}: a balanced split with both arcs of every
    cross pair and none inside either part."""
    return g.n % 2 == 0 and _split_arcs(g, g.n // 2) == 0


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
    with both arcs between A and every vertex of B = V - A.
    """
    n = g.n
    arcs = _split_arcs(g, (n + 1) // 2) if n >= 5 and n % 2 else None
    if arcs is None:
        return None
    size = n // 2
    return {0: "empty", size * (size - 1): "complete"}.get(arcs, "explicit")


def _split_arcs(g: Digraph, a: int) -> int | None:
    """The number of arcs inside B if some set A of `a` vertices is
    independent and joined both ways to every vertex of B = V - A, else None.
    Every vertex of such an A has exactly B as its out- and in-neighbourhood,
    so it gives A away; no search involved."""
    n = g.n
    rows, cols = g.rows, g.cols
    full = (1 << n) - 1
    for v in range(n):
        b = rows[v]
        part = full ^ b
        if part.bit_count() != a:
            continue
        if all(rows[u] == b == cols[u] for u in range(n) if (part >> u) & 1):
            return sum((rows[u] & b).bit_count() for u in range(n) if (b >> u) & 1)
    return None
