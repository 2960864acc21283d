"""Exact backtracking oracles for cycles, paths, bypasses and patterns.

Every search is deterministic: candidate vertices are tried in ascending
order, cycle witnesses start at their smallest vertex, and arc iteration is
lexicographic. Identical inputs therefore yield identical witnesses across
runs and worker counts.

The `_raw` helpers work on bitset out-rows, so the enumeration engine can
call them without building Digraph objects. One lazy path kernel,
`_paths_raw(rows, start, free, m, ends)`, answers every search: cycles of
any length, good cycles, Hamiltonian paths between fixed ends, bypasses and
D(n, k) copies are each a short call into it. The paper's route needs no
search: at an (n-1)-cycle and the vertex it misses, `_first_window` and
`_first_reversal` find the two moves Lemma 7 forbids, and
`_cycle_bypass_raw` reads a bypass off the first one found.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import families
from .digraph import (
    Cycle,
    Digraph,
    Path,
    VertexRangeError,
    _check_int,
    make_cycle,
    make_path,
    vertex_mask,
)


@dataclass(frozen=True)
class BypassWitness:
    """Vertex order v1..vn: consecutive arcs plus the chord v1->vn."""

    order: tuple[int, ...]


@dataclass(frozen=True)
class PatternEmbedding:
    """mapping[i] is the host vertex carrying pattern vertex i."""

    mapping: tuple[int, ...]


# ---------------------------------------------------------------------------
# Path kernel
# ---------------------------------------------------------------------------


def _paths_raw(rows, start, free, m, ends):
    """Every path of m vertices that starts at `start`, takes its other
    vertices from the mask `free` and ends in the mask `ends`, as a vertex
    tuple, in ascending DFS order: the first one yielded is the
    lexicographically least. Iterative, with an explicit stack of untried
    candidate bitsets."""
    last = m - 1
    path = []
    depth = 0
    free |= 1 << start
    cand = 1 << start  # untried candidates for path position depth
    stack = []  # untried candidates of the shallower positions
    while True:
        if depth == last:
            cand &= ends
            while cand:
                b = cand & -cand
                cand ^= b
                yield (*path, b.bit_length() - 1)
        if cand:
            b = cand & -cand
            stack.append(cand ^ b)
            w = b.bit_length() - 1
            path.append(w)
            depth += 1
            free ^= b
            cand = rows[w] & free
        elif stack:
            cand = stack.pop()
            free |= 1 << path.pop()
            depth -= 1
        else:
            return


# ---------------------------------------------------------------------------
# Cycles
# ---------------------------------------------------------------------------


def _cycles_raw(rows, cols, smask, m):
    """Every m-cycle inside the vertex set smask, each once, as a vertex
    tuple that starts at its smallest vertex, in ascending DFS order: the
    first one yielded is the first witness."""
    if m < 2:
        return
    rest = smask
    # A start s needs m - 1 vertices above it: the other vertices of a cycle
    # all exceed s, otherwise an earlier start has produced the cycle.
    while rest.bit_count() >= m:
        sbit = rest & -rest
        rest ^= sbit
        s = sbit.bit_length() - 1
        yield from _paths_raw(rows, s, rest, m, cols[s])


def iter_cycles_of_length(g: Digraph, m: int):
    """Every cycle of exactly m vertices, each once, in witness order. Needs
    2 <= m <= n, checked when called rather than at the first next()."""
    if not 2 <= _check_int(m, "cycle length") <= g.n:
        raise ValueError(f"cycle length must lie in [2, {g.n}], got {m}")
    return (make_cycle(g, verts) for verts in _cycles_raw(g.rows, g.cols, (1 << g.n) - 1, m))


def find_cycle_of_length(g: Digraph, m: int) -> Cycle | None:
    """First cycle of exactly m vertices, or None. Needs 2 <= m <= n."""
    return next(iter_cycles_of_length(g, m), None)


def find_hamiltonian_cycle(g: Digraph) -> Cycle | None:
    if g.n < 2:
        return None
    return find_cycle_of_length(g, g.n)


def find_pre_hamiltonian_cycle(g: Digraph) -> Cycle | None:
    """A cycle through exactly n-1 vertices, or None."""
    if g.n < 3:
        return None
    return find_cycle_of_length(g, g.n - 1)


# ---------------------------------------------------------------------------
# Hamiltonian paths between fixed ends
# ---------------------------------------------------------------------------


def _ham_path_raw(rows, cols, u, v, smask):
    """First path from u to v covering smask exactly (u != v, both in
    smask), vertices tried ascending."""
    free = smask & ~(1 << u) & ~(1 << v)
    hit = next(_paths_raw(rows, u, free, smask.bit_count() - 1, cols[v]), None)
    return None if hit is None else (*hit, v)


def find_hamiltonian_path_between(g: Digraph, u: int, v: int, s) -> Path | None:
    """Path from u to v visiting every vertex of s exactly once."""
    smask = vertex_mask(g.n, s)
    ends = vertex_mask(g.n, (u, v))
    if u == v:
        raise ValueError("endpoints must differ")
    if ends & ~smask:
        raise ValueError("both endpoints must lie in the vertex set")
    hit = _ham_path_raw(g.rows, g.cols, u, v, smask)
    return None if hit is None else make_path(g, hit)


# ---------------------------------------------------------------------------
# Hamiltonian bypass
# ---------------------------------------------------------------------------


def _bypass_raw(n, rows, cols):
    if n < 3:
        return None
    full = (1 << n) - 1
    for u in range(n):
        r = rows[u]
        while r:
            b = r & -r
            r ^= b
            hit = _ham_path_raw(rows, cols, u, b.bit_length() - 1, full)
            if hit is not None:
                return hit
    return None


def _first_window(rows, cols, cyc, y):
    """(i, True) for the first arc a -> b of the (n-1)-cycle cyc, i naming
    cyc[i-1] -> cyc[i], whose ends both receive an arc from the off vertex
    y (an out-window); (i, False) if they both send one to y instead (an
    in-window); None if no arc has either. At one arc the out-window is
    checked first."""
    out, inn = rows[y], cols[y]
    for i, b in enumerate(cyc):
        a = cyc[i - 1]
        if (out >> a) & (out >> b) & 1:
            return i, True
        if (inn >> a) & (inn >> b) & 1:
            return i, False
    return None


def _first_reversal(rows, cols, cyc, y):
    """(i, j) for the first arc a -> b of cyc, named as in _first_window,
    with a splice a -> y -> b and the reverse of another cycle arc j, and
    the first such j; None if there is no such pair."""
    out, inn = rows[y], cols[y]
    splices, flips = [], []
    for i, b in enumerate(cyc):
        a = cyc[i - 1]
        if (inn >> a) & (out >> b) & 1:
            splices.append(i)
        if (rows[b] >> a) & 1:
            flips.append(i)
    for i in splices:
        for j in flips:
            if j != i:
                return i, j
    return None


def _cycle_bypass_raw(rows, cols, cyc, y):
    """A bypass order read off the (n-1)-cycle cyc and its off vertex y, or
    None: None exactly when neither kernel finds its move. For a cycle arc
    a -> b:
      out-window  y -> a and y -> b give y b ... a, with chord y -> a;
      in-window   a -> y and b -> y give b ... a y, with chord b -> y;
      reversal    a -> y -> b makes a Hamiltonian cycle, and the reverse
                  q -> p of another cycle arc p -> q gives q ... p around
                  it, with chord q -> p.
    A window anywhere on the cycle comes before any reversal."""
    hit = _first_window(rows, cols, cyc, y)
    if hit is not None:
        i, out = hit
        return (y, *cyc[i:], *cyc[:i]) if out else (*cyc[i:], *cyc[:i], y)
    hit = _first_reversal(rows, cols, cyc, y)
    if hit is None:
        return None
    i, j = hit
    ham = (*cyc[:i], y, *cyc[i:])
    s = j if j < i else j + 1  # where q = cyc[j] sits in ham
    return ham[s:] + ham[:s]


def find_hamiltonian_bypass(g: Digraph) -> BypassWitness | None:
    """First Hamiltonian bypass: arcs (u, w) tried lexicographically, and for
    each a Hamiltonian (u, w)-path is sought; the path is the witness order."""
    hit = _bypass_raw(g.n, g.rows, g.cols)
    return None if hit is None else BypassWitness(hit)


def validate_bypass(g: Digraph, witness: BypassWitness) -> bool:
    """Witness order must be a permutation of all vertices (vertex_mask's
    rule), consecutive arcs present, plus the chord first->last."""
    order = witness.order
    try:
        if len(order) != g.n or vertex_mask(g.n, order) != (1 << g.n) - 1:
            return False
    except VertexRangeError:
        return False
    if not all(g.has_arc(a, b) for a, b in zip(order, order[1:])):
        return False
    return g.has_arc(order[0], order[-1])


# ---------------------------------------------------------------------------
# Spanning D(n, k) pattern
# ---------------------------------------------------------------------------


def _dnk_raw(n, rows, cols, k):
    """Lexicographically least spanning copy of families.bypass_pattern(n, k)
    as a mapping pattern vertex -> host vertex. The pattern is the forward
    path 0 -> 1 -> ... -> n-k+1 plus the path 0 -> n-1 -> ... -> n-k+1, so a
    copy is a forward path x0 ... y of n-k+2 vertices, then a path of k-1
    vertices walked back from y over the columns to an out-neighbour of x0."""
    full = (1 << n) - 1
    for x0 in range(n):
        for fwd in _paths_raw(rows, x0, full ^ (1 << x0), n - k + 2, full):
            rest = full
            for w in fwd:
                rest ^= 1 << w
            back = next(_paths_raw(cols, fwd[-1], rest, k - 1, rows[x0]), None)
            if back is not None:
                return fwd + back[1:]
    return None


def find_bypass_pattern(g: Digraph, k: int) -> PatternEmbedding | None:
    """Spanning embedding of the reversed-tail cycle pattern of parameter k.

    k = 2 agrees with find_hamiltonian_bypass on existence.
    """
    families.bypass_pattern(g.n, k)  # raises DigraphError on a bad n or k
    hit = _dnk_raw(g.n, g.rows, g.cols, k)
    return None if hit is None else PatternEmbedding(hit)


# ---------------------------------------------------------------------------
# Good cycles
# ---------------------------------------------------------------------------


def find_good_cycle(g: Digraph) -> Cycle | None:
    # The first (n-1)-cycle whose off-cycle vertex has total degree >= n,
    # off-cycle vertices tried ascending.
    n, rows, cols = g.n, g.rows, g.cols
    full = (1 << n) - 1
    for y in range(n):
        if rows[y].bit_count() + cols[y].bit_count() >= n:
            hit = next(_cycles_raw(rows, cols, full & ~(1 << y), n - 1), None)
            if hit is not None:
                return make_cycle(g, hit)
    return None
