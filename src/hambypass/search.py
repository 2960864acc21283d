"""Exact backtracking oracles for cycles, paths, bypasses and patterns.

Every search is deterministic: candidate vertices are tried in ascending
order, cycle witnesses start at their smallest vertex, and arc iteration is
lexicographic. Identical inputs therefore yield identical witnesses across
runs and worker counts.

The `_raw` helpers work on bitset out-rows, so the enumeration engine can
call them without building Digraph objects. One cycle kernel,
`_cycles_raw(rows, smask, m)`, lazily yields the m-cycles inside a vertex
mask and answers every cycle question: first witness, all witnesses,
Hamiltonian (m = |smask|) and pre-Hamiltonian cycles. The path, bypass and
embedding searches take (n, rows, cols, ...).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import families
from .digraph import Cycle, Digraph, Path, make_cycle, make_path, vertex_mask


@dataclass(frozen=True)
class BypassWitness:
    """Vertex order v1..vn: consecutive arcs plus the chord v1->vn."""

    order: tuple[int, ...]


@dataclass(frozen=True)
class PatternEmbedding:
    """mapping[i] is the host vertex carrying pattern vertex i."""

    mapping: tuple[int, ...]


# ---------------------------------------------------------------------------
# Cycles
# ---------------------------------------------------------------------------


def _cycles_raw(rows, smask, m):
    """Every m-cycle inside the vertex set smask, each once, as a vertex
    tuple that starts at its smallest vertex, in ascending DFS order: the
    first one yielded is the first witness. Iterative, with an explicit
    stack of untried candidate bitsets."""
    if m < 2:
        return
    last = m - 1
    rest = smask
    # A start s needs m - 1 vertices above it: the other vertices of a cycle
    # all exceed s, otherwise an earlier start has produced the cycle.
    while rest.bit_count() >= m:
        sbit = rest & -rest
        rest ^= sbit
        s = sbit.bit_length() - 1
        path = [s]
        depth = 1
        free = rest  # vertices above s that are off the path
        cand = rows[s] & free  # untried candidates for path position depth
        stack = []  # untried candidates of the shallower positions
        while True:
            if depth == last:
                while cand:
                    b = cand & -cand
                    cand ^= b
                    w = b.bit_length() - 1
                    if (rows[w] >> s) & 1:
                        yield (*path, w)
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
                break


def find_cycle_of_length(g: Digraph, m: int) -> Cycle | None:
    """First cycle of exactly m vertices, or None. Needs 2 <= m <= n."""
    if not 2 <= m <= g.n:
        raise ValueError(f"cycle length must lie in [2, {g.n}], got {m}")
    hit = next(_cycles_raw(g.rows, (1 << g.n) - 1, m), None)
    return None if hit is None else make_cycle(g, hit)


def iter_cycles_of_length(g: Digraph, m: int):
    if not 2 <= m <= g.n:
        raise ValueError(f"cycle length must lie in [2, {g.n}], got {m}")
    for verts in _cycles_raw(g.rows, (1 << g.n) - 1, m):
        yield make_cycle(g, verts)


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


def _ham_path_raw(n, rows, cols, u, v, smask):
    """Path from u to v covering smask exactly, vertices tried ascending."""
    size = smask.bit_count()
    vbit = 1 << v
    path = [u]

    def feasible(cur, rem):
        # Every remaining vertex must still be enterable and (except the
        # final target) leavable inside the remaining region.
        curbit = 1 << cur
        r = rem
        while r:
            b = r & -r
            r ^= b
            w = b.bit_length() - 1
            others = rem & ~b
            if not cols[w] & (others | curbit):
                return False
            if b != vbit and not rows[w] & others:
                return False
        return True

    def rec(cur, visited, depth):
        if depth == size:
            return cur == v
        rem = smask & ~visited
        if rem == vbit:
            cand = rows[cur] & vbit
        else:
            cand = rows[cur] & rem & ~vbit
            if not cand or not feasible(cur, rem):
                return False
        while cand:
            b = cand & -cand
            cand ^= b
            w = b.bit_length() - 1
            path.append(w)
            if rec(w, visited | b, depth + 1):
                return True
            path.pop()
        return False

    if not (smask >> u) & 1 or not (smask >> v) & 1:
        return None
    return tuple(path) if rec(u, 1 << u, 1) else None


def find_hamiltonian_path_between(g: Digraph, u: int, v: int, s) -> Path | None:
    """Path from u to v visiting every vertex of s exactly once."""
    smask = vertex_mask(g.n, s)
    if u == v:
        raise ValueError("endpoints must differ")
    if not (smask >> u) & 1 or not (smask >> v) & 1:
        raise ValueError("both endpoints must lie in the vertex set")
    hit = _ham_path_raw(g.n, g.rows, g.cols, u, v, smask)
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
            w = b.bit_length() - 1
            hit = _ham_path_raw(n, rows, cols, u, w, full)
            if hit is not None:
                return hit
    return None


def find_hamiltonian_bypass(g: Digraph) -> BypassWitness | None:
    """First Hamiltonian bypass: arcs (u, w) tried lexicographically, and for
    each a Hamiltonian (u, w)-path is sought; the path is the witness order."""
    hit = _bypass_raw(g.n, g.rows, g.cols)
    return None if hit is None else BypassWitness(hit)


def validate_bypass(g: Digraph, witness: BypassWitness) -> bool:
    """Witness order must be a permutation of all vertices, consecutive arcs
    present, plus the chord first->last."""
    order = witness.order
    if sorted(order) != list(range(g.n)):
        return False
    if not all(g.has_arc(a, b) for a, b in zip(order, order[1:])):
        return False
    return g.has_arc(order[0], order[-1])


# ---------------------------------------------------------------------------
# Spanning pattern embedding
# ---------------------------------------------------------------------------


def _embed_raw(n, rows, cols, prows, pcols):
    pdout = [r.bit_count() for r in prows]
    pdin = [c.bit_count() for c in pcols]
    gdout = [r.bit_count() for r in rows]
    gdin = [c.bit_count() for c in cols]
    mapping = [-1] * n

    def rec(i, used):
        if i == n:
            return True
        pr = prows[i]
        pc = pcols[i]
        for v in range(n):
            bit = 1 << v
            if used & bit or gdout[v] < pdout[i] or gdin[v] < pdin[i]:
                continue
            ok = True
            for j in range(i):
                mj = mapping[j]
                if (pr >> j) & 1 and not (rows[v] >> mj) & 1:
                    ok = False
                    break
                if (pc >> j) & 1 and not (rows[mj] >> v) & 1:
                    ok = False
                    break
            if ok:
                mapping[i] = v
                if rec(i + 1, used | bit):
                    return True
                mapping[i] = -1
        return False

    return tuple(mapping) if rec(0, 0) else None


def find_bypass_pattern(g: Digraph, k: int) -> PatternEmbedding | None:
    """Spanning embedding of the reversed-tail cycle pattern of parameter k.

    k = 2 agrees with find_hamiltonian_bypass on existence.
    """
    pattern = families.bypass_pattern(g.n, k)
    hit = _embed_raw(g.n, g.rows, g.cols, pattern.rows, pattern.cols)
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
            hit = next(_cycles_raw(rows, full & ~(1 << y), n - 1), None)
            if hit is not None:
                return make_cycle(g, hit)
    return None
