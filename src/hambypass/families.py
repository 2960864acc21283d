"""Named digraph families used as fixtures, patterns and extremal examples.

All generators are deterministic given their parameters and label vertices
0..n-1 the same way on every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from .digraph import Digraph, DigraphError, _check_int, _check_order, new_digraph, vertex_mask

# The 5-vertex tournament that satisfies the k=0 triple degree condition and
# is strong and Hamiltonian, yet has no Hamiltonian bypass. Unique such
# exception at desk scale; frozen arc list, vertices 0..3 on the outer
# 4-cycle and 4 in the middle.
T5_ARCS: tuple[tuple[int, int], ...] = (
    (0, 1), (1, 2), (2, 3), (3, 0),   # outer cycle
    (0, 4), (2, 4), (4, 1), (4, 3),   # arcs between the cycle and 4
    (0, 2), (1, 3),                   # diagonals
)


def complete_digraph(n: int) -> Digraph:
    """K*_n: both arcs between every pair."""
    _check_order(n)
    return new_digraph(n, ((u, v) for u in range(n) for v in range(n) if u != v))


def complete_bipartite_digraph(p: int, q: int) -> Digraph:
    """K*_{p,q} with parts {0..p-1} and {p..p+q-1}, both arcs of every cross pair."""
    if _check_int(p, "part size") < 1 or _check_int(q, "part size") < 1:
        raise DigraphError("both parts must be nonempty")
    arcs = []
    for u in range(p):
        for v in range(p, p + q):
            arcs.append((u, v))
            arcs.append((v, u))
    return new_digraph(p + q, arcs)


def directed_cycle(n: int) -> Digraph:
    """The n-cycle 0 -> 1 -> ... -> n-1 -> 0."""
    _check_order(n)
    if n < 2:
        raise DigraphError("directed cycle needs n >= 2")
    return new_digraph(n, ((i, (i + 1) % n) for i in range(n)))


def bypass_pattern(n: int, k: int) -> Digraph:
    """Directed n-cycle with its last k-1 arcs reversed.

    Writing the cycle arcs as e_1 = 0->1, ..., e_n = (n-1)->0, the arcs
    e_{n-k+2}..e_n are reversed. k = 2 is the Hamiltonian bypass shape
    (a Hamiltonian path plus the arc from its first to its last vertex).
    """
    _check_order(n)
    if n < 3:
        raise DigraphError("bypass pattern needs n >= 3")
    if not 2 <= _check_int(k, "k") <= n:
        raise DigraphError(f"k must lie in [2, {n}], got {k}")
    arcs = []
    for i in range(1, n + 1):          # e_i = (i-1) -> (i mod n)
        u, v = i - 1, i % n
        if i >= n - k + 2:
            u, v = v, u
        arcs.append((u, v))
    return new_digraph(n, arcs)


def t5() -> Digraph:
    return new_digraph(5, T5_ARCS)


@dataclass(frozen=True)
class InnerSpec:
    """How to fill the dependent part B of the independent-set family.

    kind is one of "empty", "complete", "explicit", "random". Explicit arcs
    use B-local indices 0..|B|-1, which inner_arcs checks with vertex_mask.
    Random fills each ordered pair independently with probability 1/2 from
    the given seed.
    """

    kind: str
    arcs: tuple[tuple[int, int], ...] = ()
    seed: int = 0

    @classmethod
    def empty(cls) -> "InnerSpec":
        return cls("empty")

    @classmethod
    def complete(cls) -> "InnerSpec":
        return cls("complete")

    @classmethod
    def explicit(cls, arcs) -> "InnerSpec":
        return cls("explicit", arcs=tuple((u, v) for u, v in arcs))

    @classmethod
    def random(cls, seed: int) -> "InnerSpec":
        return cls("random", seed=seed)

    def inner_arcs(self, b: int) -> list[tuple[int, int]]:
        """Arc list on 0..b-1 according to the spec kind."""
        if self.kind == "empty":
            return []
        if self.kind == "complete":
            return [(u, v) for u in range(b) for v in range(b) if u != v]
        if self.kind == "explicit":
            for arc in self.arcs:
                vertex_mask(b, arc)
            return list(self.arcs)
        if self.kind == "random":
            rng = random.Random(self.seed)
            return [
                (u, v)
                for u in range(b)
                for v in range(b)
                if u != v and rng.getrandbits(1)
            ]
        raise DigraphError(f"unknown inner kind {self.kind!r}")


def d0(n: int, inner: InnerSpec) -> Digraph:
    """Independent set A of (n+1)/2 vertices, arbitrary part B, all cross arcs.

    n must be odd and >= 5. A = {0..(n-1)/2}, B = the rest; every A-B pair
    carries both arcs, so e(A,B) = 2|A||B| = (n+1)(n-1)/2. The subdigraph on
    B is whatever `inner` says.
    """
    _check_order(n)
    if n < 5 or n % 2 == 0:
        raise DigraphError("this family needs odd n >= 5")
    a = (n + 1) // 2
    arcs = complete_bipartite_digraph(a, n - a).arcs()
    arcs.extend((a + u, a + v) for u, v in inner.inner_arcs(n - a))
    return new_digraph(n, arcs)


def iter_inner_specs(b: int) -> Iterator[InnerSpec]:
    """Every subdigraph of the dependent part, as explicit InnerSpecs."""
    slots = [(u, v) for u in range(b) for v in range(b) if u != v]
    for mask in range(1 << len(slots)):
        yield InnerSpec.explicit(
            [slots[i] for i in range(len(slots)) if (mask >> i) & 1]
        )


def d1(n: int, k: int) -> Digraph:
    """Two complete digraphs glued at one shared vertex.

    K*_{n-k} sits on {0..n-k-1} and K*_{k+1} on {n-k-1..n-1}; vertex n-k-1
    is the cut vertex. Requires n >= 4 and 1 <= k <= n-2.
    """
    _check_order(n)
    if n < 4:
        raise DigraphError("glued-cliques family needs n >= 4")
    if not 1 <= _check_int(k, "k") <= n - 2:
        raise DigraphError(f"k must lie in [1, {n - 2}], got {k}")
    cut = n - k - 1
    # Blocks overlap only in the cut vertex, so their arc sets are disjoint.
    arcs = complete_digraph(cut + 1).arcs()
    arcs.extend((cut + u, cut + v) for u, v in complete_digraph(k + 1).arcs())
    return new_digraph(n, arcs)
