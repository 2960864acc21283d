"""Path-insertion machinery: partners, collections, multi-insertion.

A partner of a path Q (or a single vertex x) on a host path P is a position i,
1-indexed with 1 <= i <= |P|-1, such that the arc pair P[i] -> Q.first and
Q.last -> P[i+1] exists; splicing Q between P[i] and P[i+1] then keeps a valid
path with P's endpoints. Partner indices are 1-indexed everywhere, matching
the usual statement of the insertion lemmas; step logs serialize them as-is.

All searches are deterministic (ascending positions, ascending vertex ids).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .digraph import Cycle, Digraph, Path, _check_sequence, make_path, vertex_mask
from .search import _first_reversal, _first_window


def _disjoint(g: Digraph, host, guest) -> int:
    """Bitmask of the host vertices. Raises VertexRangeError unless every
    vertex of host and guest passes digraph.vertex_mask, and ValueError if
    one repeats inside host or guest or lies on both."""
    masks = []
    for verts in (host, guest):
        mask = vertex_mask(g.n, verts)
        if mask.bit_count() != len(verts):
            repeated = next(v for i, v in enumerate(verts) if v in verts[:i])
            raise ValueError(f"vertex {repeated} repeats")
        masks.append(mask)
    shared = (masks[0] & masks[1]).bit_length() - 1
    if shared >= 0:
        raise ValueError(f"vertex {shared} lies on the host and on the insert")
    return masks[0]


def _partners(g: Digraph, pv, first, last) -> list[int]:
    """Every partner position, ascending, on the host sequence pv of an
    insert that runs from `first` to `last`."""
    return [i for i in range(1, len(pv)) if g.has_arc(pv[i - 1], first) and g.has_arc(last, pv[i])]


# ---------------------------------------------------------------------------
# Partners
# ---------------------------------------------------------------------------


def find_partner_for_vertex(g: Digraph, p: Path, x: int) -> int | None:
    """Smallest partner index of the single vertex x on p, or None."""
    return find_partner_for_path(g, p, Path((x,)))


def find_partner_for_path(g: Digraph, p: Path, q: Path) -> int | None:
    """Smallest partner index of the whole path q on p, or None."""
    pv, qv = p.vertices, q.vertices
    _disjoint(g, pv, qv)
    if len(pv) < 2:
        raise ValueError("host path needs at least two vertices")
    return next(iter(_partners(g, pv, qv[0], qv[-1])), None)


def insert_at(g: Digraph, p: Path, i: int, q: Path) -> Path:
    """Splice q between p[i] and p[i+1] (1-indexed partner position)."""
    pv, qv = p.vertices, q.vertices
    _disjoint(g, pv, qv)
    if not 1 <= i <= len(pv) - 1:
        raise ValueError(f"partner index {i} outside [1, {len(pv) - 1}]")
    if i not in _partners(g, pv, qv[0], qv[-1]):
        raise ValueError(f"position {i} is not a partner of the insert path")
    return make_path(g, pv[:i] + qv + pv[i:])


# ---------------------------------------------------------------------------
# Insertion hypotheses
# ---------------------------------------------------------------------------


def lemma2_hypothesis(g: Digraph, p: Path, x: int) -> str | None:
    """Strongest satisfied single-vertex insertion hypothesis: "i", "ii",
    "iii", or None.

    With m = |p| and d(x, P) counted toward the path's vertex set:
      (i)   d(x, P) >= m + 2;
      (ii)  d(x, P) >= m + 1 and (arc x->P.first missing or arc
            P.last->x missing);
      (iii) d(x, P) >= m and both of those arcs missing.
    """
    verts = p.vertices
    mask = _disjoint(g, verts, (x,))
    m = len(verts)
    d = (g.rows[x] & mask).bit_count() + (g.cols[x] & mask).bit_count()
    to_first_missing = not g.has_arc(x, verts[0])
    from_last_missing = not g.has_arc(verts[-1], x)
    if d >= m + 2:
        return "i"
    if d >= m + 1 and (to_first_missing or from_last_missing):
        return "ii"
    if d >= m and to_first_missing and from_last_missing:
        return "iii"
    return None


def lemma4_hypothesis(g: Digraph, p: Path, q: Path) -> bool:
    """Whole-path partner guarantee for q on p.

    Requires d_in(q.first, P) + d_out(q.last, P) >= |P| + [arc p.last ->
    q.first present] + [arc q.last -> p.first present].  The two indicator
    terms discount the only degree contributions that cannot open an
    insertion slot: an arc into q.first from the last path vertex has no
    slot after it, and an arc from q.last to the first path vertex has no
    slot before it; once those are paid for, |P| remaining contributions
    force two at consecutive positions.
    """
    pv, qv = p.vertices, q.vertices
    mask = _disjoint(g, pv, qv)
    din_first = (g.cols[qv[0]] & mask).bit_count()
    dout_last = (g.rows[qv[-1]] & mask).bit_count()
    need = len(pv) + int(g.has_arc(pv[-1], qv[0])) + int(g.has_arc(qv[-1], pv[0]))
    return din_first + dout_last >= need


def lemma1_hypothesis(g: Digraph, c: Cycle, x: int) -> bool:
    """d(x, C) >= |C| + 1 for an off-cycle vertex x: Lemma 3 with q = (x,),
    as d(x, C) = d_in(x, C) + d_out(x, C)."""
    return lemma3_hypothesis(g, c, Path((x,)))


def lemma3_hypothesis(g: Digraph, c: Cycle, q: Path) -> bool:
    """d_in(q.first, C) + d_out(q.last, C) >= |C| + 1 for a disjoint path q."""
    mask = _disjoint(g, c.vertices, q.vertices)
    din_first = (g.cols[q.vertices[0]] & mask).bit_count()
    dout_last = (g.rows[q.vertices[-1]] & mask).bit_count()
    return din_first + dout_last >= len(c) + 1


# ---------------------------------------------------------------------------
# Partner collections and multi-insertion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartnerCollection:
    """A block partition of the insert path plus one partner index per block.

    cuts holds 1-indexed block boundaries (1 = i_1 < ... < i_m = |Q| + 1);
    block j covers Q[cuts[j]..cuts[j+1]-1]. partners[j] is that block's
    position on P. find_collection_of_partners gives each block a position
    of its own, so inserting all blocks at once yields a path.
    """

    cuts: tuple[int, ...]
    partners: tuple[int, ...]


def find_collection_of_partners(g: Digraph, p: Path, q: Path) -> PartnerCollection | None:
    """The partner collection of q on p with the fewest blocks, the first
    such partition in combinations order, each block at its least partner;
    None if no partition has a partner for every block. Raises PathError
    unless p and q are paths of g.

    No two blocks of that partition share a partner: if blocks j < k both
    had partner i, the block from j's first vertex to k's last would have
    partner i too, and merging blocks j..k would give fewer blocks. So each
    block sits alone between its two host vertices, and they splice into a
    path of g.
    """
    pv, qv = p.vertices, q.vertices
    _disjoint(g, pv, qv)
    if len(pv) < 2:
        raise ValueError("host path needs at least two vertices")
    _check_sequence(g, pv, "path")
    _check_sequence(g, qv, "path")
    s = len(qv)
    for nblocks in range(1, s + 1):
        for interior in combinations(range(2, s + 1), nblocks - 1):
            cuts = (1,) + interior + (s + 1,)
            blocks = [qv[a - 1 : b - 1] for a, b in zip(cuts, cuts[1:])]
            least = [next(iter(_partners(g, pv, block[0], block[-1])), None) for block in blocks]
            if None not in least:
                return PartnerCollection(cuts, tuple(least))
    return None


def _ordered_cover_path(g: Digraph, pv, qv):
    """Lexicographically least path from pv[0] to pv[-1] that covers pv and
    qv and keeps pv's order, as a vertex tuple, or None; pv has two
    vertices or more.

    Exhaustive DFS over one candidate mask per step, lowest bit first: the
    insert vertices still off the path, plus the next host vertex, the
    last one only once every insert vertex is on the path.
    """
    rows, last = g.rows, len(pv) - 1

    def rec(cur, h, left):
        # h: index in pv of the next host vertex; left: inserts still off.
        if h > last:
            return (cur,)
        nxt = 1 << pv[h] if h < last or not left else 0
        cand = rows[cur] & (left | nxt)
        while cand:
            b = cand & -cand
            cand ^= b
            w = b.bit_length() - 1
            tail = rec(w, h + 1, left) if b == nxt else rec(w, h, left ^ b)
            if tail is not None:
                return (cur, *tail)
        return None

    return rec(pv[0], 1, vertex_mask(g.n, qv))


def _splice_collection(g: Digraph, p: Path, q: Path, coll: PartnerCollection) -> Path:
    """The path p with q's blocks spliced in at the partner collection coll,
    each block alone after the host vertex at its partner position."""
    cuts, qv = coll.cuts, q.vertices
    at = {i: qv[a - 1 : b - 1] for i, a, b in zip(coll.partners, cuts, cuts[1:])}
    out = []
    for i, v in enumerate(p.vertices, 1):
        out += (v, *at.get(i, ()))
    return make_path(g, out)


def multi_insert(g: Digraph, p: Path, q: Path) -> Path | None:
    """Path from p.first to p.last covering V(p) u V(q), if one exists with
    p's internal order preserved.

    A found partner collection is spliced directly; otherwise an exhaustive
    order-preserving search decides the fallback.
    """
    coll = find_collection_of_partners(g, p, q)
    if coll is not None:
        return _splice_collection(g, p, q, coll)
    hit = _ordered_cover_path(g, p.vertices, q.vertices)
    return None if hit is None else make_path(g, hit)


@dataclass(frozen=True)
class InsertionOutcome:
    extended: Path
    leftovers: frozenset[int]
    steps: tuple[tuple[int, int], ...]


def extend_as_much_as_possible(g: Digraph, p: Path, extra) -> InsertionOutcome:
    """Insert single vertices from `extra` until none has a partner.

    Each round inserts the lowest insertable vertex id at its smallest
    partner index; the step log records (vertex, index at insertion time).
    """
    left = sorted(set(extra))
    _disjoint(g, p.vertices, left)
    steps: list[tuple[int, int]] = []
    cur = p
    progressed = True
    while progressed and left:
        progressed = False
        for y in left:
            i = find_partner_for_vertex(g, cur, y)
            if i is not None:
                cur = insert_at(g, cur, i, Path((y,)))
                steps.append((y, i))
                left.remove(y)
                progressed = True
                break
    return InsertionOutcome(cur, frozenset(left), tuple(steps))


# ---------------------------------------------------------------------------
# Bypass-free consequences around an (n-1)-cycle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Lemma7Report:
    """Clause-by-clause evaluation for an (n-1)-cycle C and its off vertex y.

    windows_ok:   y sends (receives) at most one arc into every pair of
                  consecutive cycle vertices;
    degrees_ok:   2*d_out(y) and 2*d_in(y) at most n-1, total at most n-1;
    reversals_ok: whenever y can be spliced between consecutive cycle
                  vertices x_k, x_{k+1}, no cycle arc other than the one at
                  k is doubled in reverse.
    """

    windows_ok: bool
    degrees_ok: bool
    reversals_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.windows_ok and self.degrees_ok and self.reversals_ok


def lemma7_consequences(g: Digraph, c: Cycle, y: int) -> Lemma7Report:
    """Evaluate the Lemma7Report clauses for the (n-1)-cycle c of g and its
    off vertex y. Raises ValueError unless c covers all vertices but one
    and y is that one."""
    _disjoint(g, c.vertices, (y,))
    if len(c) != g.n - 1:
        raise ValueError("cycle must cover all vertices but one")
    n, rows, cols, cv = g.n, g.rows, g.cols, c.vertices
    do, di = rows[y].bit_count(), cols[y].bit_count()
    return Lemma7Report(
        _first_window(rows, cols, cv, y) is None,
        2 * do <= n - 1 and 2 * di <= n - 1 and do + di <= n - 1,
        _first_reversal(rows, cols, cv, y) is None,
    )


def is_good_cycle(g: Digraph, c: Cycle) -> bool:
    """(n-1)-cycle whose off-cycle vertex has total degree at least n.
    Raises ValueError unless c's vertices are distinct vertices of g."""
    on = _disjoint(g, c.vertices, ())
    if len(c) != g.n - 1:
        return False
    off = (((1 << g.n) - 1) ^ on).bit_length() - 1
    return g.degree(off) >= g.n
