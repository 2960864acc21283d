"""Independent reference implementations used only by the test suite.

Everything here is deliberately naive: permutations and dict lookups instead
of bitsets and backtracking, so that agreement with the package is evidence
rather than tautology. Usable up to n ~ 7.

The exception is reference_scan at the end: a mask-by-mask scan that reuses
the package's floor-free decoder, raw filter predicates and evaluators, but
resolves their ids by itself, so that it checks how the scan engines plan,
route, prune, floor and relabel, not the predicates themselves.
"""

from functools import cache, partial
from itertools import combinations, permutations, product

from hambypass import conditions, verify
from hambypass.digraph import Digraph, _strong_raw


def arc_set(g):
    return set(g.arcs())


def naive_cycles(g, m: int):
    """Every m-cycle of g as a vertex tuple, once per rotation."""
    arcs = arc_set(g)
    for verts in permutations(range(g.n), m):
        if all((verts[i], verts[(i + 1) % m]) in arcs for i in range(m)):
            yield verts


def naive_has_cycle_of_length(g, m: int) -> bool:
    return next(naive_cycles(g, m), None) is not None


def naive_has_hamiltonian_cycle(g) -> bool:
    return g.n >= 2 and naive_has_cycle_of_length(g, g.n)


def naive_has_pre_hamiltonian_cycle(g) -> bool:
    return g.n >= 3 and naive_has_cycle_of_length(g, g.n - 1)


def naive_has_hamiltonian_path(g, u, v) -> bool:
    arcs = arc_set(g)
    rest = [w for w in range(g.n) if w not in (u, v)]
    if u == v:
        return False
    for middle in permutations(rest):
        order = (u,) + middle + (v,)
        if all((order[i], order[i + 1]) in arcs for i in range(g.n - 1)):
            return True
    return False


def naive_has_bypass(g) -> bool:
    """Hamiltonian path whose start also beats its end directly."""
    arcs = arc_set(g)
    if g.n < 3:
        return False
    for order in permutations(range(g.n)):
        if (order[0], order[-1]) not in arcs:
            continue
        if all((order[i], order[i + 1]) in arcs for i in range(g.n - 1)):
            return True
    return False


def naive_highest_lowest_bypass_bit(g) -> int:
    """The highest, over every bypass of g, of its lowest arc's mask bit
    (arc (u, v) at u*(n-1) + v, less 1 if v > u); -1 if g has none."""
    arcs, n = arc_set(g), g.n
    best = -1
    for order in permutations(range(n)):
        bypass = [*zip(order, order[1:]), (order[0], order[-1])]
        if all(arc in arcs for arc in bypass):
            best = max(best, min(u * (n - 1) + v - (v > u) for u, v in bypass))
    return best


def naive_is_strong(g) -> bool:
    n = g.n
    reach = [[False] * n for _ in range(n)]
    for u in range(n):
        reach[u][u] = True
    for u, v in g.arcs():
        reach[u][v] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    if reach[k][j]:
                        reach[i][j] = True
    return all(all(row) for row in reach)


def naive_canonical_bits(g) -> int:
    """Minimum row-major adjacency bitstring by trying every permutation."""
    n = g.n
    arcs = arc_set(g)
    best = None
    for perm in permutations(range(n)):
        # perm[v] is the new name of old vertex v; build the relabeled matrix.
        rows = [[0] * n for _ in range(n)]
        for u, v in arcs:
            rows[perm[u]][perm[v]] = 1
        bits = 0
        for r in rows:
            for b in r:
                bits = (bits << 1) | b
        if best is None or bits < best:
            best = bits
    return best if best is not None else 0


def naive_automorphism_count(g) -> int:
    """Number of vertex permutations that map the arc set onto itself."""
    arcs = arc_set(g)
    return sum(
        all((perm[u], perm[v]) in arcs for u, v in arcs) for perm in permutations(range(g.n))
    )


def naive_embeds(g, pattern) -> bool:
    """Spanning copy of `pattern` inside g by brute force."""
    if g.n != pattern.n:
        return False
    arcs = arc_set(g)
    parcs = pattern.arcs()
    for perm in permutations(range(g.n)):
        if all((perm[u], perm[v]) in arcs for u, v in parcs):
            return True
    return False


def naive_min_nonadjacent_degree_sum(g):
    """Smallest d(x)+d(y) over non-adjacent pairs, or None if none exist."""
    best = None
    for x in range(g.n):
        for y in range(x + 1, g.n):
            if g.has_arc(x, y) or g.has_arc(y, x):
                continue
            s = g.degree(x) + g.degree(y)
            if best is None or s < best:
                best = s
    return best


def naive_thm13_violation(g):
    """The first pair x < y, non-adjacent with a common in-neighbour, whose
    degrees break min{d(x), d(y)} >= n-1 or d(x)+d(y) >= 2n-1, reported as
    conditions._thm13_violation reports it; None if there is none."""
    n = g.n
    for x in range(n):
        for y in range(x + 1, n):
            if g.has_arc(x, y) or g.has_arc(y, x) or not g.cols[x] & g.cols[y]:
                continue
            dx, dy = g.degree(x), g.degree(y)
            if min(dx, dy) < n - 1:
                return (x, y), min(dx, dy), n - 1, "min degree"
            if dx + dy < 2 * n - 1:
                return (x, y), dx + dy, 2 * n - 1, "degree sum"
    return None


def naive_a_k(g, k: int, inclusive: bool = False):
    """The first triple breaking the A_k degree condition, reported as
    conditions._a_k_violation reports it; None if there is none.

    Checks both orderings of every non-adjacent pair {x, y}, x then y then z
    ascending over all of range(n), the x->z clause before the z->x clause.
    With ``inclusive`` the third vertex may coincide with y (never with x).
    """
    n = g.n
    bound = 3 * n - 2 + k
    for x in range(n):
        for y in range(n):
            if x == y or g.has_arc(x, y) or g.has_arc(y, x):
                continue
            s = g.degree(x) + g.degree(y)
            for z in range(n):
                if z == x or (z == y and not inclusive):
                    continue
                value = s + g.out_degree(x) + g.in_degree(z)
                if not g.has_arc(x, z) and value < bound:
                    return (x, y, z), value, bound, "missing arc x->z"
                value = s + g.in_degree(x) + g.out_degree(z)
                if not g.has_arc(z, x) and value < bound:
                    return (x, y, z), value, bound, "missing arc z->x"
    return None


def naive_pair_sum_violation(g, offset: int):
    """The first pair x < y, non-adjacent, with d(x) + d(y) < 2n + offset,
    reported as conditions._pair_sum_violation reports it; None if there is
    none."""
    bound = 2 * g.n + offset
    for x in range(g.n):
        for y in range(x + 1, g.n):
            if g.has_arc(x, y) or g.has_arc(y, x):
                continue
            if g.degree(x) + g.degree(y) < bound:
                return (x, y), g.degree(x) + g.degree(y), bound, ""
    return None


def naive_woodall_violation(g):
    """The first missing arc x->y, x then y ascending, with
    d_out(x) + d_in(y) < n, reported as conditions._woodall_violation
    reports it; None if there is none."""
    for x in range(g.n):
        for y in range(g.n):
            if x != y and not g.has_arc(x, y) and g.out_degree(x) + g.in_degree(y) < g.n:
                return (x, y), g.out_degree(x) + g.in_degree(y), g.n, "missing arc x->y"
    return None


def naive_good_cycle_exists(g) -> bool:
    """Some (n-1)-cycle whose off-cycle vertex has total degree >= n."""
    n = g.n
    if n < 3:
        return False
    for verts in naive_cycles(g, n - 1):
        off = next(v for v in range(n) if v not in verts)
        if g.degree(off) >= n:
            return True
    return False


def naive_lemma7_clauses(g, c, y):
    """(windows_ok, degrees_ok, reversals_ok) of insertion.Lemma7Report for
    the (n-1)-cycle c and its off vertex y, clause by clause over has_arc."""
    n = g.n
    cv = c.vertices
    k = len(cv)

    windows_ok = True
    for i in range(k):
        a, b = cv[i], cv[(i + 1) % k]
        if int(g.has_arc(y, a)) + int(g.has_arc(y, b)) > 1:
            windows_ok = False
            break
        if int(g.has_arc(a, y)) + int(g.has_arc(b, y)) > 1:
            windows_ok = False
            break

    do, di = g.out_degree(y), g.in_degree(y)
    degrees_ok = 2 * do <= n - 1 and 2 * di <= n - 1 and do + di <= n - 1

    reversals_ok = True
    for i in range(k):
        if g.has_arc(cv[i], y) and g.has_arc(y, cv[(i + 1) % k]):
            for j in range(k):
                if j == i:
                    continue
                if g.has_arc(cv[(j + 1) % k], cv[j]):
                    reversals_ok = False
                    break
            if not reversals_ok:
                break

    return windows_ok, degrees_ok, reversals_ok


def naive_paths(g):
    """Every path of g, one vertex or more, as a vertex tuple."""
    arcs = arc_set(g)
    for k in range(1, g.n + 1):
        for verts in permutations(range(g.n), k):
            if all((a, b) in arcs for a, b in zip(verts, verts[1:])):
                yield verts


def naive_collection(g, pv, qv):
    """(cuts, partners) of insertion.find_collection_of_partners for the
    host path pv and the insert path qv, or None, with nothing assumed:
    partitions by block count, then in combinations order, and for each
    every assignment of host positions 1..|pv|-1 in product order, shared
    positions allowed (blocks at one position land in block order). The
    first assignment that splices into a path of g wins."""
    arcs = arc_set(g)
    s = len(qv)
    for nblocks in range(1, s + 1):
        for interior in combinations(range(2, s + 1), nblocks - 1):
            cuts = (1,) + interior + (s + 1,)
            blocks = [qv[a - 1 : b - 1] for a, b in zip(cuts, cuts[1:])]
            for partners in product(range(1, len(pv)), repeat=nblocks):
                seq = []
                for position, v in enumerate(pv, 1):
                    seq.append(v)
                    for block, i in zip(blocks, partners):
                        if i == position:
                            seq.extend(block)
                if all((a, b) in arcs for a, b in zip(seq, seq[1:])):
                    return cuts, partners
    return None


def reference_filter(fid):
    """Raw predicate of a scan filter id, with min_out:<t> and min_in:<t>
    as plain min-degree checks instead of decoder floors, and thm13 by
    naive_thm13_violation instead of the engine's core."""
    name, _, t = fid.partition(":")
    if name == "min_out":
        return lambda n, rows, cols, dout, din: min(dout) >= int(t)
    if name == "min_in":
        return lambda n, rows, cols, dout, din: min(din) >= int(t)
    if fid == "strong":
        return lambda n, rows, cols, dout, din: _strong_raw(n, rows, cols)
    if fid == "thm13":
        return lambda n, rows, *_: naive_thm13_violation(Digraph._from_rows(n, rows)) is None
    return conditions.resolve(fid).raw


def reference_evaluator(eid):
    """Raw predicate of an evaluator id, its parameter (no_dnk:<k>) bound."""
    name, _, k = eid.partition(":")
    evaluator = verify._EVALUATORS[name]
    return partial(evaluator, int(k)) if k else evaluator


def reference_scan(task, visitor=None):
    """enumerate_digraphs(task, visitor) mask by mask on one process: every
    mask ascending on an exhaustive task, the engine's seeded draws in
    order on a sampled one, each decoded by the floor-free decoder and run
    through every filter and the evaluator. One pass gives both: a visitor
    gets every survivor, and the evaluator's flagged masks come back too.
    Without a visitor the result is kept per task, as tasks are frozen."""
    if visitor is None:
        return _memo_reference_scan(task)
    if task.mode == "exhaustive":
        masks = range(1 << verify.mask_bits(task.n))
    else:
        chunks = range(-(-task.sample_count // verify.SAMPLE_CHUNK))
        masks = [mask for i in chunks for mask in verify._chunk_masks(task, i)]
    decode = verify._decoder(task.n)
    filters = [reference_filter(fid) for fid in task.filters]
    evaluator = task.evaluator and reference_evaluator(task.evaluator)
    passed, flagged = 0, []
    for mask in masks:
        args = (task.n, *decode(mask))
        if all(f(*args) for f in filters):
            passed += 1
            visitor(mask)
            if evaluator and evaluator(*args) is True:
                flagged.append(mask)
    return verify.ScanResult(len(masks), passed, tuple(flagged))


@cache
def _memo_reference_scan(task):
    return reference_scan(task, lambda mask: None)
