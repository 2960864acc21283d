"""Partners, insertions, multi-insertion, maximal extension, lemma checkers."""

import random
from itertools import takewhile

import pytest
from hypothesis import given

from conftest import digraphs, seeded_corpus
from naive_oracles import (
    naive_collection,
    naive_lemma7_clauses,
    naive_ordered_cover,
    naive_paths,
)

from hambypass.digraph import Cycle, Path, PathError, make_cycle, make_path, new_digraph
from hambypass import families as fam
from hambypass import insertion as ins
from hambypass.search import (
    _first_reversal,
    _first_window,
    find_cycle_of_length,
    find_hamiltonian_bypass,
)
from hambypass.verify import digraph_from_mask


def greedy_path(g, rng, max_len=None):
    """Deterministic path sampled from a digraph: random start, greedy arcs."""
    verts = list(range(g.n))
    rng.shuffle(verts)
    p = [verts[0]]
    limit = max_len or g.n - 1
    for v in verts[1:]:
        if g.has_arc(p[-1], v) and len(p) < limit:
            p.append(v)
    return p


# --------------------------------------------------------------------------
# find_partner_for_vertex / insert_at
# --------------------------------------------------------------------------

def test_partner_for_vertex_examples(t5):
    g = new_digraph(3, [(0, 1), (0, 2), (2, 1)])
    assert ins.find_partner_for_vertex(g, make_path(g, (0, 1)), 2) == 1

    h = new_digraph(3, [(0, 1), (2, 0), (1, 2)])
    assert ins.find_partner_for_vertex(h, make_path(h, (0, 1)), 2) is None

    assert ins.find_partner_for_vertex(t5, make_path(t5, (0, 1, 2, 3)), 4) == 1


@pytest.mark.parametrize("x", [5, 9, -1])
def test_single_vertex_checks_reject_a_vertex_outside_the_digraph(t5, x):
    p = make_path(t5, (0, 1))
    c = make_cycle(t5, (0, 1, 2, 3))
    for call in (
        lambda: ins.find_partner_for_vertex(t5, p, x),
        lambda: ins.lemma1_hypothesis(t5, c, x),
        lambda: ins.lemma2_hypothesis(t5, p, x),
    ):
        with pytest.raises(ValueError, match=rf"vertex {x} outside range\(5\)"):
            call()


# Every insertion entry point that takes vertices, called with a host (a path
# or a cycle of t5) and an insert vertex x.
PATH_ENTRY_POINTS = {
    "find_partner_for_vertex": lambda g, p, x: ins.find_partner_for_vertex(g, p, x),
    "find_partner_for_path": lambda g, p, x: ins.find_partner_for_path(g, p, Path((x,))),
    "insert_at": lambda g, p, x: ins.insert_at(g, p, 1, Path((x,))),
    "lemma2_hypothesis": lambda g, p, x: ins.lemma2_hypothesis(g, p, x),
    "lemma4_hypothesis": lambda g, p, x: ins.lemma4_hypothesis(g, p, Path((x,))),
    "find_collection_of_partners": lambda g, p, x: ins.find_collection_of_partners(
        g, p, Path((x,))
    ),
    "multi_insert": lambda g, p, x: ins.multi_insert(g, p, Path((x,))),
    "extend_as_much_as_possible": lambda g, p, x: ins.extend_as_much_as_possible(g, p, (x,)),
}
CYCLE_ENTRY_POINTS = {
    "lemma1_hypothesis": lambda g, c, x: ins.lemma1_hypothesis(g, c, x),
    "lemma3_hypothesis": lambda g, c, x: ins.lemma3_hypothesis(g, c, Path((x,))),
    "lemma7_consequences": lambda g, c, x: ins.lemma7_consequences(g, c, x),
}


def _entry_call(t5, entry, host_vertex, x):
    """The call of `entry` on t5 whose host is the path (0, host_vertex) or
    the cycle (0, 1, 2, host_vertex), built without make_path's checks."""
    if entry in PATH_ENTRY_POINTS:
        return lambda: PATH_ENTRY_POINTS[entry](t5, Path((0, host_vertex)), x)
    return lambda: CYCLE_ENTRY_POINTS[entry](t5, Cycle((0, 1, 2, host_vertex)), x)


@pytest.mark.parametrize("v", [9, -1, 2.0])
@pytest.mark.parametrize("place", ["insert", "host"])
@pytest.mark.parametrize("entry", [*PATH_ENTRY_POINTS, *CYCLE_ENTRY_POINTS])
def test_entry_points_reject_a_vertex_outside_the_digraph(t5, entry, place, v):
    call = _entry_call(t5, entry, 3, v) if place == "insert" else _entry_call(t5, entry, v, 4)
    with pytest.raises(ValueError, match=rf"vertex {v} outside range\(5\)"):
        call()


@pytest.mark.parametrize("entry", [*PATH_ENTRY_POINTS, *CYCLE_ENTRY_POINTS])
def test_entry_points_reject_a_vertex_on_the_host(t5, entry):
    with pytest.raises(ValueError, match="vertex 0 lies on the host and on the insert"):
        _entry_call(t5, entry, 3, 0)()


@pytest.mark.parametrize("entry", [*PATH_ENTRY_POINTS, *CYCLE_ENTRY_POINTS])
def test_entry_points_reject_a_repeated_host_vertex(t5, entry):
    with pytest.raises(ValueError, match="vertex 0 repeats"):
        _entry_call(t5, entry, 0, 4)()


def test_entry_points_reject_a_repeated_insert_vertex(t5):
    p, q = Path((0, 1)), Path((3, 2, 3))
    for call in (
        lambda: ins.find_partner_for_path(t5, p, q),
        lambda: ins.insert_at(t5, p, 1, q),
        lambda: ins.lemma3_hypothesis(t5, Cycle((0, 1)), q),
        lambda: ins.multi_insert(t5, p, q),
    ):
        with pytest.raises(ValueError, match="vertex 3 repeats"):
            call()


@pytest.mark.parametrize(
    "cycle, message",
    [
        ((0, 1, 2, 9), r"vertex 9 outside range\(5\)"),
        ((0, 1, 2, -1), r"vertex -1 outside range\(5\)"),
        ((0, 1, 2, 2), "vertex 2 repeats"),
    ],
)
def test_is_good_cycle_rejects_bad_cycle_vertices(t5, cycle, message):
    with pytest.raises(ValueError, match=message):
        ins.is_good_cycle(t5, Cycle(cycle))


def test_partner_rejects_vertex_on_path(t5):
    with pytest.raises(ValueError):
        ins.find_partner_for_vertex(t5, make_path(t5, (0, 1, 2, 3)), 2)


def test_insert_at_examples():
    g = new_digraph(3, [(0, 1), (0, 2), (2, 1)])
    out = ins.insert_at(g, make_path(g, (0, 1)), 1, make_path(g, (2,)))
    assert out.vertices == (0, 2, 1)

    h = new_digraph(5, [(0, 1), (1, 2), (3, 4), (1, 3), (4, 2)])
    out = ins.insert_at(h, make_path(h, (0, 1, 2)), 2, make_path(h, (3, 4)))
    assert out.vertices == (0, 1, 3, 4, 2)


def test_insert_at_rejects_bad_partner_and_overlap(t5):
    p = make_path(t5, (0, 1, 2))
    with pytest.raises(ValueError):
        ins.insert_at(t5, p, 1, make_path(t5, (3,)))  # no arc 0->3
    with pytest.raises(ValueError):
        ins.insert_at(t5, p, 1, make_path(t5, (2,)))  # overlapping vertex sets
    for i in (0, 3):  # partner indices run from 1 to |P| - 1
        with pytest.raises(ValueError, match=rf"partner index {i} outside \[1, 2\]"):
            ins.insert_at(t5, p, i, make_path(t5, (4,)))


@pytest.mark.parametrize(
    "search", [ins.find_partner_for_path, ins.find_collection_of_partners, ins.multi_insert]
)
def test_partner_searches_refuse_a_one_vertex_host(t5, search):
    with pytest.raises(ValueError, match="host path needs at least two vertices"):
        search(t5, Path((0,)), Path((4,)))


# --------------------------------------------------------------------------
# lemma 2 hypothesis
# --------------------------------------------------------------------------

def test_lemma2_cases():
    g = new_digraph(3, [(0, 1), (0, 2), (2, 1), (1, 2), (2, 0)])
    assert ins.lemma2_hypothesis(g, make_path(g, (0, 1)), 2) == "i"

    h = new_digraph(3, [(0, 1), (0, 2), (2, 1)])
    assert ins.lemma2_hypothesis(h, make_path(h, (0, 1)), 2) == "iii"

    k = new_digraph(3, [(0, 1), (2, 0), (1, 2)])
    assert ins.lemma2_hypothesis(k, make_path(k, (0, 1)), 2) is None


def test_lemma2_literal_reading_is_unsound():
    """The verbatim second disjunct of case (ii), "arc P.last->P.first
    missing", mentions the path's own endpoints, so it can fire with no
    partner available; the corrected reading never does (swept in the
    acceptance suite)."""
    g = new_digraph(3, [(0, 1), (0, 2), (1, 0), (2, 1)])
    p, x = make_path(g, (0, 2)), 1
    first, last, m = p.vertices[0], p.vertices[-1], len(p.vertices)
    d = sum(g.has_arc(x, v) + g.has_arc(v, x) for v in p.vertices)
    literal_ii = d >= m + 1 and (not g.has_arc(x, first) or not g.has_arc(last, first))
    assert d < m + 2 and literal_ii  # the literal reading accepts, by case (ii)
    assert ins.lemma2_hypothesis(g, p, x) is None
    assert ins.find_partner_for_vertex(g, p, x) is None


def test_lemma2_case_implies_partner_seeded():
    hits = 0
    for rng, g in seeded_corpus(seed=301, count=250, n_lo=3, n_hi=7):
        p = greedy_path(g, rng)
        if len(p) < 2:
            continue
        off = [v for v in range(g.n) if v not in p]
        if not off:
            continue
        path = make_path(g, p)
        for x in off:
            if ins.lemma2_hypothesis(g, path, x) is not None:
                hits += 1
                assert ins.find_partner_for_vertex(g, path, x) is not None
    assert hits > 20


# --------------------------------------------------------------------------
# lemma 4 hypothesis / whole-path partners
# --------------------------------------------------------------------------

def test_lemma4_examples():
    g = new_digraph(3, [(0, 1), (0, 2), (2, 1)])
    assert ins.lemma4_hypothesis(g, make_path(g, (0, 1)), make_path(g, (2,)))

    h = new_digraph(3, [(0, 1), (2, 0), (0, 2)])
    assert not ins.lemma4_hypothesis(h, make_path(h, (0, 1)), make_path(h, (2,)))

    k = new_digraph(3, [(0, 1)])
    assert not ins.lemma4_hypothesis(k, make_path(k, (0, 1)), make_path(k, (2,)))


def test_partner_for_path_example():
    g = new_digraph(5, [(0, 1), (1, 2), (3, 4), (1, 3), (4, 2)])
    assert ins.find_partner_for_path(g, make_path(g, (0, 1, 2)), make_path(g, (3, 4))) == 2


def test_lemma4_literal_terms_are_unsound():
    """Frozen witness: with the uncorrected indicator arcs q.first->p.first
    and p.last->q.last the hypothesis accepts an instance that has no
    whole-path partner; the library's reading rejects it."""
    g = new_digraph(
        5, [(0, 1), (0, 3), (1, 4), (2, 0), (2, 4), (3, 0), (3, 4), (4, 0)]
    )
    p, q = make_path(g, (3, 0)), make_path(g, (1, 4))
    pv, qv = p.vertices, q.vertices
    din_first = sum(g.has_arc(v, qv[0]) for v in pv)
    dout_last = sum(g.has_arc(qv[-1], v) for v in pv)
    need = len(pv) + g.has_arc(qv[0], pv[0]) + g.has_arc(pv[-1], qv[-1])
    assert din_first + dout_last >= need  # the literal reading accepts
    assert not ins.lemma4_hypothesis(g, p, q)
    assert ins.find_partner_for_path(g, p, q) is None


def test_lemma4_implies_whole_path_partner_seeded():
    hits = 0
    for rng, g in seeded_corpus(seed=302, count=250, n_lo=4, n_hi=7):
        p = greedy_path(g, rng, max_len=max(2, g.n - 2))
        off = [v for v in range(g.n) if v not in p]
        if len(p) < 2 or not off:
            continue
        q = [off[0]]
        for v in off[1:]:
            if g.has_arc(q[-1], v):
                q.append(v)
        path, qpath = make_path(g, p), make_path(g, q)
        if ins.lemma4_hypothesis(g, path, qpath):
            hits += 1
            assert ins.find_partner_for_path(g, path, qpath) is not None
    assert hits > 10


# --------------------------------------------------------------------------
# collections of partners / multi-insertion
# --------------------------------------------------------------------------

def test_collection_example_with_blocks():
    g = new_digraph(5, [(0, 1), (1, 2), (3, 4), (0, 3), (3, 1), (1, 4), (4, 2)])
    p, q = make_path(g, (0, 1, 2)), make_path(g, (3, 4))
    assert ins.find_partner_for_path(g, p, q) is None  # Q cannot go in whole
    col = ins.find_collection_of_partners(g, p, q)
    assert col is not None
    assert col.cuts == (1, 2, 3)
    assert col.partners == (1, 2)
    assert ins.multi_insert(g, p, q).vertices == (0, 3, 1, 4, 2)


def test_collection_trivial_and_absent(t5):
    p = make_path(t5, (0, 1, 2, 3))
    col = ins.find_collection_of_partners(t5, p, make_path(t5, (4,)))
    assert col is not None and col.cuts == (1, 2) and col.partners == (1,)

    g = new_digraph(4, [(0, 1), (1, 2)])
    assert ins.find_collection_of_partners(g, make_path(g, (0, 1, 2)), make_path(g, (3,))) is None


def _collection_pairs():
    """(g, host, insert) for every pair of disjoint paths, the host of two
    vertices or more, of every digraph with n <= 4, then up to 2,000
    seeded pairs at n = 5 and 6, where a collection can have several
    blocks."""
    for n in (3, 4):
        for mask in range(1 << n * (n - 1)):
            g = digraph_from_mask(n, mask)
            paths = list(naive_paths(g))
            for pv in paths:
                for qv in paths:
                    if len(pv) >= 2 and not set(pv) & set(qv):
                        yield g, pv, qv
    rng = random.Random(32)
    for n in (5, 6):
        for _ in range(100):
            g = digraph_from_mask(n, rng.getrandbits(n * (n - 1)) | rng.getrandbits(n * (n - 1)))
            paths = list(naive_paths(g))
            hosts = [pv for pv in paths if 2 <= len(pv) < n]
            for _ in range(10 if hosts else 0):
                pv = rng.choice(hosts)
                qv = rng.choice([qv for qv in paths if not set(pv) & set(qv)])
                yield g, pv, qv


def test_collection_is_the_first_one_the_naive_search_splices():
    """The pick (fewest blocks, each at its least partner) is the first
    collection the naive search splices, though that search tries every
    position for every block, shared ones too."""
    pairs, blocks = 0, set()
    for g, pv, qv in _collection_pairs():
        pairs += 1
        col = ins.find_collection_of_partners(g, Path(pv), Path(qv))
        got = col and (col.cuts, col.partners)
        assert got == naive_collection(g, pv, qv), (g.arcs(), pv, qv)
        blocks.add(col and len(col.partners))
    assert pairs > 98_496
    assert blocks == {None, 1, 2}


@pytest.mark.parametrize(
    "host, insert, message",
    [
        ((1, 0), (4,), "path needs missing arc 1->0"),
        ((0, 1), (3, 2), "path needs missing arc 3->2"),
    ],
)
def test_collection_and_multi_insert_refuse_a_non_path(t5, host, insert, message):
    for call in (ins.find_collection_of_partners, ins.multi_insert):
        with pytest.raises(PathError, match=message):
            call(t5, Path(host), Path(insert))


def test_ordered_cover_path_is_the_least_naive_cover():
    """multi_insert's fallback search returns the lexicographically least
    path of the host and insert vertices that keeps the host's ends and
    order, and None exactly when there is no such path."""
    pairs = found = 0
    for g, pv, qv in takewhile(lambda pair: pair[0].n <= 4, _collection_pairs()):
        got = ins._ordered_cover_path(g, pv, qv)
        assert got == naive_ordered_cover(g, pv, qv), (g.arcs(), pv, qv)
        pairs += 1
        found += got is not None
    assert (pairs, found) == (98_496, 31_536)


def test_multi_insert_simple():
    g = new_digraph(3, [(0, 1), (0, 2), (2, 1)])
    assert ins.multi_insert(g, make_path(g, (0, 1)), make_path(g, (2,))).vertices == (0, 2, 1)
    h = new_digraph(3, [(0, 1)])
    assert ins.multi_insert(h, make_path(h, (0, 1)), make_path(h, (2,))) is None


def test_multi_insert_soundness_seeded():
    successes = 0
    for rng, g in seeded_corpus(seed=303, count=200, n_lo=4, n_hi=7, p=0.6):
        p = greedy_path(g, rng, max_len=max(2, g.n - 2))
        off = [v for v in range(g.n) if v not in p]
        if len(p) < 2 or not off:
            continue
        q = [off[0]]
        for v in off[1:]:
            if g.has_arc(q[-1], v):
                q.append(v)
        path, qpath = make_path(g, p), make_path(g, q)
        col = ins.find_collection_of_partners(g, path, qpath)
        merged = ins.multi_insert(g, path, qpath)
        if col is not None:
            assert merged is not None  # Lemma 6 guarantee
        if merged is not None:
            successes += 1
            assert merged.vertices[0] == p[0] and merged.vertices[-1] == p[-1]
            assert set(merged.vertices) == set(p) | set(q)
            inner = [v for v in merged.vertices if v in set(p)]
            assert inner == p  # host order preserved
    assert successes > 20


# --------------------------------------------------------------------------
# maximal extension
# --------------------------------------------------------------------------

def test_extend_examples(t5):
    g = new_digraph(3, [(0, 1), (0, 2), (2, 1)])
    out = ins.extend_as_much_as_possible(g, make_path(g, (0, 1)), (2,))
    assert out.extended.vertices == (0, 2, 1) and not out.leftovers

    h = new_digraph(4, [(0, 1), (0, 2), (2, 1), (2, 3), (3, 1)])
    out = ins.extend_as_much_as_possible(h, make_path(h, (0, 1)), (2, 3))
    assert out.extended.vertices == (0, 2, 3, 1)
    assert not out.leftovers and out.steps == ((2, 1), (3, 2))

    k = new_digraph(3, [(0, 1), (2, 0)])
    out = ins.extend_as_much_as_possible(k, make_path(k, (0, 1)), (2,))
    assert out.extended.vertices == (0, 1) and set(out.leftovers) == {2}

    out = ins.extend_as_much_as_possible(t5, make_path(t5, (0, 1)), (2, 3, 4))
    assert out.extended.vertices == (0, 2, 4, 1)
    assert set(out.leftovers) == {3}
    assert out.steps == ((4, 1), (2, 1))


@given(digraphs(min_n=3, max_n=6, p=0.6))
def test_extend_invariants(g):
    starts = [(u, v) for u, v in g.arcs()][:1]
    if not starts:
        return
    u, v = starts[0]
    rest = tuple(w for w in range(g.n) if w not in (u, v))
    out = ins.extend_as_much_as_possible(g, make_path(g, (u, v)), rest)
    ext = out.extended.vertices
    assert ext[0] == u and ext[-1] == v
    assert set(ext) == {u, v} | (set(rest) - set(out.leftovers))
    assert len(out.steps) == len(ext) - 2
    for x in out.leftovers:
        assert ins.find_partner_for_vertex(g, out.extended, x) is None


# --------------------------------------------------------------------------
# lemma 1 / lemma 3 hypotheses and their oracle-checked conclusions
# --------------------------------------------------------------------------

def test_lemma1_examples():
    g = new_digraph(3, [(0, 1), (1, 0), (2, 0), (0, 2), (1, 2)])
    assert ins.lemma1_hypothesis(g, make_cycle(g, (0, 1)), 2)
    h = new_digraph(3, [(0, 1), (1, 0), (2, 0)])
    assert not ins.lemma1_hypothesis(h, make_cycle(h, (0, 1)), 2)


def test_lemma3_example():
    g = new_digraph(4, [(0, 1), (1, 2), (2, 0), (0, 3), (2, 3), (3, 0), (3, 1)])
    c = make_cycle(g, (0, 1, 2))
    q = make_path(g, (3,))
    assert ins.lemma3_hypothesis(g, c, q)  # d^-(3,C)+d^+(3,C) = 2+2 = 4 >= 4


def test_lemma1_conclusion_via_oracle_seeded():
    from hambypass.digraph import induced_subdigraph

    hits = 0
    for rng, g in seeded_corpus(seed=304, count=150, n_lo=4, n_hi=7, p=0.6):
        c = find_cycle_of_length(g, g.n - 2) if g.n >= 4 else None
        if c is None:
            continue
        off = [v for v in range(g.n) if v not in c.vertices]
        for x in off:
            if ins.lemma1_hypothesis(g, c, x):
                hits += 1
                sub, _ = induced_subdigraph(g, set(c.vertices) | {x})
                for m in range(2, len(c.vertices) + 2):
                    assert find_cycle_of_length(sub, m) is not None
    assert hits > 10


# --------------------------------------------------------------------------
# lemma 7 consequences / good cycles
# --------------------------------------------------------------------------

def test_lemma7_on_t5(t5):
    rep = ins.lemma7_consequences(t5, make_cycle(t5, (0, 1, 2, 3)), 4)
    assert rep.windows_ok and rep.degrees_ok and rep.reversals_ok
    assert rep.all_ok


def test_lemma7_detects_bypass_rich_digraph():
    k5 = fam.complete_digraph(5)
    rep = ins.lemma7_consequences(k5, make_cycle(k5, (0, 1, 2, 3)), 4)
    assert rep == ins.Lemma7Report(False, False, False)
    assert not rep.all_ok
    assert find_hamiltonian_bypass(k5) is not None


def test_lemma7_vacuous_for_isolated_off_vertex():
    g = new_digraph(5, [(0, 1), (1, 2), (2, 3), (3, 0)])
    rep = ins.lemma7_consequences(g, make_cycle(g, (0, 1, 2, 3)), 4)
    assert rep.all_ok


def test_lemma7_requires_pre_hamiltonian_cycle(t5):
    g = fam.complete_digraph(5)
    with pytest.raises(ValueError):
        ins.lemma7_consequences(g, make_cycle(g, (0, 1, 2)), 4)


@pytest.mark.parametrize("y", [-1, 5])
def test_lemma7_rejects_vertex_outside_the_digraph(t5, y):
    with pytest.raises(ValueError, match="outside range"):
        ins.lemma7_consequences(t5, make_cycle(t5, (0, 1, 2, 3)), y)


def test_lemma7_consequences_and_kernels_match_naive_clauses(pre_hamiltonian_cycles):
    """lemma7_consequences, and whether each search kernel finds its move,
    clause by clause against the naive reading."""
    seen = set()
    for g, c, y in pre_hamiltonian_cycles:
        want = naive_lemma7_clauses(g, c, y)
        assert ins.lemma7_consequences(g, c, y) == ins.Lemma7Report(*want)
        windows_ok = _first_window(g.rows, g.cols, c.vertices, y) is None
        reversals_ok = _first_reversal(g.rows, g.cols, c.vertices, y) is None
        assert (windows_ok, reversals_ok) == (want[0], want[2]), (g.arcs(), c.vertices, y)
        seen.add(want)
    # every clause can fail alone or together; a reversal can fail alone
    assert {(True, True, True), (True, True, False), (False, False, False)} <= seen


def test_is_good_cycle(t5):
    k5 = fam.complete_digraph(5)
    assert ins.is_good_cycle(k5, make_cycle(k5, (0, 1, 2, 3)))
    assert not ins.is_good_cycle(t5, make_cycle(t5, (0, 1, 2, 3)))
    assert not ins.is_good_cycle(k5, make_cycle(k5, (0, 1, 2)))
