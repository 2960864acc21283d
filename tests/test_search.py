"""Exact structure oracles: cycles, bypasses, spanning patterns."""

from collections import Counter

import pytest
from hypothesis import given

from conftest import classes, digraphs, seeded_corpus
from naive_oracles import (
    naive_cycles,
    naive_embeds,
    naive_good_cycle_exists,
    naive_has_bypass,
    naive_has_cycle_of_length,
    naive_has_hamiltonian_cycle,
    naive_has_hamiltonian_path,
    naive_has_pre_hamiltonian_cycle,
    naive_lemma7_clauses,
)

from hambypass.digraph import (
    Cycle,
    Digraph,
    converse,
    induced_subdigraph,
    make_cycle,
    make_path,
    new_digraph,
)
from hambypass import families as fam
from hambypass import iso
from hambypass import search as srch
from hambypass.verify import CLAIMS


# --------------------------------------------------------------------------
# cycles
# --------------------------------------------------------------------------

def test_find_cycle_of_length_examples(c5, kb33, t5):
    assert srch.find_cycle_of_length(c5, 5).vertices == (0, 1, 2, 3, 4)
    assert srch.find_cycle_of_length(c5, 3) is None
    assert srch.find_cycle_of_length(kb33, 5) is None
    hc = srch.find_cycle_of_length(t5, 5)
    assert hc.vertices == (0, 1, 2, 4, 3)
    for i, u in enumerate(hc.vertices):
        assert t5.has_arc(u, hc.vertices[(i + 1) % 5])


def test_find_cycle_of_length_bounds(c3):
    with pytest.raises(ValueError):
        srch.find_cycle_of_length(c3, 1)
    with pytest.raises(ValueError):
        srch.find_cycle_of_length(c3, 4)


def test_hamiltonian_and_pre_hamiltonian(t5, kb22, kstar4):
    assert srch.find_hamiltonian_cycle(fam.directed_cycle(4)).vertices == (0, 1, 2, 3)
    assert srch.find_hamiltonian_cycle(new_digraph(3, [(0, 1), (1, 2)])) is None
    assert srch.find_hamiltonian_cycle(t5) is not None

    assert srch.find_pre_hamiltonian_cycle(kb22) is None
    assert srch.find_pre_hamiltonian_cycle(kstar4) is not None
    assert srch.find_pre_hamiltonian_cycle(t5).vertices == (0, 1, 2, 3)
    # tiny orders are total: a 2-cycle is Hamiltonian, a 1-cycle cannot exist
    assert srch.find_hamiltonian_cycle(fam.directed_cycle(2)).vertices == (0, 1)
    assert srch.find_pre_hamiltonian_cycle(fam.directed_cycle(2)) is None


def test_iter_cycles_of_length(c4, kstar4):
    assert [c.vertices for c in srch.iter_cycles_of_length(c4, 4)] == [(0, 1, 2, 3)]
    threes = list(srch.iter_cycles_of_length(kstar4, 3))
    assert len(threes) == 8  # 4 vertex triples, 2 orientations each
    for c in threes:
        for i, u in enumerate(c.vertices):
            assert kstar4.has_arc(u, c.vertices[(i + 1) % 3])


def test_iter_cycles_of_length_checks_the_length_when_called(c4):
    with pytest.raises(ValueError, match=r"cycle length must lie in \[2, 4\], got 9"):
        srch.iter_cycles_of_length(c4, 9)


@pytest.mark.parametrize("m", [3.0, True, "3"])
def test_cycle_length_is_an_integer(kstar4, m):
    with pytest.raises(ValueError, match=f"cycle length must be an integer, got {m!r}"):
        srch.iter_cycles_of_length(kstar4, m)


# --------------------------------------------------------------------------
# hamiltonian paths between endpoints
# --------------------------------------------------------------------------

def test_hamiltonian_path_between_examples(c3, kb22_parts_0213):
    assert srch.find_hamiltonian_path_between(c3, 0, 2, (0, 1, 2)).vertices == (0, 1, 2)
    assert srch.find_hamiltonian_path_between(c3, 2, 1, (0, 1, 2)).vertices == (2, 0, 1)
    got = srch.find_hamiltonian_path_between(kb22_parts_0213, 0, 2, (0, 1, 2))
    assert got.vertices == (0, 1, 2)


def test_hamiltonian_path_between_validates_endpoints(c3):
    with pytest.raises(ValueError):
        srch.find_hamiltonian_path_between(c3, 0, 2, (0, 1))
    with pytest.raises(ValueError):
        srch.find_hamiltonian_path_between(c3, 0, 0, (0, 1, 2))


# --------------------------------------------------------------------------
# hamiltonian bypass
# --------------------------------------------------------------------------

def test_bypass_examples(t5, kb22, kb22_parts_0213):
    assert srch.find_hamiltonian_bypass(t5) is None
    for n in (3, 4, 5, 6):
        assert srch.find_hamiltonian_bypass(fam.directed_cycle(n)) is None
    w = srch.find_hamiltonian_bypass(kb22)
    assert w.order == (0, 3, 1, 2)
    assert srch.validate_bypass(kb22, w)
    assert srch.find_hamiltonian_bypass(kb22_parts_0213).order == (0, 3, 2, 1)
    assert srch.find_hamiltonian_bypass(fam.d1(4, 1)) is None
    # a bypass needs three distinct vertices, so n=2 is vacuously empty
    assert srch.find_hamiltonian_bypass(fam.directed_cycle(2)) is None


def test_validate_bypass(kb22):
    w = srch.find_hamiltonian_bypass(kb22)
    assert srch.validate_bypass(kb22, w)
    assert not srch.validate_bypass(kb22, srch.BypassWitness((3, 0, 1, 2)))
    assert not srch.validate_bypass(kb22, srch.BypassWitness((0, 3, 1)))
    # a vertex is an int and not a bool, checked before sorting or arc lookups
    assert not srch.validate_bypass(kb22, srch.BypassWitness((0, 3, True, 2)))
    assert not srch.validate_bypass(kb22, srch.BypassWitness((0, 2, 1.0, 3)))
    c4 = fam.directed_cycle(4)
    assert not srch.validate_bypass(c4, srch.BypassWitness((0, 1, 2, 3)))  # chord missing


# --------------------------------------------------------------------------
# spanning D(n,k) patterns
# --------------------------------------------------------------------------

def test_bypass_pattern_search_examples(kstar4, c4):
    emb = srch.find_bypass_pattern(kstar4, 3)
    assert emb is not None
    pattern = fam.bypass_pattern(4, 3)
    for u, v in pattern.arcs():
        assert kstar4.has_arc(emb.mapping[u], emb.mapping[v])
    assert srch.find_bypass_pattern(c4, 3) is None
    with pytest.raises(ValueError):
        srch.find_bypass_pattern(kstar4, 1)
    with pytest.raises(ValueError):
        srch.find_bypass_pattern(kstar4, 5)


@pytest.mark.parametrize("k", [3.0, True, "3"])
def test_bypass_pattern_k_is_an_integer(k):
    kstar5 = fam.complete_digraph(5)
    with pytest.raises(ValueError, match=f"k must be an integer, got {k!r}"):
        srch.find_bypass_pattern(kstar5, k)


@given(digraphs(min_n=3, max_n=5))
def test_pattern_k2_agrees_with_bypass_search(g):
    assert (srch.find_bypass_pattern(g, 2) is None) == (srch.find_hamiltonian_bypass(g) is None)


# --------------------------------------------------------------------------
# good cycles
# --------------------------------------------------------------------------

def test_good_cycle_examples(t5, c4):
    k5 = fam.complete_digraph(5)
    gc = srch.find_good_cycle(k5)
    assert gc.vertices == (1, 2, 3, 4)
    assert srch.find_good_cycle(t5) is None
    assert srch.find_good_cycle(c4) is None


def test_good_cycle_implies_bypass_seeded():
    hits = 0
    for _, g in seeded_corpus(seed=401, count=200, n_lo=3, n_hi=6, p=0.6):
        gc = srch.find_good_cycle(g)
        assert (gc is not None) == naive_good_cycle_exists(g)
        if gc is not None:
            hits += 1
            assert srch.find_hamiltonian_bypass(g) is not None
    assert hits > 20


def test_cycle_bypass_exactly_where_a_lemma7_clause_breaks(pre_hamiltonian_cycles):
    """Where nothing is read off, the degree clause holds too and the cycle
    is not good: the windows clause bounds 2 d+(y) and 2 d-(y) by n - 1.
    So the lemma-7 sweep needs nothing but the read-off."""
    found = at_bound = 0
    for g, c, y in pre_hamiltonian_cycles:
        windows_ok, degrees_ok, reversals_ok = naive_lemma7_clauses(g, c, y)
        order = srch._cycle_bypass_raw(g.rows, g.cols, c.vertices, y)
        assert (order is None) == (windows_ok and reversals_ok), (g.arcs(), c.vertices, y)
        if order is not None:
            found += 1
            assert srch.validate_bypass(g, srch.BypassWitness(order)), (g.arcs(), order)
        else:
            assert degrees_ok and g.degree(y) < g.n, (g.arcs(), c.vertices, y)
            at_bound += g.n - 1 in (2 * g.out_degree(y), 2 * g.in_degree(y))
    assert 0 < found < len(pre_hamiltonian_cycles)
    assert at_bound  # the bound is tight


# --------------------------------------------------------------------------
# the paper's route: an (n-1)-cycle, then a bypass read off it
# --------------------------------------------------------------------------

def _family(g):
    """The named family g belongs to, up to labels, or None."""
    if iso.is_isomorphic_to_t5(g):
        return "T5"
    if iso.is_balanced_complete_bipartite(g):
        return "K*_{n/2,n/2}"
    if iso.is_glued_cliques(g):
        return "d1"
    return "d0" if iso.d0_inner_kind(g) else None


# (claim, n): the number of classes in each bin -- the first (n-1)-cycle
# gives a read-off, a later one does, none does, there is no (n-1)-cycle --
# then (bin, family, has a bypass) for each class of the last two bins.
ROUTE_CENSUS = {
    ("thm12", 4): ((35, 0, 0, 1), {(3, "K*_{n/2,n/2}", True): 1}),
    ("thm12", 5): ((923, 8, 1, 0), {(2, "T5", False): 1}),
    ("thm8", 4): (
        (51, 2, 1, 4),
        {(2, "d1", False): 1, (3, "K*_{n/2,n/2}", True): 1, (3, None, True): 3},
    ),
    ("thm8", 5): (
        (2111, 73, 5, 18),
        # the bypass-free d1 without an (n-1)-cycle is 032a63e: K*_3 and K*_3
        # sharing a vertex
        {
            (2, "d0", False): 3,
            (2, "d1", False): 1,
            (2, "T5", False): 1,
            (3, "d1", False): 1,
            (3, None, True): 17,
        },
    ),
}


@pytest.mark.parametrize("claim, n", list(ROUTE_CENSUS))
def test_paper_route_census(claim, n):
    """Bin every class the claim's filters pass by where the paper's route
    reads its bypass: [9] gives an (n-1)-cycle unless D is K*_{n/2,n/2},
    and Lemma 7's moves at that cycle give a bypass unless D is T5. Each
    cycle, read-off and bypass is checked against the naive oracles."""
    full, total = (1 << n) - 1, n * (n - 1) // 2
    sizes, tail = [0, 0, 0, 0], Counter()
    for _, _, rows, cols, *_ in classes(n, CLAIMS[claim].filters):
        g = Digraph._from_rows(n, rows)
        cycles = list(srch._cycles_raw(rows, cols, full, n - 1))
        assert cycles == [c for c in naive_cycles(g, n - 1) if c[0] == min(c)]
        reads = []
        for c in cycles:
            y = total - sum(c)
            order = srch._cycle_bypass_raw(rows, cols, c, y)
            windows_ok, _, reversals_ok = naive_lemma7_clauses(g, Cycle(c), y)
            assert (order is None) == (windows_ok and reversals_ok), (g.arcs(), c)
            assert order is None or srch.validate_bypass(g, srch.BypassWitness(order))
            reads.append(order is not None)
        where = 0 if reads[:1] == [True] else 1 if any(reads) else 2 if reads else 3
        sizes[where] += 1
        if where >= 2:
            tail[where, _family(g), naive_has_bypass(g)] += 1
    assert (tuple(sizes), tail) == ROUTE_CENSUS[claim, n]


# --------------------------------------------------------------------------
# cross-checks against the naive permutation oracles
# --------------------------------------------------------------------------

def test_oracles_agree_with_naive_enumeration_seeded():
    for _, g in seeded_corpus(seed=402, count=150, n_lo=2, n_hi=6):
        assert (srch.find_hamiltonian_cycle(g) is not None) == naive_has_hamiltonian_cycle(g)
        if g.n >= 3:
            assert (srch.find_pre_hamiltonian_cycle(g) is not None) == (
                naive_has_pre_hamiltonian_cycle(g)
            )
            assert (srch.find_hamiltonian_bypass(g) is not None) == naive_has_bypass(g)
            for k in range(2, g.n + 1):
                pattern = fam.bypass_pattern(g.n, k)
                emb = srch.find_bypass_pattern(g, k)
                assert (emb is not None) == naive_embeds(g, pattern)
                if emb is not None:
                    assert sorted(emb.mapping) == list(range(g.n))
                    assert all(g.has_arc(emb.mapping[u], emb.mapping[v]) for u, v in pattern.arcs())
        for m in range(2, g.n + 1):
            assert (srch.find_cycle_of_length(g, m) is not None) == naive_has_cycle_of_length(g, m)


def test_hamiltonian_path_between_agrees_with_naive_seeded():
    for _, g in seeded_corpus(seed=403, count=80, n_lo=2, n_hi=5):
        for smask in range(1, 1 << g.n):
            s = [v for v in range(g.n) if (smask >> v) & 1]
            sub, labels = induced_subdigraph(g, s)
            for i, u in enumerate(labels):
                for j, v in enumerate(labels):
                    if u == v:
                        continue
                    got = srch.find_hamiltonian_path_between(g, u, v, s)
                    assert (got is not None) == naive_has_hamiltonian_path(sub, i, j)
                    if got is not None:
                        assert got.vertices[0] == u and got.vertices[-1] == v
                        assert sorted(got.vertices) == s


@given(digraphs(min_n=3, max_n=5))
def test_bypass_converse_symmetry(g):
    w = srch.find_hamiltonian_bypass(g)
    wc = srch.find_hamiltonian_bypass(converse(g))
    assert (w is None) == (wc is None)
    if wc is not None:
        assert srch.validate_bypass(converse(g), wc)


@given(digraphs(min_n=2, max_n=5))
def test_witnesses_are_valid_structures(g):
    hc = srch.find_hamiltonian_cycle(g)
    if hc is not None:
        assert make_cycle(g, hc.vertices).vertices == hc.vertices
    if g.n >= 3:
        w = srch.find_hamiltonian_bypass(g)
        if w is not None:
            assert make_path(g, w.order).vertices == w.order
            assert g.has_arc(w.order[0], w.order[-1])


def test_determinism(t5, kb22):
    assert srch.find_hamiltonian_cycle(t5).vertices == srch.find_hamiltonian_cycle(t5).vertices
    assert srch.find_hamiltonian_bypass(kb22).order == srch.find_hamiltonian_bypass(kb22).order
