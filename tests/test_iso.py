"""Canonical forms and isomorphism checks for small digraphs."""

import functools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import classes, digraphs
from naive_oracles import naive_canonical_bits

from hambypass.digraph import converse, new_digraph
from hambypass import families as fam
from hambypass import iso
from hambypass.verify import digraph_from_mask, mask_bits


def permute(g, perm):
    return new_digraph(g.n, [(perm[u], perm[v]) for u, v in g.arcs()])


# --------------------------------------------------------------------------
# canonical forms
# --------------------------------------------------------------------------

def test_canonical_frozen_hexes(t5, c3, kb22):
    assert iso.canonical_form(c3).hex == "062"
    assert iso.canonical_form(t5).hex == "019628e"
    assert iso.canonical_form(kb22).hex == "33cc"
    assert iso.canonical_form(fam.d1(4, 1)).hex == "135e"
    assert iso.canonical_form(fam.d1(4, 2)).hex == "135e"


def test_canonical_hex_width():
    for n in range(1, 7):
        g = fam.complete_digraph(n)
        assert len(iso.canonical_form(g).hex) == (n * n + 3) // 4


def test_canonical_rejects_large_orders():
    with pytest.raises(ValueError):
        iso.canonical_form(fam.complete_digraph(9))


def test_canonical_equal_on_relabelings(c3):
    assert iso.canonical_form(c3) == iso.canonical_form(permute(c3, (2, 0, 1)))


@given(digraphs(min_n=1, max_n=6), st.randoms(use_true_random=False))
def test_canonical_permutation_invariant(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    assert iso.canonical_form(permute(g, perm)) == iso.canonical_form(g)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_canonical_matches_naive_exhaustively(n):
    for mask in range(1 << mask_bits(n)):
        g = digraph_from_mask(n, mask)
        assert iso.canonical_form(g).bits == naive_canonical_bits(g)


@given(digraphs(min_n=4, max_n=5))
def test_canonical_matches_naive_sampled(g):
    assert iso.canonical_form(g).bits == naive_canonical_bits(g)


# --------------------------------------------------------------------------
# are_isomorphic
# --------------------------------------------------------------------------

def test_are_isomorphic_examples(c3, c4, kb22, t5):
    assert iso.are_isomorphic(c3, converse(c3))
    assert not iso.are_isomorphic(c4, kb22)
    assert iso.are_isomorphic(fam.d1(4, 1), fam.d1(4, 2))
    assert not iso.are_isomorphic(c3, c4)  # size mismatch is just False
    transitive = new_digraph(3, [(0, 1), (0, 2), (1, 2)])
    assert not iso.are_isomorphic(c3, transitive)  # same n and m, other degrees
    assert iso.are_isomorphic(t5, converse(t5))


@given(digraphs(min_n=2, max_n=5), st.randoms(use_true_random=False))
def test_are_isomorphic_agrees_with_naive(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    h = permute(g, perm)
    assert iso.are_isomorphic(g, h)
    # perturb one arc slot to get a likely-non-isomorphic counterpart
    flip = [(u, v) for u in range(g.n) for v in range(g.n) if u != v][0]
    arcs = set(h.arcs())
    arcs.symmetric_difference_update({flip})
    k = new_digraph(g.n, sorted(arcs))
    assert iso.are_isomorphic(g, k) == (naive_canonical_bits(g) == naive_canonical_bits(k))


# --------------------------------------------------------------------------
# structural specials
# --------------------------------------------------------------------------

def test_is_isomorphic_to_t5(t5):
    assert iso.is_isomorphic_to_t5(t5)
    assert not iso.is_isomorphic_to_t5(fam.complete_digraph(5))
    assert not iso.is_isomorphic_to_t5(fam.complete_digraph(4))
    relabeled = permute(t5, (4, 3, 2, 1, 0))
    assert iso.is_isomorphic_to_t5(relabeled)
    # flipping one arc of a tournament keeps it a tournament but may leave the class
    flipped = new_digraph(5, [(v, u) if (u, v) == (0, 1) else (u, v) for u, v in t5.arcs()])
    assert iso.is_isomorphic_to_t5(flipped) == (
        naive_canonical_bits(flipped) == naive_canonical_bits(t5)
    )


def test_is_balanced_complete_bipartite(kb22, kb33, c4):
    assert iso.is_balanced_complete_bipartite(kb22)
    assert iso.is_balanced_complete_bipartite(kb33)
    assert iso.is_balanced_complete_bipartite(fam.complete_bipartite_digraph(1, 1))
    assert not iso.is_balanced_complete_bipartite(fam.complete_bipartite_digraph(2, 3))
    assert not iso.is_balanced_complete_bipartite(c4)
    assert not iso.is_balanced_complete_bipartite(fam.complete_digraph(4))
    arcs = [a for a in kb22.arcs() if a != (0, 2)]
    assert not iso.is_balanced_complete_bipartite(new_digraph(4, arcs))
    assert not iso.is_balanced_complete_bipartite(fam.complete_digraph(5))  # odd order


def _shuffled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return permute(g, perm)


@functools.cache
def _recognizer_inputs():
    """(digraph, canonical form) for every digraph at n <= 4, every class at
    n = 5, and each d0(7, spec) over the 64 specs of B, shuffled, with each
    of its one-arc changes."""
    out = [digraph_from_mask(n, mask) for n in range(1, 5) for mask in range(1 << mask_bits(n))]
    out += [digraph_from_mask(5, mask) for mask, *_ in classes(5)]
    rng = random.Random(36)
    for spec in fam.iter_inner_specs(3):
        g = _shuffled(fam.d0(7, spec), rng)
        out.append(g)
        arcs = set(g.arcs())
        toggles = [(u, v) for u in range(7) for v in range(7) if u != v]
        out += [new_digraph(7, sorted(arcs ^ {uv})) for uv in toggles]
    return [(g, iso.canonical_form(g)) for g in out]


def test_balanced_bipartite_matches_generic_iso(kb22, kb33):
    """The recognizer holds exactly where the canonical form is K*_{n/2,n/2}'s."""
    rng = random.Random(77)
    for base in (kb22, kb33):
        perm = list(range(base.n))
        rng.shuffle(perm)
        relabeled = permute(base, perm)
        assert iso.is_balanced_complete_bipartite(relabeled)
        assert iso.are_isomorphic(
            relabeled, fam.complete_bipartite_digraph(base.n // 2, base.n // 2)
        )
    balanced = {
        n: iso.canonical_form(fam.complete_bipartite_digraph(n // 2, n // 2)) for n in (2, 4)
    }
    hits = 0
    for g, form in _recognizer_inputs():
        expected = balanced.get(g.n) == form
        assert iso.is_balanced_complete_bipartite(g) == expected, g.rows
        hits += expected
    assert hits == 4  # K*_{1,1} and the three labelings of K*_{2,2}


def test_glued_cliques_recognizer_ignores_labels(kb33, c4, t5):
    rng = random.Random(13)
    for n in range(4, 12):
        for k in range(1, n - 1):
            g = _shuffled(fam.d1(n, k), rng)
            assert iso.is_glued_cliques(g)
            assert not iso.is_glued_cliques(new_digraph(n, g.arcs()[1:]))
    for g in (kb33, c4, t5, fam.complete_digraph(5), fam.complete_digraph(2)):
        assert not iso.is_glued_cliques(g)
    # Two K*_3 that share one vertex, plus a pendant arc pair: three blocks.
    three = fam.d1(5, 2).arcs() + [(2, 5), (5, 2)]
    assert not iso.is_glued_cliques(new_digraph(6, three))


def test_d0_inner_kind_ignores_labels(kb22):
    rng = random.Random(17)
    for n in (5, 7, 9, 11):
        for kind in ("empty", "complete"):
            g = fam.d0(n, getattr(fam.InnerSpec, kind)())
            assert iso.d0_inner_kind(_shuffled(g, rng)) == kind
        g = fam.d0(n, fam.InnerSpec.explicit([(0, 1)]))
        assert iso.d0_inner_kind(_shuffled(g, rng)) == "explicit"
        u, v = 0, (n + 1) // 2  # an A-B pair
        arcs = [a for a in g.arcs() if a != (u, v)]
        assert iso.d0_inner_kind(new_digraph(n, arcs)) is None
    assert iso.d0_inner_kind(fam.complete_bipartite_digraph(2, 3)) == "empty"
    assert iso.d0_inner_kind(fam.complete_bipartite_digraph(3, 3)) is None  # even order
    assert iso.d0_inner_kind(fam.complete_bipartite_digraph(1, 4)) is None  # A too small
    assert iso.d0_inner_kind(fam.complete_digraph(5)) is None
    assert iso.d0_inner_kind(kb22) is None
    # Every input gets the kind of the d0 member with its canonical form.
    kinds = {}
    for n in (5, 7):
        size = n // 2
        for spec in fam.iter_inner_specs(size):
            full = len(spec.arcs) == size * (size - 1)
            kind = "complete" if full else "explicit" if spec.arcs else "empty"
            kinds[iso.canonical_form(fam.d0(n, spec))] = kind
    hits = 0
    for g, form in _recognizer_inputs():
        assert iso.d0_inner_kind(g) == kinds.get(form), g.rows
        hits += form in kinds
    assert hits == 3 + 64 * 7  # 3 classes at n = 5; at n = 7, each spec and its 6 changes in B


# A000273: isomorphism classes of digraphs on n vertices.
@pytest.mark.parametrize("n, count", [(1, 1), (2, 3), (3, 16), (4, 218), (5, 9608)])
def test_orbit_least_masks_are_canonical_forms(n, count):
    """The two isomorphism engines, the walk's orbit test and
    iso.canonical_form, pick the same digraph of every class at n <= 5
    (9,846 classes): the orbit-least mask's rows, packed n bits each with
    row 0 lowest, are the class's canonical bits."""
    seen = 0
    for mask, _, rows, *_ in classes(n):
        bits = sum(rows[w] << n * w for w in range(n))
        assert iso.canonical_form(digraph_from_mask(n, mask)).bits == bits, hex(mask)
        seen += 1
    assert seen == count
