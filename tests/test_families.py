"""Named family generators: shapes, arc counts, and structural invariants."""

import re
from functools import partial

import pytest

from naive_oracles import naive_has_bypass

from hambypass.digraph import MAX_N, DigraphError, OrderError, induced_subdigraph, is_strong
from hambypass import families as fam
from hambypass.conditions import check_a_k
from hambypass.search import find_cycle_of_length, find_hamiltonian_bypass


EMPTY = fam.InnerSpec("empty", (), None)
COMPLETE = fam.InnerSpec("complete", (), None)


def arcs_of(g):
    return set(g.arcs())


# --------------------------------------------------------------------------
# complete / bipartite / cycle
# --------------------------------------------------------------------------

def test_complete_digraph_counts():
    assert sorted(fam.complete_digraph(2).arcs()) == [(0, 1), (1, 0)]
    assert fam.complete_digraph(4).m == 12
    assert fam.complete_digraph(1).m == 0


def test_complete_bipartite_counts(kb22, kb33):
    assert kb22.m == 8
    assert sorted(fam.complete_bipartite_digraph(1, 1).arcs()) == [(0, 1), (1, 0)]
    assert kb33.m == 18


def test_complete_bipartite_has_no_odd_cycle(kb33):
    assert find_cycle_of_length(kb33, 3) is None
    assert find_cycle_of_length(kb33, 5) is None
    assert find_cycle_of_length(kb33, 4) is not None


def test_complete_bipartite_parts_and_errors():
    g = fam.complete_bipartite_digraph(2, 3)
    for u in (0, 1):
        for v in (2, 3, 4):
            assert g.has_arc(u, v) and g.has_arc(v, u)
    assert not g.has_arc(0, 1) and not g.has_arc(2, 3)
    with pytest.raises(DigraphError):
        fam.complete_bipartite_digraph(0, 2)


@pytest.mark.parametrize("p, q, bad", [(True, 2, True), (2.0, 2, 2.0), (2, "2", "'2'")])
def test_complete_bipartite_part_sizes_are_integers(p, q, bad):
    with pytest.raises(ValueError, match=f"part size must be an integer, got {bad}"):
        fam.complete_bipartite_digraph(p, q)


def test_directed_cycle():
    assert sorted(fam.directed_cycle(3).arcs()) == [(0, 1), (1, 2), (2, 0)]
    assert fam.directed_cycle(5).m == 5
    with pytest.raises(DigraphError):
        fam.directed_cycle(1)


@pytest.mark.parametrize(
    "build",
    [
        fam.complete_digraph,
        fam.directed_cycle,
        partial(fam.bypass_pattern, k=2),
        partial(fam.d0, inner=EMPTY),
        partial(fam.d1, k=1),
    ],
)
@pytest.mark.parametrize("n", [5.0, True, "5", 0, MAX_N + 1])
def test_family_builders_check_their_order_first(build, n):
    """A bad order is an OrderError naming it, before any other check or
    any range over it."""
    with pytest.raises(OrderError, match=re.escape(f"got {n!r}")):
        build(n)


# --------------------------------------------------------------------------
# bypass patterns D(n,k)
# --------------------------------------------------------------------------

def test_bypass_pattern_examples():
    assert arcs_of(fam.bypass_pattern(4, 2)) == {(0, 1), (1, 2), (2, 3), (0, 3)}
    assert arcs_of(fam.bypass_pattern(5, 3)) == {(0, 1), (1, 2), (2, 3), (4, 3), (0, 4)}
    assert arcs_of(fam.bypass_pattern(3, 3)) == {(0, 1), (2, 1), (0, 2)}


@pytest.mark.parametrize("n", range(3, 9))
def test_bypass_pattern_k2_is_path_plus_chord(n):
    g = fam.bypass_pattern(n, 2)
    expected = {(i, i + 1) for i in range(n - 1)} | {(0, n - 1)}
    assert arcs_of(g) == expected


def test_bypass_pattern_errors():
    for n, k in ((2, 2), (3, 1), (3, 4)):
        with pytest.raises(DigraphError):
            fam.bypass_pattern(n, k)


# --------------------------------------------------------------------------
# T(5)
# --------------------------------------------------------------------------

def test_t5_is_the_frozen_tournament(t5):
    assert set(fam.T5_ARCS) == {
        (0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (2, 4), (4, 1), (4, 3), (0, 2), (1, 3),
    }
    assert t5.m == 10
    for u in range(5):
        for v in range(u + 1, 5):
            assert t5.has_arc(u, v) != t5.has_arc(v, u)
        assert t5.degree(u) == 4
    assert is_strong(t5)
    assert check_a_k(t5, 0).holds
    assert find_hamiltonian_bypass(t5) is None


# --------------------------------------------------------------------------
# D_0
# --------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(5, 16, 2))
def test_d0_empty_layout(n):
    g = fam.d0(n, EMPTY)
    assert g.n == n and g.m == (n + 1) * (n - 1) // 2
    a, b = range((n + 1) // 2), range((n + 1) // 2, n)
    for u in a:
        for v in a:
            assert not g.has_arc(u, v) or u == v
    for u in a:
        for v in b:
            assert g.has_arc(u, v) and g.has_arc(v, u)
    for u in b:
        for v in b:
            assert not g.has_arc(u, v)


def test_d0_inner_presets():
    assert fam.d0(5, COMPLETE).m == 14
    explicit = fam.d0(5, fam.InnerSpec("explicit", ((0, 1),), None))
    assert explicit.m == 13 and explicit.has_arc(3, 4) and not explicit.has_arc(4, 3)
    r1 = fam.d0(5, fam.InnerSpec("random", (), 11))
    r2 = fam.d0(5, fam.InnerSpec("random", (), 11))
    assert r1 == r2


def test_d0_cross_arc_count_formula():
    for n in (5, 7, 9):
        g = fam.d0(n, EMPTY)
        assert g.m == (n + 1) * (n - 1) // 2
        assert check_a_k(g, -1).holds


def test_d0_has_no_bypass_small():
    for spec in fam.iter_inner_specs(2):
        g = fam.d0(5, spec)
        assert find_hamiltonian_bypass(g) is None
        assert not naive_has_bypass(g)


def test_d0_errors():
    for n in (3, 4, 6):
        with pytest.raises(DigraphError):
            fam.d0(n, EMPTY)


def test_inner_spec_validation():
    with pytest.raises(DigraphError):
        fam.d0(5, fam.InnerSpec("explicit", ((0, 5),), None))
    with pytest.raises(DigraphError):
        fam.d0(5, fam.InnerSpec("explicit", ((1, 1),), None))
    with pytest.raises(DigraphError):
        fam.d0(5, fam.InnerSpec("wat", (), None))


def test_iter_inner_specs_enumerates_all_b2_subdigraphs():
    specs = list(fam.iter_inner_specs(2))
    assert [(s.kind, s.arcs) for s in specs] == [
        ("explicit", ()),
        ("explicit", ((0, 1),)),
        ("explicit", ((1, 0),)),
        ("explicit", ((0, 1), (1, 0))),
    ]


# --------------------------------------------------------------------------
# D_1
# --------------------------------------------------------------------------

def test_d1_shapes():
    g = fam.d1(4, 1)
    assert g.m == 8
    assert arcs_of(g) == {
        (0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1), (2, 3), (3, 2),
    }
    assert fam.d1(4, 2).m == 8


@pytest.mark.parametrize("k", [True, 1.0, "1", None])
def test_d1_k_is_an_integer(k):
    with pytest.raises(ValueError, match=f"k must be an integer, got {k!r}"):
        fam.d1(5, k)


def test_d1_glue_vertex_is_cut_vertex():
    g = fam.d1(5, 2)
    assert is_strong(g)
    rest, _ = induced_subdigraph(g, (0, 1, 3, 4))
    assert not is_strong(rest)


def test_d1_no_bypass_small():
    for n, k in ((4, 1), (4, 2), (5, 1), (5, 2), (5, 3)):
        assert find_hamiltonian_bypass(fam.d1(n, k)) is None


def test_d1_errors():
    for n, k in ((3, 1), (4, 0), (4, 3), (5, 4)):
        with pytest.raises(DigraphError):
            fam.d1(n, k)


@pytest.mark.parametrize("n, k", [(n, k) for n in range(4, MAX_N + 1) for k in range(1, n - 1)])
def test_d1_blocks_are_complete(n, k):
    g = fam.d1(n, k)
    assert g.m == (n - k) * (n - k - 1) + (k + 1) * k  # no arc outside the blocks
    glue = n - k - 1
    first = range(0, n - k)
    second = range(glue, n)
    for block in (first, second):
        for u in block:
            for v in block:
                if u != v:
                    assert g.has_arc(u, v)
    assert not g.has_arc(0, n - 1) and not g.has_arc(n - 1, 0)
