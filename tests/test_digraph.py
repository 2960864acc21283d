"""Digraph value type: constructors, degrees, connectivity, text format."""

import pytest
from hypothesis import given

from conftest import digraphs
from naive_oracles import naive_is_strong

from hambypass.digraph import (
    Cycle,
    DuplicateArcError,
    OrderError,
    ParseError,
    Path,
    PathError,
    SelfLoopError,
    VertexRangeError,
    converse,
    degrees,
    degrees_toward_set,
    format_digraph,
    induced_subdigraph,
    is_strong,
    make_cycle,
    make_path,
    new_digraph,
    non_adjacent_pairs,
    parse_digraph,
    vertex_mask,
)
from hambypass import families as fam


# --------------------------------------------------------------------------
# construction
# --------------------------------------------------------------------------

def test_new_digraph_builds_c3(c3):
    assert c3.n == 3
    assert c3.m == 3
    assert sorted(c3.arcs()) == [(0, 1), (1, 2), (2, 0)]


def test_new_digraph_rejects_self_loop():
    with pytest.raises(SelfLoopError):
        new_digraph(2, [(0, 0)])


def test_new_digraph_rejects_out_of_range():
    with pytest.raises(VertexRangeError):
        new_digraph(2, [(0, 2)])
    with pytest.raises(VertexRangeError):
        new_digraph(2, [(-1, 0)])


def test_new_digraph_rejects_duplicate_arc():
    with pytest.raises(DuplicateArcError):
        new_digraph(3, [(0, 1), (0, 1)])


def test_new_digraph_rejects_bad_order():
    with pytest.raises(OrderError):
        new_digraph(0, [])
    with pytest.raises(OrderError):
        new_digraph(17, [])
    with pytest.raises(OrderError, match="got True"):
        new_digraph(True, [])


def test_t5_matches_its_frozen_arc_list(t5):
    assert t5.n == 5 and t5.m == 10
    assert set(t5.arcs()) == set(fam.T5_ARCS)


# --------------------------------------------------------------------------
# degrees
# --------------------------------------------------------------------------

def test_degrees_examples(t5, c3, kstar4):
    assert degrees(t5, 0) == (3, 1, 4)
    for v in range(3):
        assert degrees(c3, v) == (1, 1, 2)
    for v in range(4):
        assert degrees(kstar4, v) == (3, 3, 6)


def test_degrees_toward_set_examples(t5, c3):
    assert degrees_toward_set(t5, 4, {0, 1}) == (1, 1, 2)
    assert degrees_toward_set(t5, 4, ()) == (0, 0, 0)
    assert degrees_toward_set(c3, 0, {1, 2}) == (1, 1, 2)


@given(digraphs(min_n=1, max_n=6))
def test_degree_sums_equal_arc_count(g):
    douts = dins = 0
    for v in range(g.n):
        dout, din, d = degrees(g, v)
        assert d == dout + din
        douts += dout
        dins += din
    assert douts == dins == g.m


# --------------------------------------------------------------------------
# converse
# --------------------------------------------------------------------------

def test_converse_examples(c3, kstar4, t5):
    assert sorted(converse(c3).arcs()) == [(0, 2), (1, 0), (2, 1)]
    assert converse(kstar4) == kstar4
    assert set(converse(t5).arcs()) == {(v, u) for u, v in t5.arcs()}


@given(digraphs())
def test_converse_involution_and_degree_swap(g):
    h = converse(g)
    assert converse(h) == g
    for v in range(g.n):
        dout, din, d = degrees(g, v)
        hout, hin, hd = degrees(h, v)
        assert (dout, din, d) == (hin, hout, hd)
    assert is_strong(g) == is_strong(h)
    assert non_adjacent_pairs(g) == non_adjacent_pairs(h)


# --------------------------------------------------------------------------
# connectivity
# --------------------------------------------------------------------------

def test_is_strong_examples(t5):
    for n in range(2, 7):
        assert is_strong(fam.directed_cycle(n))
    assert not is_strong(new_digraph(3, [(0, 1), (1, 2)]))
    assert is_strong(t5)
    assert is_strong(new_digraph(1, []))


@given(digraphs(min_n=1, max_n=5))
def test_is_strong_matches_naive_closure(g):
    assert is_strong(g) == naive_is_strong(g)


# --------------------------------------------------------------------------
# non-adjacent pairs / induced subdigraphs
# --------------------------------------------------------------------------

def test_non_adjacent_pairs_examples(c4, t5, kstar4):
    assert non_adjacent_pairs(kstar4) == []
    assert non_adjacent_pairs(c4) == [(0, 2), (1, 3)]
    assert non_adjacent_pairs(t5) == []


def test_induced_subdigraph_examples(c4, t5, kstar4):
    sub, relabel = induced_subdigraph(kstar4, {1, 3})
    assert relabel == (1, 3)
    assert sorted(sub.arcs()) == [(0, 1), (1, 0)]

    sub, relabel = induced_subdigraph(c4, {0, 1})
    assert relabel == (0, 1)
    assert sorted(sub.arcs()) == [(0, 1)]

    sub, relabel = induced_subdigraph(t5, {0, 1, 2, 3})
    assert relabel == (0, 1, 2, 3)
    assert set(sub.arcs()) == {(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)}


def test_induced_subdigraph_rejects_empty_set(c3):
    with pytest.raises(Exception):
        induced_subdigraph(c3, ())


@given(digraphs(min_n=2, max_n=6))
def test_induced_subdigraph_preserves_inside_arcs(g):
    s = tuple(range(0, g.n, 2))
    sub, relabel = induced_subdigraph(g, s)
    assert sub.n == len(s)
    back = dict(enumerate(relabel))
    for u in range(sub.n):
        for v in range(sub.n):
            if u != v:
                assert sub.has_arc(u, v) == g.has_arc(back[u], back[v])


def test_vertex_mask():
    assert vertex_mask(5, (0, 3)) == 0b01001
    assert vertex_mask(4, ()) == 0


# --------------------------------------------------------------------------
# paths and cycles
# --------------------------------------------------------------------------

def test_make_path_and_cycle_happy(c3, t5):
    assert make_path(c3, (0, 1, 2)).vertices == (0, 1, 2)
    assert make_cycle(c3, (0, 1, 2)).vertices == (0, 1, 2)
    assert make_path(t5, (0, 1, 2, 4, 3)).vertices == (0, 1, 2, 4, 3)


def test_make_path_rejects_missing_arc(c3):
    with pytest.raises(PathError):
        make_path(c3, (0, 2))


def test_make_path_rejects_repeats_and_empty(c3):
    with pytest.raises(PathError):
        make_path(c3, (0, 1, 0))
    with pytest.raises(PathError):
        make_path(c3, ())


def test_make_cycle_requires_closing_arc(c3):
    with pytest.raises(PathError):
        make_cycle(c3, (0, 1))


def test_make_cycle_rejects_a_single_vertex(c3):
    with pytest.raises(PathError, match="cycle needs at least two vertices"):
        make_cycle(c3, (0,))


@given(digraphs(min_n=2, max_n=5))
def test_path_constructor_agrees_with_adjacency(g):
    import itertools

    for length in (2, 3):
        if length > g.n:
            continue
        for verts in itertools.permutations(range(g.n), length):
            valid = all(g.has_arc(verts[i], verts[i + 1]) for i in range(length - 1))
            if valid:
                assert make_path(g, verts).vertices == verts
            else:
                with pytest.raises(PathError):
                    make_path(g, verts)


# --------------------------------------------------------------------------
# text format
# --------------------------------------------------------------------------

def test_format_is_sorted_and_round_trips(t5):
    text = format_digraph(t5)
    lines = text.strip().splitlines()
    assert lines[0] == "5 10"
    arcs = [tuple(map(int, ln.split())) for ln in lines[1:]]
    assert arcs == sorted(arcs)
    assert parse_digraph(text) == t5
    assert format_digraph(parse_digraph(text)) == text


def test_parse_accepts_comments_and_blank_lines():
    text = "# triangle\n3 3\n0 1\n\n1 2\n# middle\n2 0\n"
    assert parse_digraph(text) == fam.directed_cycle(3)


@pytest.mark.parametrize(
    "text",
    ["", "2\n", "abc\n", "2 1\n0 1\nextra line\n", "2 2\n0 1\n", "3 1\n0 3\n", "2 1\n0 0\n"]
    + ["02 1\n0 1\n", "2 +1\n0 1\n", "2 1\n-0 1\n", "2 1\n0 0_1\n", "2 1\n0 1 5\n"],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_digraph(text)


@given(digraphs(min_n=1, max_n=6))
def test_text_round_trip(g):
    assert parse_digraph(format_digraph(g)) == g


def test_path_cycle_value_types(c3):
    assert isinstance(make_path(c3, (0, 1)), Path)
    assert isinstance(make_cycle(c3, (0, 1, 2)), Cycle)
