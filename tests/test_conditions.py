"""Degree-condition predicates: hand examples, witnesses, and invariants."""

import random

import pytest
from hypothesis import given

from conftest import digraphs, seeded_corpus, tournaments
from naive_oracles import (
    naive_a_k,
    naive_pair_sum_violation,
    naive_thm13_violation,
    naive_woodall_violation,
)

from hambypass.digraph import converse, id_int, new_digraph, non_adjacent_pairs
from hambypass import families as fam
from hambypass import conditions as cond
from hambypass.verify import EnumerationTask, digraph_from_mask, mask_bits


EMPTY = fam.InnerSpec("empty", (), None)


# --------------------------------------------------------------------------
# A_k
# --------------------------------------------------------------------------

def test_a_k_examples(t5, c4):
    assert cond.check_a_k(t5, 0).holds
    for k in (-2, 0, 3):
        assert cond.check_a_k(fam.complete_digraph(4), k).holds

    rep = cond.check_a_k(c4, 0)
    assert not rep.holds
    w = rep.witness
    assert w.roles == {"x": 0, "y": 2, "z": 1}
    assert (w.value, w.bound) == (6, 10)
    assert w.detail == "missing arc z->x"


@pytest.mark.parametrize("k", [0.5, True, "0", 0.0])
def test_a_k_level_is_an_integer(t5, k):
    with pytest.raises(ValueError, match=f"k must be an integer, got {k!r}"):
        cond.check_a_k(t5, k)


def test_a_k_on_d0():
    g = fam.d0(5, EMPTY)
    assert cond.check_a_k(g, -1).holds
    assert not cond.check_a_k(g, 0).holds
    assert naive_a_k(g, -1) is None and naive_a_k(g, 0) is not None


def test_a_k_order_bound(kstar12):
    with pytest.raises(ValueError):
        cond.check_a_k(fam.complete_digraph(2), 0)
    assert cond.check_a_k(kstar12, 0).holds is True


def test_a_k_inclusive_diverges_exactly_on_degenerate_triples(kstar12):
    """K*_{1,2}: the only possible z for its non-adjacent pair is doubly
    adjacent to both ends, so the pairwise-distinct reading is vacuous while
    the z=y reading fails its inequality at 6 < 7."""
    assert cond.check_a_k(kstar12, 0).holds
    rep = cond.check_a_k(kstar12, 0, inclusive=True)
    assert not rep.holds
    w = rep.witness
    assert w.roles == {"x": 1, "y": 2, "z": 2}
    assert (w.value, w.bound) == (6, 7)
    assert w.detail == "missing arc x->z"
    assert naive_a_k(kstar12, 0) is None
    assert naive_a_k(kstar12, 0, inclusive=True) == ((1, 2, 2), 6, 7, "missing arc x->z")


@given(digraphs(min_n=3, max_n=6))
def test_a_k_matches_naive_triple_loop(g):
    for k in (-1, 0):
        assert cond.check_a_k(g, k).holds == (naive_a_k(g, k) is None)
        assert cond.check_a_k(g, k, inclusive=True).holds == (
            naive_a_k(g, k, inclusive=True) is None
        )


@given(digraphs(min_n=3, max_n=6))
def test_a_k_monotone_in_k(g):
    if cond.check_a_k(g, 0).holds:
        assert cond.check_a_k(g, -1).holds
        assert cond.check_a_k(g, -2).holds
    if cond.check_a_k(g, 1).holds:
        assert cond.check_a_k(g, 0).holds


@given(digraphs(min_n=3, max_n=6))
def test_a_k_converse_symmetric(g):
    h = converse(g)
    for k in (-1, 0):
        assert cond.check_a_k(g, k).holds == cond.check_a_k(h, k).holds


@given(digraphs(min_n=3, max_n=6))
def test_a_k_inclusive_implies_distinct(g):
    if cond.check_a_k(g, 0, inclusive=True).holds:
        assert cond.check_a_k(g, 0).holds


# --------------------------------------------------------------------------
# Meyniel / degree sum / Ghouila-Houri
# --------------------------------------------------------------------------

def test_meyniel_examples(c4, kb22):
    assert cond.check_meyniel(fam.complete_digraph(3)).holds
    rep = cond.check_meyniel(c4)
    assert not rep.holds
    assert rep.witness.roles == {"x": 0, "y": 2}
    assert (rep.witness.value, rep.witness.bound) == (4, 7)
    assert cond.check_meyniel(kb22).holds


@pytest.mark.parametrize("offset", [1.5, True, "1", 1.0])
def test_degree_sum_offset_is_an_integer(offset):
    with pytest.raises(ValueError, match=f"offset must be an integer, got {offset!r}"):
        cond.check_degree_sum(fam.d1(5, 1), offset)


@pytest.mark.parametrize("name", [name for name, row in cond._CONDITIONS.items() if row[0] is None])
def test_parameterless_checkers_take_only_the_digraph(name):
    check = cond._CONDITIONS[name][1]
    g = fam.complete_digraph(6)
    assert check(g).holds
    with pytest.raises(TypeError):
        check(g, 5)


def test_degree_sum_examples(c3, c5, kb22):
    assert cond.check_degree_sum(c3, -2).holds
    assert cond.check_degree_sum(kb22, -2).holds
    assert not cond.check_degree_sum(c5, -2).holds


@given(digraphs(min_n=2, max_n=6))
def test_meyniel_is_degree_sum_minus_one(g):
    assert cond.check_meyniel(g).holds == cond.check_degree_sum(g, -1).holds
    if cond.check_meyniel(g).holds:
        assert cond.check_degree_sum(g, -2).holds


def test_ghouila_houri_examples(c3, kb22):
    assert cond.check_ghouila_houri(fam.complete_digraph(3)).holds
    assert not cond.check_ghouila_houri(c3).holds
    assert cond.check_ghouila_houri(kb22).holds


@given(digraphs(min_n=2, max_n=6))
def test_ghouila_houri_implies_meyniel(g):
    if cond.check_ghouila_houri(g).holds:
        assert cond.check_meyniel(g).holds


# --------------------------------------------------------------------------
# Woodall / Nash-Williams
# --------------------------------------------------------------------------

def test_woodall_examples(c4, kb22):
    assert cond.check_woodall(fam.complete_digraph(4)).holds
    rep = cond.check_woodall(c4)
    assert not rep.holds
    assert rep.witness.roles == {"x": 0, "y": 2}
    assert (rep.witness.value, rep.witness.bound) == (2, 4)
    assert cond.check_woodall(kb22).holds


def test_nash_williams_examples(c3, c4, kb22):
    assert cond.check_nash_williams(fam.complete_digraph(4)).holds
    rep = cond.check_nash_williams(c4)
    assert not rep.holds
    assert rep.witness.roles == {"x": 0}
    assert cond.check_nash_williams(kb22).holds
    assert not cond.check_nash_williams(c3).holds


# --------------------------------------------------------------------------
# theorem-13/14/15/16 hypotheses
# --------------------------------------------------------------------------

def test_thm13_examples(c4, kb22):
    assert cond.check_thm13_condition(fam.complete_digraph(4)).holds
    assert cond.check_thm13_condition(c4).holds  # vacuous: no common in-neighbour
    assert cond.check_thm13_condition(kb22).holds


def test_thm13_detects_violation():
    # 0 and 1 are non-adjacent, both fed by 2; degrees are far below n-1.
    g = new_digraph(4, [(2, 0), (2, 1), (0, 3), (1, 3), (3, 2)])
    rep = cond.check_thm13_condition(g)
    assert not rep.holds
    assert rep.witness is not None


def test_thm14_examples(c4, kb22):
    assert cond.check_thm14_condition(fam.complete_digraph(4)).holds
    assert cond.check_thm14_condition(kb22).holds
    assert cond.check_thm14_condition(c4).holds  # vacuous


def test_thm15_examples(c5, kb22):
    assert cond.check_thm15_condition(fam.complete_digraph(4)).holds
    assert cond.check_thm15_condition(kb22).holds
    assert cond.check_thm15_condition(c5).holds  # vacuous


def test_thm16_hypothesis_examples(c4):
    assert cond.check_thm16_hypothesis(fam.complete_digraph(6)).holds
    assert not cond.check_thm16_hypothesis(fam.complete_digraph(4)).holds
    assert not cond.check_thm16_hypothesis(fam.directed_cycle(6)).holds


def test_thm16_relaxed_is_strictly_weaker():
    k6 = fam.complete_digraph(6)
    assert cond.check_thm16_relaxed(k6).holds
    arcs = [
        (u, v)
        for u in range(6)
        for v in range(6)
        if u != v and not (v == 0 and u in (3, 4, 5))
    ]
    g = new_digraph(6, arcs)
    assert cond.check_thm16_relaxed(g).holds
    assert not cond.check_thm16_hypothesis(g).holds


# --------------------------------------------------------------------------
# Lemma 5 consequence
# --------------------------------------------------------------------------

def test_lemma5_vacuous_on_complete():
    assert cond.lemma5_consequence_holds(fam.complete_digraph(5)).holds


def test_lemma5_detects_violations():
    g = new_digraph(5, [(0, 3), (0, 4), (1, 2), (1, 4), (2, 0), (3, 0), (3, 4)])
    rep = cond.lemma5_consequence_holds(g)
    assert not rep.holds
    w = rep.witness
    assert w.roles == {"x": 1, "y": 0, "z": 3}
    assert (w.value, w.bound) == (10, 20)
    assert w.detail == "doubled comparison"


# --------------------------------------------------------------------------
# vacuity, witnesses, registry
# --------------------------------------------------------------------------

@given(tournaments(min_n=3, max_n=6))
def test_conditions_vacuous_without_non_adjacent_pairs(g):
    assert non_adjacent_pairs(g) == []
    for k in (-1, 0, 2):
        assert cond.check_a_k(g, k).holds
    assert cond.check_meyniel(g).holds
    assert cond.check_degree_sum(g, -2).holds
    assert cond.check_thm13_condition(g).holds
    assert cond.check_thm14_condition(g).holds
    assert cond.check_thm15_condition(g).holds


def _reevaluate_a_k(g, k, w):
    x, y, z = w.roles["x"], w.roles["y"], w.roles["z"]
    dx, dy = g.degree(x), g.degree(y)
    if w.detail == "missing arc x->z":
        assert not g.has_arc(x, z)
        value = dx + dy + g.out_degree(x) + g.in_degree(z)
    else:
        assert w.detail == "missing arc z->x"
        assert not g.has_arc(z, x)
        value = dx + dy + g.in_degree(x) + g.out_degree(z)
    assert value == w.value
    assert value < w.bound == 3 * g.n - 2 + k


@given(digraphs(min_n=3, max_n=6))
def test_witnesses_reevaluate_as_violations(g):
    rep = cond.check_a_k(g, 0)
    assert rep.holds == (rep.witness is None)
    if rep.witness is not None:
        _reevaluate_a_k(g, 0, rep.witness)
    mrep = cond.check_meyniel(g)
    if mrep.witness is not None:
        x, y = mrep.witness.roles["x"], mrep.witness.roles["y"]
        assert not g.has_arc(x, y) and not g.has_arc(y, x)
        assert g.degree(x) + g.degree(y) == mrep.witness.value < mrep.witness.bound


def test_registry_round_trip(c4, t5):
    ids = cond.known_condition_ids()
    assert ids == [
        "a_k:<k>", "a_k_inc:<k>", "meyniel", "degree_sum:<offset>", "ghouila_houri",
        "woodall", "nash_williams", "thm13", "thm14", "thm15", "thm16",
        "thm16relaxed", "lemma5",
    ]
    assert cond.resolve("a_k:0").check(t5).holds
    assert not cond.resolve("a_k:0").check(c4).holds
    assert cond.resolve("a_k:-1").cond_id == "a_k:-1"
    assert cond.resolve("degree_sum:-2").check(c4).holds is False
    with pytest.raises(ValueError):
        cond.resolve("not_a_condition")
    with pytest.raises(ValueError):
        cond.resolve("a_k:")


# Each site that reads an integer from an id, with the message it refuses a
# bad one with: a parameter has one spelling, so one scan has one label.
ID_INT_SITES = {
    "resolve": (lambda p: cond.resolve(f"a_k:{p}"), "condition 'a_k' needs an integer k"),
    "floor": (lambda p: EnumerationTask(4, filters=(f"min_in:{p}",)), "integer threshold"),
    "no_dnk": (lambda p: EnumerationTask(4, evaluator=f"no_dnk:{p}"), "needs an integer k"),
}


@pytest.mark.parametrize("spelling", ["+3", " 3", "3 ", "0_3", "03", "-0"])
@pytest.mark.parametrize("site", ID_INT_SITES)
def test_integer_id_parameters_have_one_spelling(site, spelling):
    build, message = ID_INT_SITES[site]
    build("3")
    with pytest.raises(ValueError, match=message):
        build(spelling)


def test_id_int_keeps_canonical_negatives():
    assert id_int("-2") == -2
    assert cond.resolve("degree_sum:-2").cond_id == "degree_sum:-2"
    with pytest.raises(ValueError, match="not in canonical form"):
        id_int("-02")


def test_resolve_inclusive_variant(kstar12):
    assert cond.resolve("a_k:0").check(kstar12).holds
    assert not cond.resolve("a_k_inc:0").check(kstar12).holds


# The public checker of each registry row, and the parameters to try its id at
# (None for an id without one).
PUBLIC_CHECKERS = {
    "a_k": (cond.check_a_k, (-1, 0, 1)),
    "a_k_inc": (lambda g, k: cond.check_a_k(g, k, inclusive=True), (-1, 0)),
    "meyniel": (cond.check_meyniel, None),
    "degree_sum": (cond.check_degree_sum, (-5, -2, -1)),
    "ghouila_houri": (cond.check_ghouila_houri, None),
    "woodall": (cond.check_woodall, None),
    "nash_williams": (cond.check_nash_williams, None),
    "thm13": (cond.check_thm13_condition, None),
    "thm14": (cond.check_thm14_condition, None),
    "thm15": (cond.check_thm15_condition, None),
    "thm16": (cond.check_thm16_hypothesis, None),
    "thm16relaxed": (cond.check_thm16_relaxed, None),
    "lemma5": (cond.lemma5_consequence_holds, None),
}


@pytest.fixture(scope="module")
def checker_corpus():
    """Every n = 4 digraph, then 150 uniform and 150 dense seeded draws at
    n = 5..7."""
    graphs = [digraph_from_mask(4, m) for m in range(1 << mask_bits(4))]
    for p in (0.5, 0.85):
        graphs += [g for _, g in seeded_corpus(seed=311, count=150, n_lo=5, n_hi=7, p=p)]
    return graphs


@pytest.mark.parametrize("name", list(cond._CONDITIONS))
def test_public_checkers_agree_with_the_registry(name, checker_corpus):
    check, params = PUBLIC_CHECKERS[name]
    for param in params or (None,):
        args = () if param is None else (param,)
        entry = cond.resolve(name if param is None else f"{name}:{param}")
        for g in checker_corpus:
            rep = check(g, *args)
            assert rep.to_dict() == entry.check(g).to_dict(), (entry.cond_id, g.arcs())
            assert rep.holds == entry.raw(*cond._arrays(g)), (entry.cond_id, g.arcs())


# Each bit-walk core: the naive first-violation checker over Digraph methods
# it must agree with, the trailing arguments to try it at, and every detail
# string its witnesses carry.
WALK_CORES = {
    "a_k": (
        cond._a_k_violation,
        naive_a_k,
        [(-1,), (0,), (1,), (0, True)],
        {"missing arc x->z", "missing arc z->x"},
    ),
    "pair_sum": (cond._pair_sum_violation, naive_pair_sum_violation, [(-3,), (-1,), (0,)], {""}),
    "thm13": (cond._thm13_violation, naive_thm13_violation, [()], {"min degree", "degree sum"}),
    "woodall": (cond._woodall_violation, naive_woodall_violation, [()], {"missing arc x->y"}),
}


@pytest.fixture(scope="module")
def large_corpus():
    """40 uniform and 40 dense seeded draws at each of n = 8..12."""
    rng = random.Random(2026)
    graphs = []
    for n in range(8, 13):
        bits = mask_bits(n)
        graphs += [digraph_from_mask(n, rng.getrandbits(bits)) for _ in range(40)]
        graphs += [
            digraph_from_mask(n, rng.getrandbits(bits) | rng.getrandbits(bits)) for _ in range(40)
        ]
    return graphs


@pytest.mark.parametrize("name", list(WALK_CORES))
def test_walk_core_agrees_with_the_naive_checker(name, checker_corpus, large_corpus):
    """The bit-walk core finds the same first violation, or none, as the
    naive checker, on every n = 4 digraph, seeded draws at n = 5..7 and
    seeded draws at n = 8..12; both verdicts and every detail string
    occur."""
    core, naive, params, details = WALK_CORES[name]
    seen = set()
    for g in checker_corpus + large_corpus:
        for args in params:
            hit = core(*cond._arrays(g), *args)
            assert hit == naive(g, *args), (args, g.n, g.arcs())
            seen.add(hit and hit[3])
    assert seen == {None} | details
