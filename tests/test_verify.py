"""Enumeration engine and theorem scans at n <= 4 (n=5 runs live in acceptance)."""

import json
import os
import random
import re
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import classes
from naive_oracles import (
    naive_a_k,
    naive_cycles,
    naive_has_bypass,
    naive_highest_lowest_bypass_bit,
    naive_is_strong,
    naive_lemma7_clauses,
    reference_scan,
)
from test_dedupe import _condition_ids

from hambypass.digraph import Digraph, OrderError, is_strong, make_cycle, new_digraph
from hambypass import families as fam
from hambypass import iso, verify
from hambypass.conditions import check_a_k, resolve
from hambypass.search import (
    _cycle_bypass_raw,
    _cycles_raw,
    find_hamiltonian_bypass,
    find_hamiltonian_cycle,
    find_pre_hamiltonian_cycle,
    validate_bypass,
)
from hambypass.verify import (
    CLAIMS,
    SAMPLE_CHUNK,
    EnumerationTask,
    check_theorem6,
    check_theorem8,
    check_theorem9,
    check_theorem11,
    check_theorem12,
    check_theorem16_conjecture,
    digraph_from_mask,
    enumerate_digraphs,
    explore_no_bypass,
    mask_bits,
    mask_of,
)


# --------------------------------------------------------------------------
# mask encoding
# --------------------------------------------------------------------------

def test_mask_bits():
    assert [mask_bits(n) for n in (1, 2, 3, 4, 5)] == [0, 2, 6, 12, 20]


@given(st.integers(min_value=1, max_value=6), st.data())
def test_mask_round_trip(n, data):
    mask = data.draw(st.integers(min_value=0, max_value=(1 << mask_bits(n)) - 1))
    g = digraph_from_mask(n, mask)
    assert mask_of(g) == mask
    assert g.n == n and g.m == mask.bit_count()


def test_mask_of_t5(t5):
    assert digraph_from_mask(5, mask_of(t5)) == t5


@pytest.mark.parametrize("n", [0, 17, -1, 2.0, None, True])
def test_digraph_from_mask_refuses_a_bad_order(n):
    with pytest.raises(OrderError, match="order must be an integer in"):
        digraph_from_mask(n, 0)


@pytest.mark.parametrize("n, mask", [(3, 1 << 6), (3, -1), (1, 1), (16, 1 << 240)])
def test_digraph_from_mask_refuses_a_mask_out_of_range(n, mask):
    with pytest.raises(ValueError, match="outside"):
        digraph_from_mask(n, mask)
    assert digraph_from_mask(n, 0).m == 0
    assert digraph_from_mask(n, (1 << mask_bits(n)) - 1).m == mask_bits(n)


@pytest.mark.parametrize("mask", [True, False, 1.0, "1", None])
def test_digraph_from_mask_refuses_a_mask_that_is_not_an_integer(mask):
    """The mask is read by the one integer rule (digraph._check_int): a bool
    is not decoded as 0 or 1, and a float does not fail inside a shift."""
    with pytest.raises(ValueError, match=f"mask must be an integer, got {re.escape(repr(mask))}"):
        digraph_from_mask(5, mask)


def _decoder_masks(n):
    """Every mask up to n = 4; from n = 5 the empty and the complete mask
    plus 300 seeded uniform and 300 seeded dense draws."""
    bits = mask_bits(n)
    if n <= 4:
        return range(1 << bits)
    rng = random.Random(n)
    uniform = [rng.getrandbits(bits) for _ in range(300)]
    dense = [rng.getrandbits(bits) | rng.getrandbits(bits) for _ in range(300)]
    return [0, (1 << bits) - 1, *uniform, *dense]


@pytest.mark.parametrize("n", range(1, 17))
def test_decoder_matches_digraph_from_mask(n):
    decode = verify._decoder(n)
    for mask in _decoder_masks(n):
        g = digraph_from_mask(n, mask)
        rows, cols = list(g.rows), list(g.cols)
        expected = (rows, cols, [r.bit_count() for r in rows], [c.bit_count() for c in cols])
        assert decode(mask) == expected, mask


def test_decoder_returns_fresh_lists():
    decode = verify._decoder(4)
    first, second = decode(0b101), decode(0b101)
    assert first == second
    assert all(a is not b for a, b in zip(first, second))
    first[0][0] = 99
    assert decode(0b101) == second


# --------------------------------------------------------------------------
# enumeration basics
# --------------------------------------------------------------------------

def test_enumerate_counts_without_filters():
    r = enumerate_digraphs(EnumerationTask(n=3), workers=1)
    assert (r.scanned, r.passed_filters) == (64, 64)


def test_enumerate_strong_n2_unique_survivor():
    seen = []
    r = enumerate_digraphs(EnumerationTask(n=2, filters=("strong",)), visitor=seen.append, workers=1)
    assert (r.scanned, r.passed_filters) == (4, 1)
    assert seen == [3]  # the 2-cycle


def test_enumerate_golden_survivor_counts():
    r3 = enumerate_digraphs(EnumerationTask(n=3, filters=("a_k:0", "strong")), workers=2)
    assert (r3.scanned, r3.passed_filters) == (64, 18)
    r4 = enumerate_digraphs(EnumerationTask(n=4, filters=("a_k:0", "strong")), workers=2)
    assert (r4.scanned, r4.passed_filters) == (4096, 660)
    # the inclusive-triple reading agrees at n=4 (it diverges at n=3: 15 survivors)
    r4i = enumerate_digraphs(EnumerationTask(n=4, filters=("a_k_inc:0", "strong")), workers=2)
    assert r4i.passed_filters == 660
    r3i = enumerate_digraphs(EnumerationTask(n=3, filters=("a_k_inc:0", "strong")), workers=2)
    assert r3i.passed_filters == 15


@pytest.mark.parametrize("workers", [1, 2])
def test_scan_started_from_a_visitor_leaves_the_outer_scan_alone(workers):
    """Both scans are sampled, so both run on the chunk context: the inner
    one, started from the outer one's first visit, must not swap the
    context of the outer one's later chunks."""
    inner = []

    def visit(mask):
        if not inner:
            inner_task = EnumerationTask(3, "sample", sample_count=100, seed=2)
            inner.append(enumerate_digraphs(inner_task, visitor=lambda m: None, workers=1))

    task = EnumerationTask(5, "sample", ("a_k:0", "strong"), 3 * SAMPLE_CHUNK, seed=1)
    r = enumerate_digraphs(task, visitor=visit, workers=workers)
    assert r == reference_scan(task)
    assert 0 < r.passed_filters < r.scanned
    assert (inner[0].scanned, inner[0].passed_filters) == (100, 100)


def test_enumerate_filters_match_direct_evaluation():
    survivors = []
    enumerate_digraphs(
        EnumerationTask(n=3, filters=("a_k:0", "strong")), visitor=survivors.append, workers=1
    )
    expected = []
    for mask in range(64):
        g = digraph_from_mask(3, mask)
        if naive_is_strong(g) and naive_a_k(g, 0) is None:
            expected.append(mask)
    assert sorted(survivors) == expected


def test_enumerate_min_degree_filters():
    seen = []
    enumerate_digraphs(
        EnumerationTask(n=3, filters=("min_out:1", "min_in:1")), visitor=seen.append, workers=1
    )
    for mask in seen:
        g = digraph_from_mask(3, mask)
        assert all(g.out_degree(v) >= 1 and g.in_degree(v) >= 1 for v in range(3))
    assert len(seen) == sum(
        1
        for mask in range(64)
        if all(
            digraph_from_mask(3, mask).out_degree(v) >= 1
            and digraph_from_mask(3, mask).in_degree(v) >= 1
            for v in range(3)
        )
    )


def _sampled_masks(n, filters=(), seed=11, count=512):
    seen = []
    task = EnumerationTask(n=n, mode="sample", filters=filters, sample_count=count, seed=seed)
    res = enumerate_digraphs(task, visitor=seen.append, workers=1)
    return res, seen


@pytest.mark.parametrize("n", range(2, 17))
def test_min_in_filter_matches_object_api_at_every_sampled_order(n):
    _, draws = _sampled_masks(n)
    for t in sorted({1, n // 3, n // 2}):
        res, survivors = _sampled_masks(n, (f"min_in:{t}",))
        expected = [
            mask
            for mask in draws
            if min(digraph_from_mask(n, mask).in_degree(v) for v in range(n)) >= t
        ]
        assert survivors == expected, f"n={n} min_in:{t}"
        assert res.passed_filters == len(expected)


def test_sampled_n10_passed_filters_matches_object_api():
    filters = ("min_out:3", "min_in:3", "strong")
    _, draws = _sampled_masks(10, seed=1, count=4096)
    res, _ = _sampled_masks(10, filters, seed=1, count=4096)
    expected = 0
    for mask in draws:
        g = digraph_from_mask(10, mask)
        if (
            min(g.out_degree(v) for v in range(10)) >= 3
            and min(g.in_degree(v) for v in range(10)) >= 3
            and naive_is_strong(g)
        ):
            expected += 1
    assert expected > 0
    assert (res.scanned, res.passed_filters) == (4096, expected)


_OBJECT_FINDERS = {
    "no_hc": find_hamiltonian_cycle,
    "no_prehc": find_pre_hamiltonian_cycle,
    "no_bypass": find_hamiltonian_bypass,
}


@pytest.mark.parametrize("evaluator", list(_OBJECT_FINDERS))
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_evaluator_flags_exactly_where_object_finder_fails(n, evaluator):
    res = enumerate_digraphs(EnumerationTask(n=n, evaluator=evaluator), workers=1)
    finder = _OBJECT_FINDERS[evaluator]
    expected = [
        mask for mask in range(1 << mask_bits(n)) if finder(digraph_from_mask(n, mask)) is None
    ]
    assert sorted(res.flagged) == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lemma7_sweep_flags_nothing_at_small_orders(n):
    """The sweep flags nothing, and at every mask it returns 0 exactly
    where no (n-1)-cycle yields a read-off (None below n = 4)."""
    res = enumerate_digraphs(EnumerationTask(n=n, evaluator="lemma7_sweep"), workers=1)
    assert (res.scanned, res.flagged) == (1 << mask_bits(n), ())
    decode = verify._decoder(n)
    for mask in range(1 << mask_bits(n)):
        rows, cols, dout, din = decode(mask)
        keep = verify._lemma7_keep(n, rows, cols, dout, din)
        if n < 4:
            assert keep is None
            continue
        read = any(
            _cycle_bypass_raw(rows, cols, cyc, (set(range(n)) - set(cyc)).pop()) is not None
            for cyc in naive_cycles(digraph_from_mask(n, mask), n - 1)
        )
        assert (keep == 0) == (not read), mask


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_lemma7_sweep_hands_down_the_bypass_that_avoids_the_most_low_arcs(n):
    """On every class, a nonzero certificate is the n arcs of a bypass of
    the class, and no bypass of the class has a higher lowest arc bit, up
    to the class's lowest absent arc z: the walk clears only bits below z,
    so a certificate with none below z already prunes all it can."""
    for mask, _, rows, cols, dout, din in classes(n):
        keep = verify._lemma7_keep(n, rows, cols, dout, din)
        if n < 4:
            assert keep is None
            continue
        if not keep:
            continue
        g = digraph_from_mask(n, mask)
        witness = find_hamiltonian_bypass(digraph_from_mask(n, keep))
        assert keep.bit_count() == n and witness is not None, (mask, keep)
        assert validate_bypass(g, witness), (mask, keep)
        z = (~mask & mask + 1).bit_length() - 1
        low = (keep & -keep).bit_length() - 1
        assert min(low, z) == min(naive_highest_lowest_bypass_bit(g), z), (mask, keep)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_lemma7_sweep_keeps_handed_down_the_class_tree_are_sound(n, monkeypatch):
    """Every certificate a walked class holds, and the one that kept the
    subtree of each class not walked from being pushed, lies inside the
    class: 0 means no (n-1)-cycle is good or breaks a clause, any other
    certificate is the n arcs of a bypass. A walked class holds what its
    nearest swept ancestor, itself included, returned. A child is left
    unpushed only when the certificate has no bit at or below the bit the
    child clears. The sweep flags nothing at these orders, so a wrong prune
    would not show in the result."""
    every = [mask for mask, *_ in classes(n)]
    walked, swept = set(), {}
    orbit_least, sweep = verify._orbit_least, verify._EVALUATORS["lemma7_sweep"]

    def orbit_test(n, rows):
        if aut := orbit_least(n, rows):
            walked.add(mask_of(Digraph._from_rows(n, rows)))
        return aut

    def recorded(n, rows, *args):
        swept[mask_of(Digraph._from_rows(n, rows))] = keep = sweep(n, rows, *args)
        return keep

    monkeypatch.setattr(verify, "_orbit_least", orbit_test)
    monkeypatch.setitem(verify._EVALUATORS, "lemma7_sweep", recorded)
    res = enumerate_digraphs(EnumerationTask(n=n, evaluator="lemma7_sweep"), workers=1)
    assert (res.passed_filters, res.flagged) == (1 << mask_bits(n), ())

    def ancestor(mask, among):  # the nearest of `among` up Read's parents
        while mask not in among:
            mask |= ~mask & (mask + 1)  # Read's parent: set the lowest zero bit
        return mask

    keeps = {mask: swept[ancestor(mask, swept)] for mask in walked}
    held = [(mask, keep) for mask, keep in keeps.items() if keep is not None]
    assert (n >= 4) == bool(held)  # below n = 4 the sweep hands nothing down
    skipped = [mask for mask in every if mask not in walked]
    assert (n >= 4) == bool(skipped)
    for mask in skipped:
        root = ancestor(mask, walked)
        keep = keeps[root]  # the child of root toward mask clears root ^ mask's top bit
        assert keep is not None and keep & (1 << (root ^ mask).bit_length()) - 1 == 0, (root, keep)
        held.append((mask, keep))
    for mask, keep in held:
        g = digraph_from_mask(n, mask)
        assert keep & ~mask == 0, (mask, keep)
        if keep:
            bypass = digraph_from_mask(n, keep)
            assert bypass.m == n and naive_has_bypass(bypass), (mask, keep)
            assert naive_has_bypass(g), mask
        else:
            for cyc in naive_cycles(g, n - 1):
                y = next(v for v in range(n) if v not in cyc)
                assert g.degree(y) < n, (mask, cyc)
                assert all(naive_lemma7_clauses(g, make_cycle(g, cyc), y)), (mask, cyc)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_the_empty_lemma7_certificate_is_closed_under_arc_deletion(n):
    """The sweep returns 0 when no (n-1)-cycle fails, and the walk lets 0
    clear every subdigraph: so every single-arc deletion of a digraph it
    returns 0 for returns 0 too. Every mask at n = 4, 4096 seeded dense
    draws above. Some of those digraphs have an (n-1)-cycle, so a cycle
    that passes is covered, not only a digraph without one."""
    decode = verify._decoder(n)
    if n == 4:
        masks = range(1 << mask_bits(n))
    else:
        masks = verify._chunk_masks(EnumerationTask(n, "sample", (), 4096, 7, "dense"), 0)

    def zero(mask):
        return verify._lemma7_keep(n, *decode(mask)) == 0

    certified = [mask for mask in masks if zero(mask)]
    assert any(next(_cycles_raw(*decode(m)[:2], (1 << n) - 1, n - 1), None) for m in certified)
    for mask in certified:
        arcs = (1 << b for b in range(mask_bits(n)) if mask >> b & 1)
        assert all(zero(mask ^ arc) for arc in arcs), mask


def _count_walk(monkeypatch):
    """Count the lemma-7 sweep's calls, the classes the walk visits (the
    orbit tests that pass) and all its orbit tests."""
    counts = {"sweeps": 0, "classes": 0, "orbit tests": 0}
    orbit_least, sweep = verify._orbit_least, verify._EVALUATORS["lemma7_sweep"]

    def orbit_test(n, rows):
        aut = orbit_least(n, rows)
        counts["classes"] += aut > 0
        counts["orbit tests"] += 1
        return aut

    def counted(*args):
        counts["sweeps"] += 1
        return sweep(*args)

    monkeypatch.setattr(verify, "_orbit_least", orbit_test)
    monkeypatch.setitem(verify._EVALUATORS, "lemma7_sweep", counted)
    return counts


def test_lemma7_sweep_skips_the_classes_that_inherit_a_keep(monkeypatch):
    """A class that arrives with a keep is not swept, and a child whose
    keep every descendant holds is not pushed: no decode, no orbit test."""
    counts = _count_walk(monkeypatch)
    # of 218 and 9,608 classes, reached with 410 and 13,966 orbit tests
    for n, expected in ((4, (37, 56, 105)), (5, (792, 1197, 1853))):
        counts.update(dict.fromkeys(counts, 0))
        enumerate_digraphs(EnumerationTask(n=n, evaluator="lemma7_sweep"), workers=1)
        assert tuple(counts.values()) == expected


@pytest.mark.parametrize("filters", [("strong",), ("thm13",)])
def test_a_filtered_lemma7_sweep_walks_every_class(filters, monkeypatch):
    """With a filter the sweep sums n!/|Aut| per class, so it drops no
    subtree: it walks the classes a scan with no evaluator walks."""
    counts = _count_walk(monkeypatch)
    walks = []
    for evaluator in (None, "lemma7_sweep"):
        counts.update(dict.fromkeys(counts, 0))
        task = EnumerationTask(5, filters=filters, evaluator=evaluator)
        res = enumerate_digraphs(task, workers=1)
        walks.append((res.passed_filters, counts["classes"], counts["orbit tests"]))
    assert walks[0] == walks[1]


# --------------------------------------------------------------------------
# task validation
# --------------------------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(n=7), "exhaustive scan at n=7 refused"),
        (dict(n=0), r"order must be an integer in \[1, 16\], got 0"),
        (dict(n=5, mode="sample"), "sample mode needs sample_count >= 1"),
        (dict(n=5, mode="sample", sample_count=0, seed=1), "sample mode needs sample_count >= 1"),
        (dict(n=5, mode="sample", sample_count=10), "sample mode needs an explicit seed"),
        (dict(n=5, mode="sample", sample_count=10, seed=1, model="weird"), "unknown sample model"),
        (dict(n=3, mode="bogus"), "unknown mode 'bogus'"),
        (dict(n=5, evaluator="not_a_thing"), "unknown evaluator"),
        (dict(n=5, filters=("bogus",)), "unknown filter 'bogus'"),
        (
            dict(n=17, mode="sample", sample_count=5, seed=1),
            r"order must be an integer in \[1, 16\], got 17",
        ),
        (dict(n=5, evaluator="no_dnk"), "evaluator 'no_dnk' needs an integer k, got None"),
        (dict(n=5, evaluator="no_dnk:99"), r"k must lie in \[2, 5\], got 99"),
        (dict(n=5, evaluator="no_dnk:1"), r"k must lie in \[2, 5\], got 1"),
        (dict(n=2, evaluator="no_dnk:2"), "bypass pattern needs n >= 3"),
        (dict(n=5, evaluator="no_hc:3"), "evaluator 'no_hc' takes no parameter, got 'no_hc:3'"),
        (dict(n=4, seed=5, sample_count=10, model="dense", filters=("strong",)), "sampled scan"),
        (dict(n=4, seed=5), "seed, model and sample_count apply only to a sampled scan"),
        (dict(n=4, model="dense"), "sampled scan"),
        (dict(n=4, sample_count=10), "sampled scan"),
        (dict(n=5, evaluator="no_dnk:x"), "evaluator 'no_dnk' needs an integer k, got 'x'"),
        (dict(n=True), r"order must be an integer in \[1, 16\], got True"),
        (dict(n=5.0), r"order must be an integer in \[1, 16\], got 5\.0"),
        (
            dict(n=5, mode="sample", sample_count=2.5, seed=1),
            r"sample_count must be an integer, got 2\.5",
        ),
        (
            dict(n=5, mode="sample", sample_count=True, seed=1),
            "sample_count must be an integer, got True",
        ),
        (dict(n=5, mode="sample", sample_count=2, seed=1.5), r"seed must be an integer, got 1\.5"),
        (dict(n=5, mode="sample", sample_count=2, seed="1"), "seed must be an integer, got '1'"),
        (
            dict(n=5, mode="sample", sample_count=2, seed=False),
            "seed must be an integer, got False",
        ),
        (dict(n=4, sample_count=False), "sample_count must be an integer, got False"),
    ],
)
def test_task_validation(kwargs, message):
    with pytest.raises(ValueError, match=message):
        EnumerationTask(**kwargs)


def test_task_takes_no_evaluator_arg():
    """The evaluator id carries its parameter; the old keyword is gone."""
    with pytest.raises(TypeError, match="evaluator_arg"):
        EnumerationTask(n=5, evaluator="no_dnk", evaluator_arg=3)


def test_a_seed_outside_64_bits_is_refused():
    """_mix keeps 64 bits, so seeds that differ by 2^64 would draw the same
    masks: a seed must lie in [-2^63, 2^63), where each draws its own."""
    for seed in (5 + 2**64, 5 - 2**64, 2**63, -(2**63) - 1):
        with pytest.raises(ValueError, match=rf"seed must lie in \[-2\^63, 2\^63\), got {seed}$"):
            verify.run_claim("thm12", 7, sample=20000, seed=seed)
    for seed in (-(2**63), 2**63 - 1):
        assert EnumerationTask(7, "sample", sample_count=1, seed=seed).seed == seed


def test_non_integer_sample_count_is_a_value_error():
    with pytest.raises(ValueError, match=r"sample_count must be an integer, got 2\.5"):
        verify.run_claim("thm12", 5, sample=2.5, seed=1)


def test_building_a_task_generates_no_decoder(monkeypatch):
    monkeypatch.setattr(verify, "_decoder", _refuse_decoder)
    EnumerationTask(16, "sample", ("strong",), 10, 1)
    EnumerationTask(5, filters=("min_out:2", "strong"), evaluator="no_dnk:3")


def _refuse_decoder(*args):
    raise AssertionError("decoder generated")


def test_task_exhaustive_and_sampling_at_n6():
    assert EnumerationTask(n=6).mode_label == "exhaustive"
    sampled = EnumerationTask(n=6, mode="sample", sample_count=5, seed=1)
    assert sampled.mode_label == "sample:uniform:5"
    dense = EnumerationTask(n=6, mode="sample", sample_count=5, seed=1, model="dense")
    assert dense.mode_label == "sample:dense:5"


def _assert_streams_its_flags(task, workers):
    """A visitor with an evaluator gets exactly the flagged tuple of the
    same scan without one, in order, with the same counts, and the visitor
    scan's own flagged tuple is empty. Returns the flagged masks."""
    res = enumerate_digraphs(task, workers=workers)
    seen = []
    streamed = enumerate_digraphs(task, visitor=seen.append, workers=workers)
    assert streamed == replace(res, flagged=())
    assert tuple(seen) == res.flagged
    return seen


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_visitor_with_an_evaluator_streams_the_flags_of_every_claim(n):
    """Every claim row's filters and evaluator, each parameter of thm16 and
    explore on every condition id, as exhaustive tasks; an evaluator that
    does not exist at order n (no_dnk:3 below n = 3) is skipped."""
    tasks = []
    for name, claim in CLAIMS.items():
        params = _condition_ids() if name == "explore" else claim.params or (None,)
        for param in params:
            filters = tuple(fid.format(param) for fid in claim.filters)
            try:
                tasks.append(EnumerationTask(n, filters=filters, evaluator=claim.evaluator))
            except ValueError:
                assert n < 3 and claim.evaluator == "no_dnk:3"
    flagged = [_assert_streams_its_flags(task, 1) for task in tasks]
    assert any(flagged) or n < 3


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "task",
    [
        EnumerationTask(5, "sample", ("strong",), 3 * SAMPLE_CHUNK, 1, evaluator="no_hc"),
        EnumerationTask(4, "sample", sample_count=5 * SAMPLE_CHUNK, seed=2, evaluator="no_prehc"),
        EnumerationTask(6, "sample", ("min_out:2",), 5 * SAMPLE_CHUNK, 3, evaluator="no_bypass"),
        EnumerationTask(5, "sample", ("thm13",), 3 * SAMPLE_CHUNK, 4, "dense", "no_hc"),
    ],
)
def test_visitor_with_an_evaluator_streams_the_flags_of_a_sampled_scan(task, workers):
    assert _assert_streams_its_flags(task, workers)


# --------------------------------------------------------------------------
# theorem drivers at n <= 4
# --------------------------------------------------------------------------

def test_theorem6_n3_reports_the_degenerate_triple_gap(kstar12):
    """Under the pairwise-distinct reading of the triple condition, the
    3-vertex digraph K*_{1,2} survives the filters with no Hamiltonian
    cycle; the inclusive reading excludes it (see test above: 15 survivors)."""
    rep = check_theorem6(3, workers=2)
    assert (rep.scanned, rep.passed_filters) == (64, 18)
    assert rep.verdict == "counterexample-found"
    assert [e.canonical_hex for e in rep.exceptions] == ["04e"]
    assert iso.canonical_form(kstar12).hex == "04e"
    witness = rep.exceptions[0].witness
    assert iso.are_isomorphic(witness, kstar12)
    assert find_hamiltonian_cycle(witness) is None
    assert check_a_k(witness, 0).holds
    assert not check_a_k(witness, 0, inclusive=True).holds


def test_theorem6_n4_confirmed():
    rep = check_theorem6(4, workers=2)
    assert (rep.scanned, rep.passed_filters) == (4096, 660)
    assert rep.verdict == "confirmed" and rep.exceptions == ()


def test_theorem8_small_orders():
    rep3 = check_theorem8(3, workers=2)
    assert rep3.passed_filters == 18
    assert [e.canonical_hex for e in rep3.exceptions] == ["04e", "062"]
    assert rep3.verdict == "counterexample-found"  # K*_{1,2} is not C_3

    rep4 = check_theorem8(4, workers=2)
    assert rep4.passed_filters == 1092
    assert [e.canonical_hex for e in rep4.exceptions] == ["135e"]
    assert rep4.verdict == "confirmed"
    assert iso.are_isomorphic(rep4.exceptions[0].witness, fam.d1(4, 1))


_THM8_LARGE_MEMBERS = {
    "d1(9,1)": lambda: fam.d1(9, 1),
    "d1(9,3)": lambda: fam.d1(9, 3),
    "d1(10,2)": lambda: fam.d1(10, 2),
    "d0(9,empty)": lambda: fam.d0(9, fam.InnerSpec.empty()),
    "d0(9,complete)": lambda: fam.d0(9, fam.InnerSpec.complete()),
}


@pytest.mark.parametrize("member", list(_THM8_LARGE_MEMBERS))
def test_theorem8_family_membership_ignores_labels_above_canonical_bound(member):
    g = _THM8_LARGE_MEMBERS[member]()
    perm = list(range(g.n))
    random.Random(5).shuffle(perm)
    h = new_digraph(g.n, [(perm[u], perm[v]) for u, v in g.arcs()])
    assert is_strong(h) and resolve("degree_sum:-2").check(h).holds
    assert find_hamiltonian_bypass(h) is None
    allowed = CLAIMS["thm8"].allowed
    assert allowed(g) and allowed(h)
    assert not allowed(new_digraph(h.n, h.arcs()[1:]))


def test_theorem9_n4_confirmed():
    rep = check_theorem9(4, workers=2)
    assert (rep.passed_filters, rep.verdict) == (732, "confirmed")
    assert rep.exceptions == ()


def test_theorem11_n4_exceptions_are_balanced_bipartite(kb22):
    rep = check_theorem11(4, workers=2)
    assert rep.passed_filters == 660
    assert rep.verdict == "confirmed"
    assert [e.canonical_hex for e in rep.exceptions] == ["33cc"]
    assert (len(rep.exceptions) > 0) == check_a_k(kb22, 0).holds
    assert iso.is_balanced_complete_bipartite(rep.exceptions[0].witness)


def test_theorem12_n4_confirmed():
    rep = check_theorem12(4, workers=2)
    assert (rep.passed_filters, rep.verdict) == (660, "confirmed")
    assert rep.exceptions == ()


def test_theorem_order_bounds():
    with pytest.raises(ValueError):
        check_theorem6(2)
    with pytest.raises(ValueError):
        check_theorem8(2)
    with pytest.raises(ValueError):
        check_theorem11(3)
    with pytest.raises(ValueError):
        check_theorem12(3)
    with pytest.raises(ValueError):
        check_theorem9(3)
    with pytest.raises(ValueError):
        check_theorem16_conjecture(5, 3, sample=10, seed=1)
    with pytest.raises(ValueError):
        check_theorem16_conjecture(6, 4, sample=10, seed=1)


# --------------------------------------------------------------------------
# exploration
# --------------------------------------------------------------------------

def test_explore_meyniel_n3_contains_c3(c3):
    rep = explore_no_bypass(3, "meyniel", workers=2)
    assert rep.theorem == "explore:meyniel"
    assert rep.passed_filters == 15
    assert rep.verdict == "report-only"
    assert [e.canonical_hex for e in rep.exceptions] == ["062"]
    assert iso.are_isomorphic(rep.exceptions[0].witness, c3)


def test_explore_thm14_n4_catalog():
    rep = explore_no_bypass(4, "thm14", workers=2)
    assert rep.passed_filters == 606
    assert [e.canonical_hex for e in rep.exceptions] == ["1284", "1286", "1296"]


def test_explore_matches_theorem12_restriction():
    rep = explore_no_bypass(4, "a_k:0", workers=2)
    assert rep.passed_filters == 660
    assert rep.exceptions == ()


def test_explore_unknown_condition():
    with pytest.raises(ValueError):
        explore_no_bypass(4, "zzz")


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: verify.run_claim("nope", 5), "unknown claim 'nope'; known: thm6, thm8, .*explore"),
        (lambda: verify.run_claim(["thm12"], 5), r"unknown claim \['thm12'\]; known: thm6"),
        (
            lambda: verify.run_claim("thm12", True),
            r"order must be an integer in \[1, 16\], got True",
        ),
        (lambda: verify.run_claim("thm12", "5"), r"order must be an integer in \[1, 16\], got '5'"),
        (lambda: check_theorem12(3), "thm12 needs n >= 4"),
        (lambda: check_theorem12(5, 3), "thm12 takes no parameter, got 3"),
        (lambda: check_theorem16_conjecture(6, 4), "thm16 takes 2 or 3, got 4"),
        (lambda: explore_no_bypass(4, None), "explore needs a parameter"),
    ],
    ids=[
        "unknown", "list_name", "bool_n", "str_n", "below_min_n", "extra_param", "bad_param",
        "no_param",
    ],
)
def test_run_claim_rejects_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_drivers_are_claim_bindings():
    """Each driver is run_claim with its claim bound; the scan options are
    keyword-only and the old parameter keywords are gone."""
    drivers = {
        "thm6": check_theorem6,
        "thm8": check_theorem8,
        "thm9": check_theorem9,
        "thm11": check_theorem11,
        "thm12": check_theorem12,
        "thm16": check_theorem16_conjecture,
        "explore": explore_no_bypass,
    }
    assert list(drivers) == list(CLAIMS)
    for name, driver in drivers.items():
        assert (driver.func, driver.args, driver.keywords) == (verify.run_claim, (name,), {})
    with pytest.raises(TypeError):
        verify.run_claim("thm12", 5, None, 100, 1)
    with pytest.raises(TypeError):
        check_theorem16_conjecture(6, min_in_degree=3)
    with pytest.raises(TypeError):
        explore_no_bypass(4, cond_id="meyniel")


# --------------------------------------------------------------------------
# determinism and exception soundness
# --------------------------------------------------------------------------

def report_fingerprint(rep):
    return json.dumps(rep.to_json_dict(include_elapsed=False), sort_keys=False)


def test_reports_identical_across_worker_counts():
    reps = [check_theorem8(4, workers=w) for w in (1, 2, 8)]
    prints = {report_fingerprint(r) for r in reps}
    assert len(prints) == 1


def test_sampled_reports_identical_across_worker_counts():
    reps = [
        check_theorem12(5, sample=3000, seed=42, workers=w) for w in (1, 4)
    ]
    assert report_fingerprint(reps[0]) == report_fingerprint(reps[1])
    assert reps[0].mode == "sample:uniform:3000"
    assert reps[0].seed == 42
    assert reps[0].scanned == 3000


def test_sample_stream_is_seeded():
    def stream(seed):
        masks = []
        enumerate_digraphs(
            EnumerationTask(n=5, mode="sample", sample_count=200, seed=seed),
            visitor=masks.append,
            workers=1,
        )
        return masks

    assert stream(1) == stream(1)
    assert stream(1) != stream(2)


@pytest.mark.parametrize("model", ["uniform", "dense"])
@pytest.mark.parametrize("n", [2, 5, 6, 8, 12, 16])
def test_chunk_draws_are_the_seeded_stream(n, model):
    """Chunk i of a seeded task draws from Random(seed * 0x9E3779B97F4A7C15
    + i mod 2^64), one getrandbits(n(n-1)) per draw, the union of two
    consecutive ones on the dense model: pinned draw by draw, since the
    reference scans themselves draw through _chunk_masks."""
    bits = mask_bits(n)
    task = EnumerationTask(n, "sample", sample_count=SAMPLE_CHUNK + 100, seed=7, model=model)
    for i, count in ((0, SAMPLE_CHUNK), (1, 100)):
        rng = random.Random((7 * 0x9E3779B97F4A7C15 + i) % (1 << 64))
        if model == "dense":
            expected = [rng.getrandbits(bits) | rng.getrandbits(bits) for _ in range(count)]
        else:
            expected = [rng.getrandbits(bits) for _ in range(count)]
        assert verify._chunk_masks(task, i) == expected


@pytest.mark.parametrize("model", ["uniform", "dense"])
@pytest.mark.parametrize("n", range(1, 17))
def test_packed_chunk_draws_are_the_chunk_masks(n, model):
    """The packed blocks of a full chunk and of a partial last chunk hold,
    lane for lane, the draws of _chunk_masks."""
    task = EnumerationTask(n, "sample", sample_count=SAMPLE_CHUNK + 700, seed=3, model=model)
    width = verify._packing(n, model)[0]
    for i in (0, 1):
        lanes = [
            (block >> width * j) & ((1 << width) - 1)
            for block, count in verify._chunk_blocks(task, i)
            for j in range(count)
        ]
        assert lanes == verify._chunk_masks(task, i)


def test_sampled_reports_identical_whichever_process_scans_each_chunk(monkeypatch):
    """Chunk i is scanned by process i % workers: 53 chunks on 2, 3 and 4
    processes, none dividing the chunk count, give one report. A worker
    count above the chunk count clamps to it: 3 chunks on 5 workers fork
    2 children."""
    reps = [
        check_theorem16_conjecture(6, 3, sample=52 * SAMPLE_CHUNK + 1000, seed=5, workers=w)
        for w in (1, 2, 3, 4)
    ]
    assert len({report_fingerprint(r) for r in reps}) == 1
    assert reps[0].scanned == 52 * SAMPLE_CHUNK + 1000 and reps[0].passed_filters > 0
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    small = [
        check_theorem16_conjecture(6, 3, sample=2 * SAMPLE_CHUNK + 10, seed=5, workers=w)
        for w in (1, 5)
    ]
    assert report_fingerprint(small[0]) == report_fingerprint(small[1])
    assert len(forks) == 2


def test_sampled_visits_and_progress_lines_are_the_same_at_any_worker_count(capsys):
    """Results are absorbed in chunk order, so a visitor sees the same masks
    in the same order, and stderr carries the same progress lines, on 1, 2
    and 3 processes."""
    task = EnumerationTask(3, "sample", sample_count=(1 << 20) + 5000, seed=4, filters=("strong",))
    runs = []
    for workers in (1, 2, 3):
        seen = []
        enumerate_digraphs(task, visitor=seen.append, workers=workers)
        runs.append((seen, capsys.readouterr().err))
    assert runs[0][0] and runs[0][1] == "scanned 1048576\n"
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_no_process_outlives_a_failed_sampled_scan(monkeypatch):
    """On 3 processes, a visitor that fails on its first mask (in the
    caller) and a chunk that fails in a child both reach the caller with
    their type and message, and every child has been reaped."""
    task = EnumerationTask(5, "sample", sample_count=20 * SAMPLE_CHUNK, seed=1)

    def refuse(mask):
        raise ValueError(f"visitor refuses {mask}")

    with pytest.raises(ValueError, match=r"^visitor refuses \d+$"):
        enumerate_digraphs(task, visitor=refuse, workers=3)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)

    real = verify._scan_chunk

    def fail_in_child(*args):
        if args[-1] == 7:  # 7 % 3 == 1: the first child's third chunk
            raise KeyError("chunk 7")
        return real(*args)

    monkeypatch.setattr(verify, "_scan_chunk", fail_in_child)
    with pytest.raises(KeyError) as caught:
        enumerate_digraphs(task, workers=3)
    assert type(caught.value) is KeyError and str(caught.value) == "'chunk 7'"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("workers", [1.5, "2", 0, -1, True])
def test_worker_count_is_an_integer_of_at_least_one(workers):
    """On a sampled and on an exhaustive claim alike."""
    message = f"workers must be an integer >= 1, got {workers!r}"
    with pytest.raises(ValueError, match=message):
        verify.run_claim("thm12", 6, sample=20000, seed=1, workers=workers)
    with pytest.raises(ValueError, match=message):
        verify.run_claim("thm12", 4, workers=workers)


@pytest.mark.parametrize("threads", ["1.5", "0", "-1", "True", "four"])
def test_thread_env_is_an_integer_of_at_least_one(monkeypatch, threads):
    monkeypatch.setenv("HAMBYPASS_THREADS", threads)
    message = f"HAMBYPASS_THREADS must be an integer >= 1, got '{threads}'"
    with pytest.raises(ValueError, match=message):
        verify.run_claim("thm12", 6, sample=20000, seed=1)


def test_dense_model_label_and_determinism():
    a = check_theorem16_conjecture(6, 3, sample=4000, seed=9, model="dense", workers=1)
    b = check_theorem16_conjecture(6, 3, sample=4000, seed=9, model="dense", workers=4)
    assert a.mode == "sample:dense:4000"
    assert report_fingerprint(a) == report_fingerprint(b)


def test_theorem16_relaxed_is_report_only():
    rep = check_theorem16_conjecture(6, 2, sample=2000, seed=5, model="dense", workers=2)
    assert rep.verdict == "report-only"


def test_exceptions_reevaluate():
    for rep, cond_ids, structure in (
        (check_theorem8(3, workers=2), ("degree_sum:-2",), find_hamiltonian_bypass),
        (check_theorem8(4, workers=2), ("degree_sum:-2",), find_hamiltonian_bypass),
        (check_theorem11(4, workers=2), ("a_k:0",), None),
    ):
        assert rep.exceptions, "these scans are known to produce exceptions"
        for exc in rep.exceptions:
            g = exc.witness
            assert iso.canonical_form(g).hex == exc.canonical_hex
            assert naive_is_strong(g)
            for cid in cond_ids:
                assert resolve(cid).check(g).holds
            if structure is not None:
                assert structure(g) is None
                assert not naive_has_bypass(g)


# --------------------------------------------------------------------------
# report serialization
# --------------------------------------------------------------------------

def test_report_json_shape_exhaustive():
    rep = check_theorem12(4, workers=1)
    doc = rep.to_json_dict()
    assert list(doc) == [
        "theorem", "n", "mode", "scanned", "passed_filters", "exceptions",
        "verdict", "elapsed_ms",
    ]
    assert doc["theorem"] == "thm12" and doc["n"] == 4
    assert doc["mode"] == "exhaustive"
    assert doc["exceptions"] == []
    assert isinstance(doc["elapsed_ms"], int)
    trimmed = rep.to_json_dict(include_elapsed=False)
    assert "elapsed_ms" not in trimmed


def test_report_json_shape_sampled():
    rep = check_theorem12(5, sample=500, seed=3, workers=2)
    doc = rep.to_json_dict()
    assert list(doc) == [
        "theorem", "n", "mode", "seed", "scanned", "passed_filters", "exceptions",
        "verdict", "elapsed_ms",
    ]
    assert doc["seed"] == 3


def test_exception_witness_serialization():
    rep = check_theorem11(4, workers=1)
    doc = rep.to_json_dict()
    (entry,) = doc["exceptions"]
    assert list(entry) == ["canonical_hex", "witness"]
    w = entry["witness"]
    assert list(w) == ["n", "m", "arcs"]
    rebuilt = new_digraph(w["n"], [tuple(a) for a in w["arcs"]])
    assert w["m"] == rebuilt.m
    assert iso.canonical_form(rebuilt).hex == entry["canonical_hex"]
