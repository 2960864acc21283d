"""Class generation for exhaustive claims and scans: the closure each
pruning filter promises, which scans take the generator, parity of
generated reports and scans with the mask-by-mask reference scan, and
self-checks of the generator against known class counts and brute force
(test_iso checks it against the canonical forms)."""

import json
import random
from dataclasses import replace
from itertools import permutations
from math import factorial

import pytest

from conftest import classes
from naive_oracles import naive_automorphism_count, reference_filter, reference_scan
from test_dedupe import _condition_ids, _relabel

from hambypass import conditions, verify
from hambypass import families as fam
from hambypass.digraph import new_digraph
from hambypass.verify import (
    CLAIMS,
    EnumerationTask,
    _orbit_least,
    _plan,
    digraph_from_mask,
    enumerate_digraphs,
    mask_bits,
    mask_of,
    run_claim,
)


def _args(n, mask):
    g = digraph_from_mask(n, mask)
    rows, cols = list(g.rows), list(g.cols)
    return n, rows, cols, [r.bit_count() for r in rows], [c.bit_count() for c in cols]


# --------------------------------------------------------------------------
# upward closure of the pruning filters
# --------------------------------------------------------------------------


def _closed(fid):
    """Whether the scan plan marks filter `fid` closed upward."""
    ((_, closed),) = _plan(EnumerationTask(4, filters=(fid,)))[1]
    return closed


def _declared(n):
    """(id, raw predicate) of every filter that prunes the generator at
    order n: the degree floors and the filters declared upward-closed."""
    fids = [f"{kind}:{t}" for kind in ("min_out", "min_in") for t in range(n + 1)]
    fids += [fid for fid in ["strong", *_condition_ids()] if _closed(fid)]
    return [(fid, reference_filter(fid)) for fid in fids]


def _passing(preds, n, mask):
    args = _args(n, mask)
    return {fid for fid, f in preds if f(*args)}


def _assert_no_flip(n, mask, passing_of):
    """No filter that `mask` passes fails once any one missing arc is added;
    passing_of(mask) is the set of filters a mask passes."""
    ok = passing_of(mask)
    missing = ((1 << mask_bits(n)) - 1) & ~mask
    while missing:
        b = missing & -missing
        missing ^= b
        lost = ok - passing_of(mask | b)
        assert not lost, f"n={n} mask {mask:x} plus bit {b.bit_length() - 1}: {sorted(lost)} fail"


def test_declared_filters_are_upward_closed():
    """Adding any one arc never turns a pass of a pruning filter into a fail:
    on every digraph of order n <= 4, and on seeded n = 5, 6 draws of three
    densities."""
    for n in range(1, 5):
        preds = _declared(n)
        passing = [_passing(preds, n, mask) for mask in range(1 << mask_bits(n))]
        for mask in range(1 << mask_bits(n)):
            _assert_no_flip(n, mask, passing.__getitem__)
    rng = random.Random(7)
    for n in (5, 6):
        preds = _declared(n)
        for draw in range(300):
            mask = 0
            for _ in range(1 + draw % 3):
                mask |= rng.getrandbits(mask_bits(n))
            _assert_no_flip(n, mask, lambda m: _passing(preds, n, m))


def test_declared_filters_cover_the_closed_claims():
    """Every filter of thm6/8/9/11/12, a degree sum and lemma5 prune the
    class generator."""
    for name in ("thm6", "thm8", "thm9", "thm11", "thm12"):
        assert all(map(_closed, CLAIMS[name].filters)), name
    assert _closed("degree_sum:-5") and _closed("lemma5")


@pytest.mark.parametrize("cond_id", ["thm13", "thm14", "thm15"])
def test_common_neighbour_conditions_are_not_upward_closed(cond_id):
    """The single arc 0->1 on four vertices passes; adding 0->2 creates the
    non-adjacent pair {1, 2} with common in-neighbour 0 and low degrees."""
    cond = conditions.resolve(cond_id)
    assert not _closed(cond_id)
    assert cond.check(new_digraph(4, [(0, 1)])).holds
    assert not cond.check(new_digraph(4, [(0, 1), (0, 2)])).holds


@pytest.mark.parametrize("cond_id", ["thm16", "thm16relaxed"])
def test_thm16_hypotheses_are_not_upward_closed(cond_id):
    """thm16's degree floors fail below n = 6, so the n = 4 example does not
    apply. Two disjoint copies of K*_4 pass: no non-adjacent pair shares a
    neighbour. The arc 2->1 makes 2 a common in-neighbour of 0 and 1, and
    the degree 6 of 0 falls short of n - 1 = 7."""
    cond = conditions.resolve(cond_id)
    parts = ((0, 2, 3, 4), (1, 5, 6, 7))
    arcs = [(u, v) for part in parts for u in part for v in part if u != v]
    assert not _closed(cond_id)
    assert cond.check(new_digraph(8, arcs)).holds
    assert not cond.check(new_digraph(8, arcs + [(2, 1)])).holds


def _refuse(*args, **kwargs):
    raise AssertionError("wrong scan path")


def test_exhaustive_claims_always_run_on_the_generator(monkeypatch):
    """No exhaustive claim reaches the chunk scan, closed or not; no
    sampled scan reaches the generator."""
    with monkeypatch.context() as m:
        m.setattr(verify, "_scan_chunk", _refuse)
        assert run_claim("thm12", 5, workers=2).passed_filters == 97524
        run_claim("explore", 4, "thm13")
    with monkeypatch.context() as m:
        m.setattr(verify, "_scan_classes", _refuse)
        run_claim("thm12", 5, sample=100, seed=1)
        run_claim("explore", 4, "thm13", sample=100, seed=1)


def test_exhaustive_scans_without_a_visitor_run_on_the_generator(monkeypatch):
    """enumerate_digraphs routes on the mode alone: an exhaustive scan never
    reaches the chunk scan, whatever the worker count; a sampled scan, with
    a visitor or without, never reaches the generator. The generated path
    still rejects a malformed HAMBYPASS_THREADS."""
    closed = EnumerationTask(4, filters=("a_k:0", "strong"))
    with monkeypatch.context() as m:
        m.setattr(verify, "_scan_chunk", _refuse)
        assert enumerate_digraphs(closed, workers=2).passed_filters == 660
        flagged = enumerate_digraphs(EnumerationTask(4, evaluator="no_hc"), workers=1).flagged
        assert len(flagged) == 2902
    with monkeypatch.context() as m:
        m.setattr(verify, "_scan_classes", _refuse)
        sampled = EnumerationTask(4, mode="sample", sample_count=100, seed=1)
        seen = []
        assert enumerate_digraphs(sampled, visitor=seen.append, workers=2).scanned == 100
        assert seen
        sampled = replace(sampled, evaluator="no_bypass")
        assert enumerate_digraphs(sampled, workers=2).scanned == 100
    monkeypatch.setenv("HAMBYPASS_THREADS", "four")
    with pytest.raises(ValueError, match="HAMBYPASS_THREADS"):
        enumerate_digraphs(closed)
    with pytest.raises(ValueError, match="HAMBYPASS_THREADS"):
        enumerate_digraphs(closed, visitor=lambda mask: None)


@pytest.mark.parametrize("workers", [1, 2])
def test_exhaustive_visitor_scans_run_on_the_generator(monkeypatch, workers):
    """A visitor gets every survivor of an exhaustive scan, in ascending
    mask order, from the generator's passing classes: the reference scan's
    masks, and no chunk is scanned."""
    monkeypatch.setattr(verify, "_scan_chunk", _refuse)
    for task in (
        EnumerationTask(4, filters=("a_k:0", "strong")),
        EnumerationTask(4, filters=("min_out:2", "thm13")),
        EnumerationTask(3),
    ):
        seen, expected = [], []
        res = enumerate_digraphs(task, visitor=seen.append, workers=workers)
        assert res == reference_scan(task, expected.append)
        assert seen == expected == sorted(seen) and seen


def test_filters_not_closed_never_prune(monkeypatch):
    """thm13 rejects the arcs 0->1, 0->2 on four vertices but passes the
    single arc 0->1, their descendant in the generator's tree (see above).
    So thm13 is checked per class, and the scan counts what the reference
    scan counts, more than a thm13-pruned tree would."""
    task = EnumerationTask(4, filters=("thm13",))
    labeled = reference_scan(task).passed_filters
    assert verify._scan_classes(task).passed_filters == labeled
    real = verify._plan

    def all_closed(task, visitor=False):
        floors, filters, flag = real(task, visitor)
        return floors, [(f, True) for f, _ in filters], flag

    with monkeypatch.context() as m:
        m.setattr(verify, "_plan", all_closed)
        assert verify._scan_classes(task).passed_filters < labeled


def test_generated_claims_still_check_the_worker_count(monkeypatch):
    """The generator runs on one process, but a malformed HAMBYPASS_THREADS
    is an error on every claim, as on the sampled engine."""
    monkeypatch.setenv("HAMBYPASS_THREADS", "four")
    with pytest.raises(ValueError, match="HAMBYPASS_THREADS"):
        run_claim("thm12", 4)


# --------------------------------------------------------------------------
# parity of generated reports with the mask-by-mask reference scan
# --------------------------------------------------------------------------


def _report(monkeypatch, name, n, param, labeled):
    """run_claim's JSON report without elapsed time (or the error it
    raises) at any order; `labeled` swaps the reference scan in for the
    generator."""
    with monkeypatch.context() as m:
        m.setitem(CLAIMS, name, replace(CLAIMS[name], min_n=1))
        if labeled:
            m.setattr(verify, "_scan_classes", reference_scan)
        try:
            report = run_claim(name, n, param, workers=2)
        except ValueError as exc:  # the same error must come out of both paths
            return repr(exc)
    return json.dumps(report.to_json_dict(include_elapsed=False))


def _assert_parity(monkeypatch, name, n, param=None):
    generated = _report(monkeypatch, name, n, param, labeled=False)
    assert generated == _report(monkeypatch, name, n, param, labeled=True)
    return generated


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("name", [name for name in CLAIMS if name != "explore"])
def test_generated_claim_matches_labeled_engine(monkeypatch, name, n):
    """Every claim row at each of its parameters: thm16 with min in-degree
    3 and 2 mixes pruning filters with per-class thm13 checks."""
    for param in CLAIMS[name].params or (None,):
        _assert_parity(monkeypatch, name, n, param)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("cond_id", _condition_ids())
def test_generated_explore_matches_labeled_engine(monkeypatch, cond_id, n):
    _assert_parity(monkeypatch, "explore", n, cond_id)


@pytest.mark.parametrize(
    "name,param", [("thm12", None), ("explore", "degree_sum:-5"), ("explore", "thm13")]
)
def test_generated_n5_matches_labeled_engine(monkeypatch, name, param):
    doc = json.loads(_assert_parity(monkeypatch, name, 5, param))
    assert doc["exceptions"]


def test_parity_cases_flag_something(monkeypatch):
    """The small-order parity cases are not all empty."""
    assert json.loads(_report(monkeypatch, "thm11", 4, None, False))["exceptions"]
    assert _report(monkeypatch, "thm9", 2, None, False).startswith("DigraphError")


def _evaluators(n):
    """Every evaluator id valid at order n, and None."""
    named = [name for name in verify._EVALUATORS if name != "no_dnk"]
    return [None, *named, *(f"no_dnk:{k}" for k in range(2, n + 1) if n >= 3)]


@pytest.mark.parametrize("filters", [(), ("strong",), ("a_k:0", "strong"), ("thm13",)])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_generated_scan_matches_labeled_engine(n, filters):
    """enumerate_digraphs expands every flagged class to all its labelings,
    so its whole result, flagged masks in ascending order included, is the
    mask-by-mask reference scan's."""
    for evaluator in _evaluators(n):
        task = EnumerationTask(n, filters=filters, evaluator=evaluator)
        assert enumerate_digraphs(task, workers=1) == reference_scan(task), evaluator


def test_generated_n5_scan_matches_labeled_engine():
    task = EnumerationTask(5, filters=("degree_sum:-5", "strong"), evaluator="no_bypass")
    result = enumerate_digraphs(task, workers=1)
    assert (len(verify._scan_classes(task).flagged), len(result.flagged)) == (413, 42475)
    assert result == reference_scan(task)


# --------------------------------------------------------------------------
# self-checks of the generator
# --------------------------------------------------------------------------


@pytest.mark.parametrize("n,count", [(1, 1), (2, 3), (3, 16), (4, 218), (5, 9608)])
def test_generator_visits_every_class_once(n, count):
    """With no filters: the number of digraph classes (OEIS A000273), and
    the class sizes n!/|Aut| add up to every labeled digraph."""
    sizes = [factorial(n) // aut for _, aut, *_ in classes(n)]
    assert len(sizes) == count
    assert sum(sizes) == 1 << mask_bits(n)


# A035512: strong digraph classes; A003030: labelled strong digraphs.
@pytest.mark.parametrize(
    "n,count,labelled", [(1, 1, 1), (2, 1, 1), (3, 5, 18), (4, 83, 1606), (5, 5048, 565080)]
)
def test_generator_counts_the_strong_digraphs(n, count, labelled):
    """With the strong filter: the number of strong digraph classes, whose
    sizes n!/|Aut| add up to the labelled strong digraphs and to the scan's
    passed count."""
    sizes = [factorial(n) // aut for _, aut, *_ in classes(n, ("strong",))]
    assert len(sizes) == count
    assert sum(sizes) == labelled
    assert verify._scan_classes(EnumerationTask(n, filters=("strong",))).passed_filters == labelled


def _least_relabeling_rows(g):
    least = min(mask_of(_relabel(g, perm)) for perm in permutations(range(g.n)))
    return list(digraph_from_mask(g.n, least).rows)


def test_automorphism_count_matches_brute_force():
    for n in range(1, 5):
        for mask, aut, *_ in classes(n):
            assert aut == naive_automorphism_count(digraph_from_mask(n, mask)), (n, mask)
    rng = random.Random(11)
    for draw in range(150):
        g = digraph_from_mask(5, rng.getrandbits(20) | (rng.getrandbits(20) if draw % 2 else 0))
        assert _orbit_least(5, _least_relabeling_rows(g)) == naive_automorphism_count(g)
    for g in (fam.t5(), fam.d0(5, fam.InnerSpec.empty()), fam.complete_digraph(5)):
        assert _orbit_least(5, _least_relabeling_rows(g)) == naive_automorphism_count(g)
