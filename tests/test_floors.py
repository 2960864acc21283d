"""Degree floors: the class generator and the packed screen keep exactly
the classes and draws that meet them, and scans that turn their
min_out/min_in/strong filters into floors, sampled or exhaustive, keep the
floor-free reference scan's counts, survivors and flagged masks."""

import random
import sys
from dataclasses import replace
from math import factorial

import pytest

from conftest import classes
from naive_oracles import naive_is_strong, reference_filter, reference_scan
from test_verify import _decoder_masks

from hambypass import verify
from hambypass.digraph import new_digraph
from hambypass.verify import (
    EnumerationTask,
    _plan,
    digraph_from_mask,
    enumerate_digraphs,
    mask_bits,
    mask_of,
)

THM16 = ("min_out:2", "min_in:3", "thm13", "strong")


def _floor_masks(n):
    """Every mask up to n = 4; above, the seeded draws of _decoder_masks
    plus 300 draws of each arc density 1/4 and 3/4, so that every floor
    pair meets masks on both sides of it."""
    if n <= 4:
        return _decoder_masks(n)
    rng = random.Random(100 + n)
    bits = mask_bits(n)
    sparse = [rng.getrandbits(bits) & rng.getrandbits(bits) for _ in range(300)]
    dense = [rng.getrandbits(bits) | rng.getrandbits(bits) for _ in range(300)]
    return [*_decoder_masks(n), *sparse, *dense]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_floored_generator_keeps_exactly_the_classes_that_meet_the_floors(n):
    """For every floor pair up to n at n <= 4, and a few at n = 5, the
    walk keeps the (mask, aut) pairs of the floor-free one whose least
    out- and in-degree meet the floors, in the same order. A floor of n
    keeps nothing."""
    plain = [(m, aut, min(dout), min(din)) for m, aut, *_, dout, din in classes(n)]
    if n <= 4:
        pairs = [(a, b) for a in range(n + 1) for b in range(n + 1)]
    else:
        pairs = [(1, 1), (2, 3), (3, 3), (n, 0), (0, n), (n, n)]
    for a, b in pairs:
        expected = [(mask, aut) for mask, aut, out, in_ in plain if out >= a and in_ >= b]
        floors = (f"min_out:{a}", f"min_in:{b}")
        assert [(mask, aut) for mask, aut, *_ in classes(n, floors)] == expected, (a, b)
        assert bool(expected) == (max(a, b) < n), (a, b)


def test_zero_and_negative_floors_keep_every_class():
    plain = [(mask, aut) for mask, aut, *_ in classes(5)]
    assert len(plain) == 9608
    for a, b in [(-1, -3), (0, -1), (-2, 0)]:
        floors = (f"min_out:{a}", f"min_in:{b}")
        assert [(mask, aut) for mask, aut, *_ in classes(5, floors)] == plain, floors


@pytest.mark.parametrize("n", [6, 7])
def test_floors_at_the_complete_digraph_keep_only_it(n):
    """Past n = 5, where the walk takes too long floor-free for this suite
    (and n = 7 lies past the exhaustive limit): a floor of n - 1 keeps K*_n
    alone, since every child lacks an arc, and a floor of n keeps nothing,
    K*_n included."""
    full = ((1 << mask_bits(n)) - 1, factorial(n))
    for a, b in [(n - 1, n - 1), (n - 1, 0), (0, n - 1)]:
        floors = (f"min_out:{a}", f"min_in:{b}")
        assert [(mask, aut) for mask, aut, *_ in classes(n, floors)] == [full], floors
    for a, b in [(n, 0), (0, n), (n, n - 1)]:
        assert classes(n, (f"min_out:{a}", f"min_in:{b}")) == [], (a, b)


@pytest.mark.parametrize(
    "n, filters, expected",
    [
        (1, ("strong",), (0, 0, [])),
        (2, ("strong",), (1, 1, [])),
        (6, THM16, (2, 3, ["thm13"])),
        (7, THM16, (2, 3, ["thm13", "strong"])),
        (5, ("min_in:2", "a_k:0", "min_in:3"), (0, 3, ["a_k:0"])),
        (5, ("min_out:0", "min_in:-1"), (0, 0, [])),
        (5, ("min_out:-1", "strong"), (1, 1, ["strong"])),
    ],
)
def test_degree_floors_come_from_the_filters(n, filters, expected):
    """The plan has the expected floors, and its other filters answer as
    the expected ids do, in the same order, on every mask up to n = 4 and
    on the floor masks above."""
    out_floor, in_floor, rest = expected
    floors, planned, _ = _plan(EnumerationTask(n, "sample", filters, 1, 0))
    assert floors == (out_floor, in_floor)
    assert len(planned) == len(rest)
    plain = verify._decoder(n)
    for mask in _floor_masks(n):
        args = (n, *plain(mask))
        assert [f(*args) for f, _ in planned] == [reference_filter(fid)(*args) for fid in rest]


def _strong_task(n, a, b):
    return EnumerationTask(n, "sample", (f"min_out:{a}", f"min_in:{b}", "strong"), 1, 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_floors_that_force_strong_connectivity_drop_the_strong_filter(n):
    """If no arc enters a proper vertex set S, S holds at least min_in + 1
    vertices and its complement min_out + 1. So floors a, b with a + b >=
    n - 1 force strong, and the plan drops strong exactly then. Every mask
    up to n = 4, and every floor mask above, that meets such floors is
    strong."""
    for a in range(n >= 2, n + 1):  # strong itself sets floors of 1 from n = 2 on
        for b in range(n >= 2, n + 1):
            assert len(_plan(_strong_task(n, a, b))[1]) == (a + b < n - 1), (a, b)
    plain = verify._decoder(n)
    forced = [m for m in _floor_masks(n) if min((d := plain(m))[2]) + min(d[3]) >= n - 1]
    assert forced
    assert all(naive_is_strong(digraph_from_mask(n, m)) for m in forced)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_floors_one_short_of_the_strong_rule_do_not_force_it(n):
    """For floors a, b >= 1 with a + b = n - 2, K*_{b+1} on S with every arc
    from S to a K*_{a+1} meets both floors and is not strong, and the plan
    keeps strong, which rejects it."""
    for a in range(1, n - 2):
        b = n - 2 - a
        s = range(b + 1)
        arcs = [(u, v) for u in range(n) for v in range(n) if u != v and (u in s or v not in s)]
        mask = mask_of(new_digraph(n, arcs))
        rows, cols, dout, din = verify._decoder(n)(mask)
        assert (min(dout), min(din)) == (a, b)
        assert not naive_is_strong(digraph_from_mask(n, mask))
        (strong, _), = _plan(_strong_task(n, a, b))[1]
        assert not strong(n, rows, cols, dout, din)


def _reference(task):
    """(survivors, flagged) of task's scan by the floor-free reference, in
    one pass."""
    survivors = []
    flagged = reference_scan(task, survivors.append).flagged
    return survivors, list(flagged)


@pytest.mark.parametrize(
    "n, model, filters, evaluator",
    [
        (1, "uniform", ("strong",), "no_hc"),
        (2, "uniform", ("strong",), "no_hc"),
        (6, "uniform", THM16, "no_bypass"),
        (8, "dense", THM16, "no_bypass"),
        (5, "dense", ("min_in:3", "min_in:2"), "no_hc"),
        (5, "uniform", ("min_out:0", "min_out:-1", "strong"), "no_bypass"),
        (5, "dense", ("min_in:5",), "no_hc"),
        (4, "uniform", ("min_out:1", "a_k:0", "min_in:1"), "no_prehc"),
    ],
)
def test_floored_scan_matches_the_floor_free_reference(n, model, filters, evaluator):
    task = EnumerationTask(
        n, "sample", filters, sample_count=5000, seed=n, model=model, evaluator=evaluator
    )
    survivors, flagged = _reference(task)
    for workers in (1, 2):
        res = enumerate_digraphs(task, workers=workers)
        assert (res.scanned, res.passed_filters) == (5000, len(survivors))
        assert res.flagged == tuple(flagged)
        seen = []
        visited = enumerate_digraphs(replace(task, evaluator=None), seen.append, workers)
        assert (visited.passed_filters, seen) == (len(survivors), survivors)


@pytest.mark.parametrize(
    "n, filters, evaluator",
    [
        (2, ("strong",), "no_hc"),
        (4, ("min_out:2", "thm13"), "no_bypass"),
        (4, ("min_in:1", "a_k:0", "min_out:1"), "no_prehc"),
        (4, ("min_in:4",), "no_hc"),
        (3, ("min_out:2",), "no_hc"),
        (5, ("min_out:1", "min_in:2", "strong"), "no_prehc"),
        (5, THM16, "no_bypass"),
    ],
)
def test_floored_generator_matches_the_floor_free_reference(n, filters, evaluator):
    """Exhaustive scans prune the class generator with the same floors."""
    task = EnumerationTask(n, filters=filters, evaluator=evaluator)
    survivors, flagged = _reference(task)
    res = enumerate_digraphs(task, workers=1)
    assert (res.scanned, res.passed_filters) == (1 << mask_bits(n), len(survivors))
    assert res.flagged == tuple(flagged)
    seen = []
    enumerate_digraphs(replace(task, evaluator=None), seen.append)
    assert seen == survivors


def test_parity_cases_pass_some_and_reject_some():
    """The floors of the thm16 cases both reject draws and let some through,
    and the evaluator flags something in at least one case."""
    for n, model in ((6, "uniform"), (8, "dense")):
        task = EnumerationTask(n, "sample", THM16, sample_count=5000, seed=n, model=model)
        assert 0 < len(_reference(task)[0]) < 5000
    task = EnumerationTask(5, "sample", ("min_in:3", "min_in:2"), 5000, 5, "dense", "no_hc")
    assert _reference(task)[1]


def _blocks(n, model, masks):
    """`masks` packed into (block, lanes) pairs as verify._packing says."""
    width, per = verify._packing(n, model)[:2]
    parts = [masks[i : i + per] for i in range(0, len(masks), per)]
    return [(sum(m << width * j for j, m in enumerate(part)), len(part)) for part in parts]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 12, 16])
def test_chunk_screen_keeps_exactly_the_masks_that_meet_the_floors(n):
    """The packed screen keeps, in order, the masks whose floor-free
    decoding meets both floors, for every floor pair from -1 to n + 1 and
    with a floor beyond a counter lane's guard bit, in the lanes of either
    model."""
    masks = list(_floor_masks(n))
    decoded = [verify._decoder(n)(mask) for mask in masks]
    floors = [*range(-1, n + 2), 4 * n + 9]
    for model in ("uniform", "dense"):
        blocks = _blocks(n, model, masks)
        for a in floors:
            for b in floors:
                expected = [m for m, d in zip(masks, decoded) if min(d[2]) >= a and min(d[3]) >= b]
                assert list(verify._screen(n, model, (a, b), blocks)) == expected, (model, a, b)


def test_chunk_scan_matches_the_per_draw_floor_loop():
    """On a floored dense task, _scan_chunk (the screen, then the decoder)
    counts and flags what decoding each draw and testing its least out- and
    in-degree against the floors does."""
    task = EnumerationTask(8, "sample", THM16, 5000, 8, "dense", "no_bypass")
    (a, b), filters, flag = _plan(task)
    filters = [f for f, _ in filters]
    decode = verify._decoder(8)
    ctx = task, (a, b), decode, filters, flag
    for i in (0, 1):
        masks = verify._chunk_masks(task, i)
        survivors = []
        for mask in masks:
            d = decode(mask)
            if min(d[2]) >= a and min(d[3]) >= b and all(f(8, *d) for f in filters):
                survivors.append((mask, flag(8, *d)))
        assert 0 < len(survivors) < len(masks)
        hits = [mask for mask, flagged in survivors if flagged]
        assert verify._scan_chunk(*ctx, i) == (len(masks), len(survivors), hits)


@pytest.mark.parametrize("n", range(1, 17))
@pytest.mark.parametrize("model", ["uniform", "dense"])
def test_packed_screen_constants_stay_small(n, model):
    """Every sampled scan with a floor caches its order's _packing, the
    harness warm-up and strong (floors of 1) included, so it stays within a
    fixed byte budget at every order."""
    budget = 128 * 1024
    width, per, draw, rows, cols, *rest = verify._packing(n, model)
    ints = [m for moves in (draw, rows, cols) for _, m in moves] + rest[:1]
    assert sum(map(sys.getsizeof, ints)) < budget


@pytest.mark.parametrize("model", ["uniform", "dense"])
def test_packed_blocks_fill_the_budget_up_to_a_chunk(model):
    """Every order packs at least one lane and at most a chunk per block,
    and n = 6 uniform, the thm16 sample, packs more lanes than the fixed
    2^14-bit blocks did (512)."""
    for n in range(1, 17):
        assert 1 <= verify._packing(n, model)[1] <= verify.SAMPLE_CHUNK, n
    assert verify._packing(6, "uniform")[1] > 512
