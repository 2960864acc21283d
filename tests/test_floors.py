"""Degree floors in the generated decoder: a floored decoder rejects exactly
the masks below a floor and otherwise decodes as the floor-free one, and
scans that turn their min_out/min_in/strong filters into floors, sampled or
exhaustive, keep the floor-free reference scan's counts, survivors and
flagged masks."""

import random
from dataclasses import replace

import pytest

from naive_oracles import reference_filter, reference_scan
from test_verify import _decoder_masks

from hambypass import verify
from hambypass.verify import EnumerationTask, _plan, enumerate_digraphs, mask_bits

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


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 12, 16])
def test_floored_decoder_matches_the_floor_free_one(n):
    plain = verify._decoder(n)
    decoded = [(mask, plain(mask)) for mask in _floor_masks(n)]
    for a in range(n + 1):
        for b in range(n + 1):
            decode = verify._decoder(n, a, b)
            for mask, full in decoded:
                below = min(full[2]) < a or min(full[3]) < b
                assert decode(mask) == (None if below else full), (a, b, mask)


def test_zero_and_negative_floors_share_the_floor_free_decoder():
    assert verify._decoder(5) is verify._decoder(5, 0, 0) is verify._decoder(5, -1, -3)
    assert verify._decoder(5, 2, 0) is not verify._decoder(5)


@pytest.mark.parametrize(
    "n, filters, expected",
    [
        (1, ("strong",), (0, 0, ["strong"])),
        (2, ("strong",), (1, 1, ["strong"])),
        (6, THM16, (2, 3, ["thm13", "strong"])),
        (5, ("min_in:2", "a_k:0", "min_in:3"), (0, 3, ["a_k:0"])),
        (5, ("min_out:0", "min_in:-1"), (0, 0, [])),
        (5, ("min_out:-1", "strong"), (1, 1, ["strong"])),
    ],
)
def test_degree_floors_come_from_the_filters(n, filters, expected):
    """The plan's decoder has the expected floors, and its other filters
    answer as the expected ids do, in the same order, on every mask up to
    n = 4 and on the floor masks above."""
    out_floor, in_floor, rest = expected
    decoder, planned, _ = _plan(EnumerationTask(n, filters=filters))
    assert decoder() is verify._decoder(n, out_floor, in_floor)
    assert len(planned) == len(rest)
    plain = verify._decoder(n)
    for mask in _floor_masks(n):
        args = (n, *plain(mask))
        assert [f(*args) for f, _ in planned] == [reference_filter(fid)(*args) for fid in rest]


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


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 12, 16])
def test_chunk_screen_keeps_exactly_the_masks_that_meet_the_floors(n):
    """The packed-counter screen keeps, in order, the masks whose floor-free
    decoding meets both floors, for every floor pair from -1 to n + 1 and
    with a floor beyond a counter lane's guard bit."""
    masks = list(_floor_masks(n))
    decoded = [verify._decoder(n)(mask) for mask in masks]
    floors = [*range(-1, n + 2), 4 * n + 9]
    for a in floors:
        for b in floors:
            expected = [m for m, d in zip(masks, decoded) if min(d[2]) >= a and min(d[3]) >= b]
            screen = verify._generate_decoder(n, max(a, 0), max(b, 0))[1]
            assert screen(masks) == expected, (a, b)


def test_chunk_scan_matches_the_floored_decoder_loop():
    """On a floored dense task, _scan_chunk (the screen, then the floor-free
    decoder) counts and flags what decoding each draw with the floored
    decoder does."""
    task = EnumerationTask(8, "sample", THM16, 5000, 8, "dense", "no_bypass")
    decoder, filters, flag = _plan(task)
    filters = [f for f, _ in filters]
    ctx = task, verify._generate_decoder(*decoder.args)[1], verify._decoder(8), filters, flag
    decode = decoder()
    for i in (0, 1):
        masks = verify._chunk_masks(task, i)
        survivors = []
        for mask in masks:
            if (d := decode(mask)) is not None and all(f(8, *d) for f in filters):
                survivors.append((mask, flag(8, *d)))
        assert 0 < len(survivors) < len(masks)
        hits = [mask for mask, flagged in survivors if flagged]
        assert verify._scan_chunk(*ctx, i) == (len(masks), len(survivors), hits)
