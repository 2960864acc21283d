"""Exhaustive and sampled enumeration of labeled digraphs, plus the theorem
verification drivers built on top of it.

A labeled digraph on n vertices is encoded as an n(n-1)-bit arc mask: arc
(u, v) occupies bit u*(n-1) + (v if v < u else v - 1), so each vertex's
out-row is a contiguous field. Each mask is decoded into rows, columns and
degrees by one straight-line function generated per order (_decoder), the
scan's costliest step.

Filters are condition identifiers (see conditions.resolve) plus the scan
extras "strong", "min_out:<t>" and "min_in:<t>"; they short-circuit in the
order given. An optional evaluator runs on filter survivors: "no_hc",
"no_prehc", "no_bypass", "no_dnk:<k>", "lemma5" and "lemma7_sweep". It
flags a digraph by returning True, and any other result clears it; an int
other than False is also a certificate: every subdigraph of the class that
holds its arcs is cleared too. Ids rather than callables cross the process
boundary.

Both scan engines run what _plan makes of a task's ids: min_out and min_in
become degree floors; strong adds floors of 1 from n = 2 on and runs only
where the floors do not force it; the other filters keep their order and
say whether they are closed upward (adding an arc never makes one fail);
and one flag predicate picks the masks a scan reports. A sampled scan with
a floor draws each chunk as packed blocks of draws and tests the floors of
every draw in a block at once (_screen), so only the survivors are decoded.

Exhaustive scans walk one orbit-least mask per isomorphism class, downward
from K*_n, pruned by the degree floors and the filters that are closed
upward (_scan_classes). The other filters and the flag run once per walked
class, and each class that passes counts its n!/|Aut| labelings. A class
hands its certificate to the children that keep its arcs, and one that
holds a certificate is cleared without the evaluator. With no filter,
where every digraph passes, the walk pushes no child whose subtree all
keeps the certificate. These scans run on one process whatever the
worker count and print no progress lines. Sampled scans split their
seeded draws into fixed-size chunks, chunk i scanned by process i %
workers: the caller or a forked child. Chunk boundaries never depend on
the worker count and results are absorbed in chunk order, so reports are
bit-identical whatever the parallelism. Either engine reports to a sink,
as it reaches them, the masks the evaluator flags, or on a visitor scan
with no evaluator every survivor (_scan). run_claim keeps the class
representatives; enumerate_digraphs expands each to its labelings,
ascending, which go to its visitor if it has one, else into `flagged`.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass, fields
from functools import lru_cache, partial
from itertools import permutations, repeat
from math import factorial
from random import Random
from typing import Callable, Iterable

from . import conditions, families
from .digraph import Digraph, _check_int, _check_order, _strong_raw, split_id
from .iso import (
    CANON_MAX_N,
    are_isomorphic,
    canonical_form,
    d0_inner_kind,
    is_balanced_complete_bipartite,
    is_glued_cliques,
    is_isomorphic_to_t5,
)
from .search import _bypass_raw, _cycle_bypass_raw, _cycles_raw, _dnk_raw

EXHAUSTIVE_MAX_N = 6
SAMPLE_CHUNK = 4096
_PROGRESS_STEP = 1 << 20
_MODELS = ("uniform", "dense")


# ---------------------------------------------------------------------------
# Arc-mask encoding
# ---------------------------------------------------------------------------


def mask_bits(n: int) -> int:
    return n * (n - 1)


def mask_of(g: Digraph) -> int:
    return _rows_mask(g.n, g.rows)


def _rows_mask(n: int, rows) -> int:
    return sum((r >> u + 1 << u | r & (1 << u) - 1) << u * (n - 1) for u, r in enumerate(rows))


def _arc_bits(n: int, order) -> int:
    """The n arcs of the bypass `order` as mask bits: its path, then its chord."""
    arcs = (*zip(order, order[1:]), (order[0], order[-1]))
    return sum(1 << u * (n - 1) + v - (v > u) for u, v in arcs)


@lru_cache(maxsize=1)  # a scan decodes one order, and n = 16 holds 52 MB
def _decoder(n: int):
    """decode(mask) -> (rows, cols, dout, din) for order n, as fresh lists.

    A straight-line function generated from integers and two per-order
    tables: E{u}[raw] is u's n-bit out-row (diagonal bit reinserted as 0);
    S{u}[raw] packs the same arcs column-wise into n-bit lanes (arc u->v is
    bit n*v + u), so the transpose of a whole mask is one sum of n table
    entries. It reads each row's field once, sums the S entries into packed
    columns and splits them into n-bit lanes, with no loop or comprehension
    frames.
    """
    width = n - 1
    field = (1 << width) - 1
    lane = (1 << n) - 1
    us = range(n)
    namespace = {}
    for u in us:
        heads = [v for v in us if v != u]
        e_u = [0]
        s_u = [0]
        # Each entry is the entry without raw's lowest bit, plus that arc.
        for raw in range(1, 1 << width):
            low = raw & -raw
            v = heads[low.bit_length() - 1]
            e_u.append(e_u[raw ^ low] | 1 << v)
            s_u.append(s_u[raw ^ low] | 1 << (n * v + u))
        namespace[f"E{u}"] = tuple(e_u)
        namespace[f"S{u}"] = tuple(s_u)
    src = "\n    ".join(
        [
            "def decode(mask):",
            *(f"a{u} = (mask >> {u * width}) & {field}" for u in us),
            "p = " + " + ".join(f"S{u}[a{u}]" for u in us),
            *(f"c{v} = (p >> {n * v}) & {lane}" for v in us),
            "; ".join(f"r{u} = E{u}[a{u}]" for u in us),
            "return "
            + ", ".join(
                "[" + ", ".join(item.format(u) for u in us) + "]"
                for item in ("r{}", "c{}", "r{}.bit_count()", "c{}.bit_count()")
            ),
        ]
    )
    exec(src, namespace)
    return namespace["decode"]


def digraph_from_mask(n: int, mask: int) -> Digraph:
    """The digraph of arc mask `mask`: OrderError for an order outside
    [1, MAX_N], ValueError for a mask that is not an integer
    (digraph._check_int) or lies outside [0, 2^(n(n-1)))."""
    _check_order(n)
    _check_int(mask, "mask")
    if not 0 <= mask < 1 << mask_bits(n):
        raise ValueError(f"mask {mask!r} outside [0, 2^{mask_bits(n)}) at n={n}")
    width = n - 1
    field = (1 << width) - 1
    rows = []
    for u in range(n):
        raw = (mask >> (u * width)) & field
        rows.append(((raw >> u) << (u + 1)) | (raw & ((1 << u) - 1)))
    return Digraph._from_rows(n, rows)


# ---------------------------------------------------------------------------
# Tasks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnumerationTask:
    """What to scan and how.

    mode "exhaustive" covers all 2^(n(n-1)) arc masks (n <= 6) by walking
    one mask per class on one process, ignoring the worker count; it takes
    no seed, model or sample_count. Mode "sample" draws sample_count seeded
    masks, uniform or dense (union of two uniform draws), in chunks.
    Filters and the evaluator are given by identifier, a parameter after a
    colon ("min_in:3", "no_dnk:3"), so tasks stay picklable. n must be an
    order (digraph._check_order), sample_count and seed (unless None)
    integers (digraph._check_int), the seed in [-2^63, 2^63), where _mix
    gives each seed its own draws; every id is checked by building the
    task's plan (_plan).
    """

    n: int
    mode: str = "exhaustive"
    filters: tuple[str, ...] = ()
    sample_count: int = 0
    seed: int | None = None
    model: str = "uniform"
    evaluator: str | None = None

    def __post_init__(self):
        _check_order(self.n)
        _check_int(self.sample_count, "sample_count")
        if self.seed is not None and not -(1 << 63) <= _check_int(self.seed, "seed") < 1 << 63:
            raise ValueError(f"seed must lie in [-2^63, 2^63), got {self.seed!r}")
        if self.mode == "exhaustive":
            if self.n > EXHAUSTIVE_MAX_N:
                raise ValueError(
                    f"exhaustive scan at n={self.n} refused (limit {EXHAUSTIVE_MAX_N})"
                )
            if self.seed is not None or self.model != "uniform" or self.sample_count:
                raise ValueError("seed, model and sample_count apply only to a sampled scan")
        elif self.mode == "sample":
            if self.sample_count < 1:
                raise ValueError("sample mode needs sample_count >= 1")
            if self.seed is None:
                raise ValueError("sample mode needs an explicit seed")
            if self.model not in _MODELS:
                raise ValueError(f"unknown sample model {self.model!r}")
        else:
            raise ValueError(f"unknown mode {self.mode!r}")
        _plan(self)

    @property
    def mode_label(self) -> str:
        if self.mode == "exhaustive":
            return "exhaustive"
        return f"sample:{self.model}:{self.sample_count}"


_FILTER_UNITS = {"min_out": "threshold", "min_in": "threshold", "strong": None, **conditions.UNITS}


def _plan(task: EnumerationTask, visitor: bool = False):
    """(floors, filters, flag), what both scan engines run for `task`; a
    bad id is a ValueError. Every predicate is f(n, rows, cols, dout, din).

    floors is (out, in), both >= 0, which the class walk checks from a
    parent's degrees and a sampled scan with _screen. min_out:<t> and
    min_in:<t> are floors only; the largest t wins. A strong digraph of
    order n >= 2 has every degree at least 1, so strong adds floors of 1. It
    runs only if min_out + min_in < n - 1: a set that no arc enters holds
    min_in + 1 vertices or more, its complement min_out + 1, so larger
    floors force strong. The other filters are (raw predicate, closed
    upward) pairs in task order. The flag picks the survivors a scan
    reports: those the evaluator flags; with no evaluator, all on a visitor
    scan and none (flag None) on any other."""
    n = task.n
    one = int("strong" in task.filters and n >= 2)
    floors = {"min_out": one, "min_in": one}
    strong = (lambda n, rows, cols, dout, din: _strong_raw(n, rows, cols), True)
    filters = []
    for fid in task.filters:
        name, t = split_id(fid, _FILTER_UNITS, "filter")
        if name in floors:
            floors[name] = max(floors[name], t)
        elif name == "strong":
            filters.append(strong)
        else:
            cond = conditions.resolve(fid)
            filters.append((cond.raw, cond.upward_closed))
    if floors["min_out"] + floors["min_in"] >= n - 1:  # the floors force strong
        filters = [f for f in filters if f is not strong]
    flag = None
    if task.evaluator is not None:
        units = {e: "k" if e == "no_dnk" else None for e in _EVALUATORS}  # _EVALUATORS may grow
        name, k = split_id(task.evaluator, units, "evaluator")
        flag = _EVALUATORS[name]
        if k is not None:
            families.bypass_pattern(n, k)  # raises DigraphError on a bad n or k
            flag = partial(flag, k)
    elif visitor:
        flag = lambda n, rows, cols, dout, din: True
    return (floors["min_out"], floors["min_in"]), filters, flag


# ---------------------------------------------------------------------------
# Evaluators (structure oracles applied to filter survivors)
# ---------------------------------------------------------------------------


def _eval_no_hc(n, rows, cols, dout, din) -> bool:
    return next(_cycles_raw(rows, cols, (1 << n) - 1, n), None) is None


def _eval_no_prehc(n, rows, cols, dout, din) -> bool:
    return next(_cycles_raw(rows, cols, (1 << n) - 1, n - 1), None) is None


def _eval_no_bypass(n, rows, cols, dout, din) -> bool:
    return _bypass_raw(n, rows, cols) is None


def _eval_no_dnk(k, n, rows, cols, dout, din) -> bool:  # _plan binds k
    return _dnk_raw(n, rows, cols, k) is None


def _eval_lemma5(n, rows, cols, dout, din) -> bool:
    return conditions._lemma5_violation(n, rows, cols, dout, din) is not None


def _lemma7_keep(n, rows, cols, dout, din):
    """The lemma-7 sweep: 0 if search._cycle_bypass_raw reads no bypass off
    an (n-1)-cycle and its off vertex y, else the n arcs (a mask) of the
    bypass whose lowest bit is highest up to the lowest absent arc z, by
    bisecting a floor t <= z for _bypass_raw. None below n = 4; never flags.

    The read-off is None exactly where the windows and reversals clauses
    hold, and then so does the degree clause: no two consecutive cycle
    vertices are both out- (or both in-) neighbours of y, so d+(y) and
    d-(y) are at most (n-1)/2 and the cycle is not good. So 0 says every
    (n-1)-cycle passes, which stays true once an arc is deleted."""
    if n < 4:
        return None
    total = n * (n - 1) // 2  # y is the vertex a cycle misses
    cycles = _cycles_raw(rows, cols, (1 << n) - 1, n - 1)
    reads = (_cycle_bypass_raw(rows, cols, c, total - sum(c)) for c in cycles)
    order = next(filter(None, reads), None)
    if order is None:
        return 0
    keep, mask = _arc_bits(n, order), _rows_mask(n, rows)
    hi = (~mask & mask + 1).bit_length() - 1
    while (lo := (keep & -keep).bit_length() - 1) < hi:
        t = (lo + hi + 1) // 2
        order = _bypass_raw(n, *_decoder(n)(mask >> t << t)[:2])
        if order is None:
            hi = t - 1
        else:
            keep = _arc_bits(n, order)
    return keep


# Raw evaluators f(n, rows, cols, dout, din): True flags, and an int other
# than False also certifies the subdigraphs that hold its arcs.
_EVALUATORS = {
    "no_hc": _eval_no_hc,
    "no_prehc": _eval_no_prehc,
    "no_bypass": _eval_no_bypass,
    "no_dnk": _eval_no_dnk,
    "lemma5": _eval_lemma5,
    "lemma7_sweep": _lemma7_keep,
}


# ---------------------------------------------------------------------------
# Sampled scanning
# ---------------------------------------------------------------------------

_BUDGET = 112 * 1024  # bytes of the block-wide constants of one _packing


def _mix(seed: int, chunk_index: int) -> int:
    return (seed * 0x9E3779B97F4A7C15 + chunk_index) & ((1 << 64) - 1)


def _chunk_masks(task: EnumerationTask, chunk_index: int) -> list[int]:
    """The seeded draws of chunk `chunk_index` of a sampled task."""
    bits = mask_bits(task.n)
    start = chunk_index * SAMPLE_CHUNK
    count = min(SAMPLE_CHUNK, task.sample_count - start)
    rng = Random(_mix(task.seed, chunk_index))
    if task.model == "dense":  # draw i is the union of draws 2i and 2i + 1
        draws = map(rng.getrandbits, repeat(bits, 2 * count))
        return list(map(int.__or__, draws, draws))
    return list(map(rng.getrandbits, repeat(bits, count)))


def _moves(pairs) -> dict[int, int]:
    """{offset: mask} steps moving bit src of one lane to bit dst, for the
    (src, dst) `pairs`: one per offset."""
    groups: dict[int, int] = {}
    for src, dst in pairs:
        groups[dst - src] = groups.get(dst - src, 0) | 1 << src
    return groups


def _move(x: int, moves) -> int:
    moved = 0
    for k, m in moves:  # | is cheaper than + on long integers
        moved |= (x & m) << k if k >= 0 else (x & m) >> -k
    return moved


@lru_cache(maxsize=8)
def _packing(n: int, model: str):
    """(width, per, draw, rows, cols, fields, span, guard, marks): a block
    packs up to `per` draws in lanes of `width` bits. getrandbits(b) takes
    w = ceil(b / 32) words and shifts the last right by -b % 32, so one
    getrandbits(32 * w * per) holds per draws, which `draw` moves into
    place (a dense lane holds two, which `draw` ORs). `rows` and `cols`
    move the arcs out of and into each vertex to a field of `stride` bits
    whose lowest bit `fields` marks; a count plus 2^guard - t, t clamped to
    [0, 2^guard], has bit `guard` set iff it is at least t (TAOCP 4A,
    7.1.3). `marks` sets the free bit n * stride < width of every lane.
    `per` is the most lanes, at most SAMPLE_CHUNK, for which these
    block-wide constants, one of `width * per` bits per move and one each
    for `fields` and `marks`, fit in _BUDGET bytes."""
    bits = mask_bits(n)
    words = -(-bits // 32)
    width = 32 * max(words, 1) << (model == "dense")
    top = 32 * (words - 1)
    starts = [(p + (-bits % 32) * (p >= top), p) for p in range(bits)]  # in getrandbits' lane
    halves = (0, width // 2) if model == "dense" else (0,)
    span = n - 1
    guard = span.bit_length()
    stride = max(span, guard + 1)
    arcs = [(u, v) for u in range(n) for v in range(n) if v != u]  # in mask bit order
    draw = _moves([(h + src, dst) for h in halves for src, dst in starts])
    rows = _moves([(p, p + u * (stride - span)) for p, (u, v) in enumerate(arcs)])
    cols = _moves([(p, v * stride + u - (u > v)) for p, (u, v) in enumerate(arcs)])
    per = min(SAMPLE_CHUNK, 8 * _BUDGET // ((len(draw) + len(rows) + len(cols) + 2) * width))
    lanes = ((1 << width * per) - 1) // ((1 << width) - 1)  # bit 0 of every lane
    draw, rows, cols = (tuple((k, m * lanes) for k, m in ms.items()) for ms in (draw, rows, cols))
    fields = sum(1 << v * stride for v in range(n)) * lanes
    return width, per, draw, rows, cols, fields, span, guard, (1 << n * stride) * lanes


def _chunk_blocks(task: EnumerationTask, chunk_index: int):
    """Yield the draws of chunk `chunk_index` as (block, lanes) pairs, packed
    as _packing says (a full uniform chunk is two blocks at n = 6, 41 at
    n = 16): lane for lane the masks of _chunk_masks."""
    width, per, draw = _packing(task.n, task.model)[:3]
    count = min(SAMPLE_CHUNK, task.sample_count - chunk_index * SAMPLE_CHUNK)
    rng = Random(_mix(task.seed, chunk_index))
    for start in range(0, count, per):
        lanes = min(per, count - start)
        raw = rng.getrandbits(lanes * width) if draw else 0  # at n = 1 nothing is drawn
        yield _move(raw, draw), lanes


def _screen(n: int, model: str, floors: tuple[int, int], blocks):
    """Yield, in lane order, the masks packed in `blocks` ((block, lanes)
    pairs as _packing(n, model) says) that have every out-degree at least
    floors[0] and every in-degree at least floors[1]: a few dozen
    whole-block steps, then one bytes.find per survivor."""
    width, per, _, rows, cols, fields, span, guard, marks = _packing(n, model)
    top = 1 << guard
    sides = [(m, fields * (top - min(t, top))) for m, t in zip((rows, cols), floors) if t > 0]
    size = width // 8
    low = (marks & -marks).bit_length() - 1  # the bit of a lane that holds its mark
    for block, lanes in blocks:
        ok = -1
        for moves, offset in sides:
            x = _move(block, moves)
            ok &= sum(((x >> i) & fields for i in range(span)), offset)
        clear = marks - (~ok >> guard & fields) & marks  # a lane keeps its mark iff it missed none
        keep = (clear >> low).to_bytes(per * size, "little")  # byte i * size: 1 iff lane i is kept
        data = block.to_bytes(lanes * size, "little")
        i = -size
        while (i := keep.find(1, i + size, lanes * size)) >= 0:
            yield int.from_bytes(data[i : i + size], "little")


def _scan_chunk(task: EnumerationTask, floors, decode, filters, flag, chunk_index: int):
    """(draws, survivors, flagged masks) of one chunk, run as _plan says:
    with a degree floor (out, in) > 0, _screen drops the draws below it in
    packed blocks before any is decoded. A floor-free chunk is drawn by
    _chunk_masks, as _screen at floors (0, 0) would slow its scan by about
    45% (n = 5, 4096 uniform draws in two blocks, 2-CPU Xeon, Python 3.11:
    0.10 ms against 1.25 ms to draw, 2.5 ms to decode)."""
    n = task.n
    count = min(SAMPLE_CHUNK, task.sample_count - chunk_index * SAMPLE_CHUNK)
    if any(floors):
        masks = _screen(n, task.model, floors, _chunk_blocks(task, chunk_index))
    else:
        masks = _chunk_masks(task, chunk_index)
    passed = 0
    hits: list[int] = []
    for mask in masks:
        rows, cols, dout, din = decode(mask)
        for f in filters:
            if not f(n, rows, cols, dout, din):
                break
        else:
            passed += 1
            if flag is not None and flag(n, rows, cols, dout, din) is True:
                hits.append(mask)
    return count, passed, hits


@dataclass(frozen=True)
class ScanResult:
    scanned: int
    passed_filters: int
    flagged: tuple[int, ...] = ()


def _worker_count(explicit: int | None) -> int:
    """`explicit`, else HAMBYPASS_THREADS, else min(4, CPUs): the processes
    that scan, the caller included; a given count must be an int >= 1."""
    if explicit is not None:
        return _check_int(explicit, "workers", 1)
    env = os.environ.get("HAMBYPASS_THREADS")
    if env:
        try:
            return _check_int(int(env), "HAMBYPASS_THREADS", 1)
        except ValueError:
            raise ValueError(f"HAMBYPASS_THREADS must be an integer >= 1, got {env!r}") from None
    return min(4, os.cpu_count() or 1)


def enumerate_digraphs(
    task: EnumerationTask,
    visitor: Callable[[int], None] | None = None,
    workers: int | None = None,
) -> ScanResult:
    """Run the scan. It reports the masks the task's evaluator flags, or
    every filter survivor on a visitor scan with no evaluator. Reported
    masks go to the visitor if there is one, else into the result's
    `flagged`, which a visitor scan leaves empty. They come in draw order
    on a sampled scan, class by class in walk order on an exhaustive one,
    ascending within each class but not overall.

    An exhaustive scan runs on the class walk (_scan_classes) and expands
    each class to its labelings as it arrives: one process whatever
    `workers` says, no progress lines, and one class's labelings (at most
    n!) held at a time beyond the flagged tuple. A sampled scan is
    _scan_sampled, split over the caller and forked children, with a
    progress line on stderr every 2^20 digraphs.
    """
    flagged: list[int] = []
    sink = flagged.append if visitor is None else visitor
    if task.mode == "exhaustive":  # the walk hands over one orbit-least mask per class
        sink = partial(_labelings, task.n, sink)
    scanned, passed = _scan(task, sink, workers, visitor is not None)
    return ScanResult(scanned, passed, tuple(flagged))


def _scan(task: EnumerationTask, sink, workers: int | None, visitor: bool = False):
    """(scanned, passed_filters) of `task` on the engine its mode picks;
    each mask the plan's flag picks goes to `sink` as the engine reaches
    it. A bad HAMBYPASS_THREADS fails either engine."""
    nworkers = _worker_count(workers)
    if task.mode == "sample":
        return _scan_sampled(task, sink, nworkers, visitor)
    return _scan_classes(task, sink, visitor)


def _scan_sampled(task: EnumerationTask, sink, workers: int, visitor: bool):
    """_scan on a sampled task: process i % `workers` scans chunk i.
    Process 0 is the caller; each other is a forked child that pickles its
    chunks' results, or its exception, down a pipe. Results are absorbed,
    hits sent to `sink`, in chunk order, and no child outlives the scan."""
    nchunks = (task.sample_count + SAMPLE_CHUNK - 1) // SAMPLE_CHUNK
    nworkers = min(workers, nchunks)
    scanned = 0
    passed = 0
    floors, filters, flag = _plan(task, visitor)
    ctx = task, floors, _decoder(task.n), [f for f, _ in filters], flag
    procs = [None]  # (pid, pipe) of child k at index k
    if nworkers > 1:
        import pickle, signal  # loaded only by a scan that forks: 1.3 ms of a cold start
    try:
        for k in range(1, nworkers):
            r, w = os.pipe()
            if (pid := os.fork()) == 0:  # child k: chunks k, k + nworkers, ...
                try:
                    out = open(w, "wb")
                    for i in range(k, nchunks, nworkers):
                        pickle.dump(_scan_chunk(*ctx, i), out)
                        out.flush()
                except BaseException as exc:
                    pickle.dump(exc, out)
                    out.flush()
                finally:
                    os._exit(0)
            os.close(w)
            procs.append((pid, open(r, "rb")))
        for i in range(nchunks):
            k = i % nworkers
            part = pickle.load(procs[k][1]) if k else _scan_chunk(*ctx, i)
            if isinstance(part, BaseException):
                raise part
            cscanned, cpassed, hits = part
            before = scanned
            scanned += cscanned
            passed += cpassed
            for mask in hits:
                sink(mask)
            if scanned // _PROGRESS_STEP != before // _PROGRESS_STEP:
                print(f"scanned {scanned}", file=sys.stderr, flush=True)
    except BaseException:
        for pid, _ in procs[1:]:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe in procs[1:]:
            pipe.close()
            os.waitpid(pid, 0)
    return scanned, passed


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExceptionRecord:
    canonical_hex: str
    witness: Digraph


@dataclass(frozen=True)
class TheoremReport:
    theorem: str
    n: int
    mode: str
    seed: int | None
    scanned: int
    passed_filters: int
    exceptions: tuple[ExceptionRecord, ...]
    verdict: str
    elapsed_ms: int

    def to_json_dict(self, include_elapsed: bool = True) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.seed is None:
            del doc["seed"]
        if not include_elapsed:
            del doc["elapsed_ms"]
        doc["exceptions"] = [
            {
                "canonical_hex": rec.canonical_hex,
                "witness": {
                    "n": rec.witness.n,
                    "m": rec.witness.m,
                    "arcs": [list(a) for a in rec.witness.arcs()],
                },
            }
            for rec in self.exceptions
        ]
        return doc


@lru_cache(maxsize=8)
def _relabelings(n: int):
    """Every non-identity relabeling p of n vertices as (order, image):
    order lists the pairs (w, p^-1(w)) for w = n-1 down to 0, and image maps
    an n-bit row to its image under p. The relabeled digraph's row w is
    image[rows[p^-1(w)]]."""
    out = []
    for perm in permutations(range(n)):
        if perm == tuple(range(n)):
            continue
        order = tuple((w, perm.index(w)) for w in reversed(range(n)))
        image = tuple(
            sum(1 << perm[v] for v in range(n) if (row >> v) & 1) for row in range(1 << n)
        )
        out.append((order, image))
    return tuple(out)


def _labelings(n: int, sink, mask: int) -> None:
    """Hand `sink`, ascending, the arc masks of every relabeling of the
    digraph `mask`, itself included: n!/|Aut| masks. The rows are packed
    inline as mask_of packs them; a helper call per relabeling doubles
    the cost of the expansion."""
    rows = _decoder(n)(mask)[0]
    width = n - 1
    out = {mask}
    for order, image in _relabelings(n):
        m = 0
        for w, v in order:
            r = image[rows[v]]
            m |= (((r >> (w + 1)) << w) | (r & ((1 << w) - 1))) << (w * width)
        out.add(m)
    for m in sorted(out):
        sink(m)


def _orbit_least(n: int, rows: list[int]) -> int:
    """0 if some relabeling of the digraph with out-rows `rows` gives a
    smaller arc mask, else the order of its automorphism group: 1 plus the
    relabelings that fix every row. Masks compare as their rows from n-1
    down, each row as an n-bit integer."""
    aut = 1
    for order, image in _relabelings(n):
        for w, v in order:
            a = image[rows[v]]
            b = rows[w]
            if a != b:
                if a < b:
                    return 0
                break
        else:
            aut += 1
    return aut


def _dedupe(n: int, flagged: Iterable[int]) -> tuple[ExceptionRecord, ...]:
    """One record per isomorphism class of the flagged masks, sorted by key,
    whose witness is the class's first flagged mask. Class generation flags
    one mask per class, the least of its orbit. Beyond the exact canonical
    form the key is the labelled mask, so exceptions there are deduped by
    labelled digraph only; the claims' allowed-exception predicates
    recognize structure, not keys."""
    seen: dict[str, Digraph] = {}
    for mask in flagged:
        g = digraph_from_mask(n, mask)
        key = canonical_form(g).hex if n <= CANON_MAX_N else "raw:" + format(mask, "x")
        seen.setdefault(key, g)
    return tuple(ExceptionRecord(key, seen[key]) for key in sorted(seen))


# ---------------------------------------------------------------------------
# Class generation (exhaustive scans)
# ---------------------------------------------------------------------------


def _scan_classes(task: EnumerationTask, sink, visitor: bool = False):
    """_scan on an exhaustive task: one walk over the orbit-least mask of
    every isomorphism class that meets the plan's degree floors and passes
    its filters closed upward. The others, which ignore labels as every
    filter does, are checked on each walked class. Each class that passes
    counts n!/|Aut| passed digraphs, |Aut| from _orbit_least, and the
    plan's flag runs once on it and hands the class's least mask to `sink`
    if it flags; on a visitor scan with no evaluator every passing class is.

    Read's orderly generation, run downward from K*_n: the parent of an
    orbit-least mask m != K*_n is m | (lowest zero bit of m), which is again
    orbit-least and, the floors and filters being closed upward, passes them
    too. So the children of a node p are the masks p ^ b for each bit b
    below p's lowest zero bit that pass and are orbit-least, every class is
    reached once, and no seen-set is needed. A child lacks only the arc
    (u, v) of bit b, so it meets the floors iff p's dout[u] and din[v]
    exceed them; K*_n, every degree n - 1, is tested once. A child p ^ b
    inherits p's certificate unless bit b is in it, and a class that holds
    none takes the one its flag returns, if any. The child's descendants
    differ from it only below b, so with no filter, which counts no class
    as every digraph passes, it is pushed unless it inherits a certificate
    with no bit below b.
    """
    n = task.n
    floors, filters, flag = _plan(task, visitor)
    out_floor, in_floor = floors
    pruning = [f for f, closed in filters if closed]
    checks = [f for f, closed in filters if not closed]
    decode = _decoder(n)
    arcs = [(u, v) for u in range(n) for v in range(n) if v != u]  # in mask bit order
    labelings = factorial(n)
    passed = 0
    stack = [((1 << mask_bits(n)) - 1, None)] if max(floors) < n else []
    while stack:
        mask, keep = stack.pop()
        rows, cols, dout, din = decode(mask)
        for f in pruning:
            if not f(n, rows, cols, dout, din):
                break
        else:
            aut = _orbit_least(n, rows)
            if not aut:
                continue
            for f in checks:
                if not f(n, rows, cols, dout, din):
                    break
            else:
                passed += labelings // aut
                if flag is not None and keep is None:
                    if (hit := flag(n, rows, cols, dout, din)) is True:
                        sink(mask)
                    elif hit is not False:  # a certificate, or None
                        keep = hit
            for i in range((~mask & (mask + 1)).bit_length() - 1):
                u, v = arcs[i]
                if dout[u] > out_floor and din[v] > in_floor:
                    if keep is None or keep >> i & 1:
                        stack.append((mask ^ 1 << i, None))
                    elif keep & ((1 << i) - 1) or task.filters:
                        stack.append((mask ^ 1 << i, keep))
    scanned = 1 << mask_bits(n)
    return scanned, passed if task.filters else scanned


# ---------------------------------------------------------------------------
# Claim table
# ---------------------------------------------------------------------------


def _is_theorem8_family(g: Digraph) -> bool:
    """The extremal digraphs of thm8, recognized up to labels: the directed
    triangle at n = 3; from n = 4 the glued cliques d1; at n = 5 also T5 and
    every d0; at odd n >= 7 also d0 with part B empty or complete."""
    n = g.n
    if n == 3:
        return are_isomorphic(g, families.directed_cycle(3))
    if is_glued_cliques(g) or is_isomorphic_to_t5(g):
        return True
    kind = d0_inner_kind(g)
    return kind is not None and (n == 5 or kind != "explicit")


@dataclass(frozen=True)
class Claim:
    """Every digraph of order n >= min_n that passes `filters` has the
    structure whose absence the evaluator id (such as "no_dnk:3") flags,
    apart from the digraphs `allowed` accepts (None: no exception allowed).

    A claim takes a per-call parameter iff a filter id holds "{}", which
    stands for it there and in `label` (default: the table key). `params`
    lists its accepted values (empty: any): the first is the claim as stated
    and the default, the others are probes whose runs are report-only.
    """

    min_n: int
    filters: tuple[str, ...]
    evaluator: str
    allowed: Callable[[Digraph], bool] | None = None
    report_only: bool = False
    label: str = ""
    params: tuple = ()


CLAIMS = {
    # Strong plus a_k:0 forces a Hamiltonian cycle; no exception allowed.
    "thm6": Claim(3, ("a_k:0", "strong"), "no_hc"),
    # Strong plus degree_sum:-2 forces a bypass outside a short list of extremal families.
    "thm8": Claim(3, ("degree_sum:-2", "strong"), "no_bypass", allowed=_is_theorem8_family),
    # Strong plus meyniel forces a spanning reversed-tail pattern with k=3.
    "thm9": Claim(4, ("meyniel", "strong"), "no_dnk:3"),
    # Strong plus a_k:0 forces an (n-1)-cycle except balanced complete bipartite digraphs.
    "thm11": Claim(4, ("a_k:0", "strong"), "no_prehc", allowed=is_balanced_complete_bipartite),
    # Strong plus a_k:0 forces a Hamiltonian bypass except the one 5-vertex tournament.
    "thm12": Claim(4, ("a_k:0", "strong"), "no_bypass", allowed=is_isomorphic_to_t5),
    # thm13, min out-degree 2 and min in-degree 3 force a bypass; in-degree 2 probes an open case.
    "thm16": Claim(6, ("min_out:2", "min_in:{}", "thm13", "strong"), "no_bypass", params=(3, 2)),
    # Catalog of strong, bypass-free digraphs meeting a condition id; asserts nothing.
    "explore": Claim(1, ("{}", "strong"), "no_bypass", report_only=True, label="explore:{}"),
}


def run_claim(
    name: str,
    n: int,
    param=None,
    *,
    sample: int | None = None,
    seed: int | None = None,
    model: str = "uniform",
    workers: int | None = None,
) -> TheoremReport:
    """Scan the claim CLAIMS[name] at order n, over every labeled digraph or
    over `sample` seeded draws, and judge the deduplicated exceptions.
    `param` is the claim's per-call parameter.

    An exhaustive scan runs on the class walk: one process whatever
    `workers` says, and no progress lines. It dedupes the flagged class
    representatives as they are, without enumerate_digraphs' expansion to
    every labeling. A sampled scan runs on _scan_sampled. ValueError for an
    unknown claim, a missing, extra or unaccepted parameter, a task that
    EnumerationTask refuses, or n below the claim's min_n."""
    claim = CLAIMS.get(name) if isinstance(name, str) else None
    if claim is None:
        raise ValueError(f"unknown claim {name!r}; known: {', '.join(CLAIMS)}")
    takes_param = any("{}" in fid for fid in claim.filters)
    if param is None and claim.params:
        param = claim.params[0]
    if takes_param and param is None:
        raise ValueError(f"{name} needs a parameter")
    if param is not None and not takes_param:
        raise ValueError(f"{name} takes no parameter, got {param!r}")
    if claim.params and param not in claim.params:
        accepted = " or ".join(map(str, sorted(claim.params)))
        raise ValueError(f"{name} takes {accepted}, got {param!r}")
    mode = "exhaustive" if sample is None else "sample"
    filters = tuple(fid.format(param) for fid in claim.filters)
    task = EnumerationTask(n, mode, filters, sample or 0, seed, model, claim.evaluator)
    if n < claim.min_n:
        raise ValueError(f"{name} needs n >= {claim.min_n}")

    t0 = time.monotonic()
    flagged: list[int] = []
    scanned, passed = _scan(task, flagged.append, workers)
    exceptions = _dedupe(n, flagged)
    allowed = claim.allowed
    if claim.report_only or param in claim.params[1:]:
        verdict = "report-only"
    elif all(allowed is not None and allowed(rec.witness) for rec in exceptions):
        verdict = "confirmed"
    else:
        verdict = "counterexample-found"
    return TheoremReport(
        theorem=(claim.label or name).format(param),
        n=n,
        mode=task.mode_label,
        seed=task.seed,
        scanned=scanned,
        passed_filters=passed,
        exceptions=exceptions,
        verdict=verdict,
        elapsed_ms=int((time.monotonic() - t0) * 1000),
    )


# The public drivers, one per CLAIMS row: run_claim with the claim name bound.
check_theorem6 = partial(run_claim, "thm6")
check_theorem8 = partial(run_claim, "thm8")
check_theorem9 = partial(run_claim, "thm9")
check_theorem11 = partial(run_claim, "thm11")
check_theorem12 = partial(run_claim, "thm12")
check_theorem16_conjecture = partial(run_claim, "thm16")
explore_no_bypass = partial(run_claim, "explore")
