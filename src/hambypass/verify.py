"""Exhaustive and sampled enumeration of labeled digraphs, plus the theorem
verification drivers built on top of it.

A labeled digraph on n vertices is encoded as an n(n-1)-bit arc mask: arc
(u, v) occupies bit u*(n-1) + (v if v < u else v - 1), so each vertex's
out-row is a contiguous field. Each mask is decoded into rows, columns and
degrees by one straight-line function generated per order (_decoder), the
scan's costliest step.

Filters are condition identifiers (see conditions.resolve) plus the scan
extras "strong", "min_out:<t>" and "min_in:<t>"; they short-circuit in the
order given. An optional evaluator runs on filter survivors and flags
exceptions: "no_hc", "no_prehc", "no_bypass", "no_dnk:<k>", "lemma5" and
"lemma7_sweep". Ids rather than callables cross the process boundary.

Both scan engines run what _plan makes of a task's ids: min_out and min_in
become degree floors, one packed-counter test (_floor_test) that opens the
decoder and that sampled scans run over each chunk before decoding; strong
adds floors of 1 from n = 2 on and still runs; the other filters keep their
order and say whether they are closed upward (adding an arc never makes
one fail); and one flag predicate picks the masks a scan reports.

Exhaustive scans generate one orbit-least mask per isomorphism class,
downward from K*_n, pruned by the degree floors and the filters that are
closed upward. The other filters and the flag run once per generated
class, and each class that passes counts its n!/|Aut| labelings. These
scans run on one process whatever the worker count and print no progress
lines. run_claim dedupes the flagged class representatives directly;
enumerate_digraphs expands each flagged class, or with a visitor each
passing class, to all of its labelings in ascending mask order. Sampled
scans split their seeded draws into fixed-size chunks processed by a worker
pool; chunk boundaries never depend on the worker count and partial results
are merged in chunk order, so reports are bit-identical whatever the
parallelism.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import permutations, repeat
from math import factorial
from random import Random
from typing import Callable, Iterable

from . import conditions, families
from .digraph import MAX_N, Digraph, _check_order, _strong_raw
from .insertion import _lemma7_raw
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
    n = g.n
    mask = 0
    for u in range(n):
        r = g.rows[u]
        raw = ((r >> (u + 1)) << u) | (r & ((1 << u) - 1))
        mask |= raw << (u * (n - 1))
    return mask


@lru_cache(maxsize=8)
def _tables(n: int):
    """Per-order decode tables.

    EXPAND[u][raw] is the n-bit out-row (diagonal bit reinserted as 0);
    SPREAD[u][raw] packs the same arcs column-wise into n-bit lanes (arc
    u->v is bit n*v + u), so the transpose of a whole mask is one sum of n
    table entries. COUNT[j][x] holds the _floor_test counters of the arcs
    that x holds among bits 10j.. of a mask.
    """
    expand = []
    spread = []
    for u in range(n):
        heads = [v for v in range(n) if v != u]
        e_u = [0]
        s_u = [0]
        # Each entry is the entry without raw's lowest bit, plus that arc.
        for raw in range(1, 1 << (n - 1)):
            low = raw & -raw
            v = heads[low.bit_length() - 1]
            e_u.append(e_u[raw ^ low] | 1 << v)
            s_u.append(s_u[raw ^ low] | 1 << (n * v + u))
        expand.append(tuple(e_u))
        spread.append(tuple(s_u))
    width = n.bit_length() + 1
    arcs = [(1 << width * u) + (1 << width * (n + v)) for u in range(n) for v in range(n) if v != u]
    count = []
    for j in range(0, len(arcs), 10):
        c_j = [0]
        for arc in arcs[j : j + 10]:  # the entries with this bit set follow those without
            c_j += [c + arc for c in c_j]
        count.append(tuple(c_j))
    return tuple(expand), tuple(spread), tuple(count)


def _floor_test(n: int, out_floor: int, in_floor: int) -> str:
    """Source of the test that `mask` has every out-degree at least
    out_floor and every in-degree at least in_floor (both >= 0; "" if both
    are 0). Lanes of w = n.bit_length() + 1 bits count the arcs out of u
    (lane u) and into v (lane n + v), summed from one _tables(n) COUNT
    entry per 10-bit slice. Adding G - t to a lane of floor t, G = 2^(w-1)
    > n - 1 and t clamped to [0, G], sets its bit G iff its count is at
    least t: one sum and one mask test every floor (TAOCP 4A, 7.1.3)."""
    if not (out_floor or in_floor):
        return ""
    width = n.bit_length() + 1
    guard = 1 << (width - 1)
    lanes = [min(out_floor, guard)] * n + [min(in_floor, guard)] * n
    offset = sum((guard - t) << (width * i) for i, t in enumerate(lanes))
    guards = sum(guard << (width * i) for i in range(2 * n))
    last = (mask_bits(n) - 1) // 10
    terms = [
        f"C{j}[{f'mask >> {10 * j}' if j else 'mask'}{' & 1023' if j < last else ''}]"
        for j in range(last + 1)
    ]
    return " + ".join([*terms, str(offset)]) + f" & {guards} == {guards}"


def _decoder(n: int, out_floor: int = 0, in_floor: int = 0):
    """decode(mask) -> (rows, cols, dout, din) for order n, as fresh lists;
    None if an out-degree is below out_floor or an in-degree below in_floor.

    A straight-line function generated from integers and the _tables(n)
    entries: after the _floor_test of both floors, it reads each row's
    field once, sums the SPREAD entries into packed columns and splits them
    into n-bit lanes, with no loop or comprehension frames.
    """
    return _generate_decoder(n, max(0, out_floor), max(0, in_floor))[0]


@lru_cache(maxsize=16)
def _generate_decoder(n: int, out_floor: int, in_floor: int):
    """(decode, screen) from one generated source, for floors >= 0: the
    _decoder, and screen(masks), the masks that pass the decoder's
    _floor_test in order by one comprehension (masks itself without one)."""
    expand, spread, count = _tables(n)
    width = n - 1
    field = (1 << width) - 1
    lane = (1 << n) - 1
    us = range(n)
    test = _floor_test(n, out_floor, in_floor)
    src = "\n    ".join(
        [
            "def decode(mask):",
            *([f"if not ({test}): return None"] if test else []),
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
    screen = f"[mask for mask in masks if {test}]" if test else "masks"
    src += f"\ndef screen(masks):\n    return {screen}"
    namespace = {f"E{u}": expand[u] for u in us} | {f"S{u}": spread[u] for u in us}
    namespace |= {f"C{j}": c_j for j, c_j in enumerate(count)}
    exec(src, namespace)
    return namespace["decode"], namespace["screen"]


def digraph_from_mask(n: int, mask: int) -> Digraph:
    """The digraph of arc mask `mask`: OrderError for an order outside
    [1, MAX_N], ValueError for a mask outside [0, 2^(n(n-1)))."""
    _check_order(n)
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
    colon ("min_in:3", "no_dnk:3"), so tasks stay picklable. n,
    sample_count and seed (unless None) must be integers, not bools; every
    id is checked by building the task's plan (_plan), which generates no
    decoder.
    """

    n: int
    mode: str = "exhaustive"
    filters: tuple[str, ...] = ()
    sample_count: int = 0
    seed: int | None = None
    model: str = "uniform"
    evaluator: str | None = None

    def __post_init__(self):
        if type(self.n) is not int or self.n < 1:  # type(True) is bool, not int
            raise ValueError(f"order must be a positive integer, got {self.n!r}")
        if type(self.sample_count) is not int or type(self.seed) not in (int, type(None)):
            raise ValueError(f"bad sample_count {self.sample_count!r} or seed {self.seed!r}")
        if self.mode == "exhaustive":
            if self.n > EXHAUSTIVE_MAX_N:
                raise ValueError(
                    f"exhaustive scan at n={self.n} refused (limit {EXHAUSTIVE_MAX_N})"
                )
            if self.seed is not None or self.model != "uniform" or self.sample_count:
                raise ValueError("seed, model and sample_count apply only to a sampled scan")
        elif self.mode == "sample":
            if self.n > MAX_N:
                raise ValueError(f"sampling supports n <= {MAX_N}")
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


def _plan(task: EnumerationTask, visitor: bool = False):
    """(decoder, filters, flag), what both scan engines run for `task`; a
    bad id is a ValueError. Every predicate is f(n, rows, cols, dout, din).

    decoder() generates the order's decoder with the degree floors, so a
    task checks its ids without generating one. min_out:<t> and min_in:<t>
    are floors only; the largest t wins. A strong digraph of order n >= 2
    has every degree at least 1, so strong adds floors of 1 and still runs.
    The other filters are (raw predicate, closed upward) pairs in task
    order. The flag picks the survivors a scan reports: all on a visitor
    scan, else those the evaluator flags, or none if it is None."""
    n = task.n
    one = int("strong" in task.filters and n >= 2)
    floors = {"min_out": one, "min_in": one}
    filters = []
    for fid in task.filters:
        name, _, param = fid.partition(":")
        if name in floors:
            try:
                floors[name] = max(floors[name], conditions.id_int(param))
            except ValueError:
                raise ValueError(f"bad filter id {fid!r}: integer threshold required")
        elif name == "strong":
            if param:
                raise ValueError("filter 'strong' takes no parameter")
            filters.append((lambda n, rows, cols, dout, din: _strong_raw(n, rows, cols), True))
        else:
            cond = conditions.resolve(fid)
            filters.append((cond.raw, cond.upward_closed))
    name, _, param = (task.evaluator or "").partition(":")
    flag = _EVALUATORS.get(name)
    if task.evaluator is not None and flag is None:
        raise ValueError(f"unknown evaluator {task.evaluator!r}")
    if name == "no_dnk":
        try:
            k = conditions.id_int(param)
        except ValueError:
            raise ValueError(f"evaluator 'no_dnk' needs an integer k, got {param or None!r}")
        families.bypass_pattern(n, k)  # raises DigraphError on a bad n or k
        flag = partial(flag, k)
    elif param:
        raise ValueError(f"evaluator {name!r} takes no argument, got {param!r}")
    if visitor:
        flag = lambda n, rows, cols, dout, din: True
    return partial(_decoder, n, floors["min_out"], floors["min_in"]), filters, flag


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


def _eval_lemma7_sweep(n, rows, cols, dout, din) -> bool:
    """Flag any bypass-free digraph that breaks a bypass-free consequence:
    an (n-1)-cycle failing a lemma7 clause, or a good cycle (which would
    force a bypass).

    Each (n-1)-cycle is settled on its own: a cycle that is not good and
    passes every clause moves on to the next. For a cycle that fails,
    search._cycle_bypass_raw reads a bypass off the cycle and its off vertex
    where it can, which clears the digraph; only if it finds none does the
    full bypass search decide. So a digraph is cleared by a bypass built
    from its arcs or by every cycle passing, and Lemma 7 is never assumed."""
    if n < 4:
        return False
    total = n * (n - 1) // 2
    for cyc in _cycles_raw(rows, cols, (1 << n) - 1, n - 1):
        y = total - sum(cyc)  # the one vertex the cycle misses
        if dout[y] + din[y] < n and all(_lemma7_raw(n, rows, cols, cyc, y)):
            continue
        if _cycle_bypass_raw(rows, cols, cyc, y) is not None:
            return False
        return _bypass_raw(n, rows, cols) is None
    return False


_EVALUATORS = {
    "no_hc": _eval_no_hc,
    "no_prehc": _eval_no_prehc,
    "no_bypass": _eval_no_bypass,
    "no_dnk": _eval_no_dnk,
    "lemma5": _eval_lemma5,
    "lemma7_sweep": _eval_lemma7_sweep,
}


# ---------------------------------------------------------------------------
# Sampled scanning
# ---------------------------------------------------------------------------

_CTX: tuple | None = None  # the _scan_chunk arguments pool workers inherit


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


def _scan_chunk(task: EnumerationTask, screen, decode, filters, flag, chunk_index: int):
    """(draws, survivors, flagged masks) of one chunk, run as _plan says:
    `screen` drops the draws below a degree floor before any is decoded."""
    n = task.n
    masks = _chunk_masks(task, chunk_index)
    passed = 0
    hits: list[int] = []
    for mask in screen(masks):
        rows, cols, dout, din = decode(mask)
        for f in filters:
            if not f(n, rows, cols, dout, din):
                break
        else:
            passed += 1
            if flag is not None and flag(n, rows, cols, dout, din):
                hits.append(mask)
    return len(masks), passed, hits


def _pool_chunk(chunk_index: int):
    """_scan_chunk in a pool worker, on the arguments it inherited."""
    return _scan_chunk(*_CTX, chunk_index)


@dataclass(frozen=True)
class ScanResult:
    scanned: int
    passed_filters: int
    flagged: tuple[int, ...] = ()


def _worker_count(explicit: int | None) -> int:
    if explicit is not None:
        return max(1, explicit)
    env = os.environ.get("HAMBYPASS_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"HAMBYPASS_THREADS must be an integer, got {env!r}")
    return min(4, os.cpu_count() or 1)


def enumerate_digraphs(
    task: EnumerationTask,
    visitor: Callable[[int], None] | None = None,
    workers: int | None = None,
) -> ScanResult:
    """Run the scan. With a visitor, every filter survivor's mask is passed
    to it and no evaluator may be set; otherwise survivors feed the task's
    evaluator and flagged masks come back in the result. Masks come in
    ascending order on an exhaustive scan, in draw order on a sampled one.

    An exhaustive scan runs on the class generator (_scan_classes) and
    expands each flagged class, or with a visitor each passing class, to
    all of its labelings: one process whatever `workers` says, no progress
    lines, and a visitor's masks are all held before the first is visited.
    A sampled scan is _scan_sampled, which prints a progress line to stderr
    every 2^20 digraphs.
    """
    if visitor is not None and task.evaluator is not None:
        raise ValueError("visitor and evaluator are mutually exclusive")
    if task.mode == "sample":
        return _scan_sampled(task, visitor, workers)
    _worker_count(workers)  # a bad HAMBYPASS_THREADS fails on either path
    res = _scan_classes(task, visitor is not None)
    masks = sorted(m for rep in res.flagged for m in _labelings(task.n, rep))
    if visitor is None:
        return ScanResult(res.scanned, res.passed_filters, tuple(masks))
    for mask in masks:
        visitor(mask)
    return ScanResult(res.scanned, res.passed_filters)


def _scan_sampled(
    task: EnumerationTask,
    visitor: Callable[[int], None] | None = None,
    workers: int | None = None,
) -> ScanResult:
    """enumerate_digraphs on a sampled task: fixed-size chunks on a fork
    pool of `workers` processes, merged in chunk order. The one-process
    path passes its arguments on, so a scan started from a visitor cannot
    swap them under the outer one."""
    global _CTX
    nchunks = (task.sample_count + SAMPLE_CHUNK - 1) // SAMPLE_CHUNK
    nworkers = min(_worker_count(workers), nchunks)
    scanned = 0
    passed = 0
    flagged: list[int] = []

    def absorb(part):
        nonlocal scanned, passed
        cscanned, cpassed, hits = part
        before = scanned
        scanned += cscanned
        passed += cpassed
        if visitor is not None:
            for mask in hits:
                visitor(mask)
        else:
            flagged.extend(hits)
        if scanned // _PROGRESS_STEP != before // _PROGRESS_STEP:
            print(f"scanned {scanned}", file=sys.stderr, flush=True)

    decoder, filters, flag = _plan(task, visitor is not None)
    screen = _generate_decoder(*decoder.args)[1]  # the chunk screen; the floors are >= 0
    ctx = task, screen, _decoder(task.n), [f for f, _ in filters], flag
    if nworkers == 1:
        for i in range(nchunks):
            absorb(_scan_chunk(*ctx, i))
    else:
        import multiprocessing

        _CTX = ctx  # set in the parent, so every worker inherits the decoder
        with multiprocessing.get_context("fork").Pool(nworkers) as pool:
            for part in pool.imap(_pool_chunk, range(nchunks)):
                absorb(part)
    return ScanResult(scanned, passed, tuple(flagged))


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
        doc: dict = {"theorem": self.theorem, "n": self.n, "mode": self.mode}
        if self.seed is not None:
            doc["seed"] = self.seed
        doc["scanned"] = self.scanned
        doc["passed_filters"] = self.passed_filters
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
        doc["verdict"] = self.verdict
        if include_elapsed:
            doc["elapsed_ms"] = self.elapsed_ms
        return doc


def _canonical_key(g: Digraph) -> str:
    # Beyond the exact-canonicalization bound the raw adjacency stands in, so
    # exceptions there are deduped by labelled digraph only; the claims'
    # allowed-exception predicates recognize structure, not keys.
    if g.n <= CANON_MAX_N:
        return canonical_form(g).hex
    return "raw:" + format(mask_of(g), "x")


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


def _labelings(n: int, mask: int) -> set[int]:
    """The arc masks of every relabeling of the digraph `mask`, itself
    included: n!/|Aut| masks. The rows are packed inline as mask_of packs
    them; a helper call per relabeling doubles the cost of the expansion."""
    rows = _decoder(n)(mask)[0]
    width = n - 1
    out = {mask}
    for order, image in _relabelings(n):
        m = 0
        for w, v in order:
            r = image[rows[v]]
            m |= (((r >> (w + 1)) << w) | (r & ((1 << w) - 1))) << (w * width)
        out.add(m)
    return out


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
    one mask per class, the least of its orbit."""
    seen: dict[str, Digraph] = {}
    for mask in flagged:
        g = digraph_from_mask(n, mask)
        seen.setdefault(_canonical_key(g), g)
    return tuple(ExceptionRecord(key, seen[key]) for key in sorted(seen))


# ---------------------------------------------------------------------------
# Class generation (exhaustive scans)
# ---------------------------------------------------------------------------


def _classes(n: int, decode: Callable, filters: list[Callable]):
    """Yield (mask, aut, rows, cols, dout, din) for the orbit-least mask of
    every isomorphism class that `decode`, a _decoder(n, ...), accepts and
    that passes `filters`; the degree floors and the filters must all be
    closed upward. aut is the order of the class's automorphism group.

    Read's orderly generation, run downward from K*_n: the parent of an
    orbit-least mask m != K*_n is m | (lowest zero bit of m), which is again
    orbit-least and, the filters being closed upward, passes them too. So
    the children of a node p are the masks p ^ b for each bit b below p's
    lowest zero bit that pass the filters and are orbit-least, every class
    is reached once, and no seen-set is needed.
    """
    stack = [(1 << mask_bits(n)) - 1]
    while stack:
        mask = stack.pop()
        if (decoded := decode(mask)) is None:  # below a degree floor
            continue
        rows, cols, dout, din = decoded
        if not all(f(n, rows, cols, dout, din) for f in filters):
            continue
        aut = _orbit_least(n, rows)
        if not aut:
            continue
        yield mask, aut, rows, cols, dout, din
        low = ~mask & (mask + 1)
        b = 1
        while b < low:
            stack.append(mask ^ b)
            b <<= 1


def _scan_classes(task: EnumerationTask, visitor: bool = False) -> ScanResult:
    """The exhaustive scan of a task, one digraph per class. The plan's
    degree floors and its filters closed upward prune the generator; the
    others, which ignore labels as every filter does, are checked on each
    generated class. Each class that passes counts n!/|Aut| passed
    digraphs, and the plan's flag runs once on it and flags the class's
    least mask; on a visitor scan every passing class is flagged."""
    n = task.n
    decoder, filters, flag = _plan(task, visitor)
    pruning = [f for f, closed in filters if closed]
    checks = [f for f, closed in filters if not closed]
    labelings = factorial(n)
    passed = 0
    flagged = []
    for mask, aut, rows, cols, dout, din in _classes(n, decoder(), pruning):
        if not all(f(n, rows, cols, dout, din) for f in checks):
            continue
        passed += labelings // aut
        if flag is not None and flag(n, rows, cols, dout, din):
            flagged.append(mask)
    return ScanResult(1 << mask_bits(n), passed, tuple(flagged))


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

    An exhaustive scan runs on the class generator: one process whatever
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
    workers = _worker_count(workers)  # a bad HAMBYPASS_THREADS fails on either path

    t0 = time.monotonic()
    if task.mode == "exhaustive":
        result = _scan_classes(task)
    else:
        result = _scan_sampled(task, workers=workers)
    exceptions = _dedupe(n, result.flagged)
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
        scanned=result.scanned,
        passed_filters=result.passed_filters,
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
