"""Traced run: in-memory spans, the stage ladder and the public-API replay.

Spans are recorded only here, around calls into hambypass; nothing inside
the package is instrumented. A span has an id, a name, a start, an end and
the id of its parent span. The replay makes several public calls per mask,
so its calls are aggregated into one span per batch of BATCH masks that
carries per-layer call counts, busy time and found counts. Spans from the
replay processes use the same monotonic clock as the parent.

The stage ladder runs the workload's task with no filters, then with each
filter prefix in short-circuit order, then in full. A stage's self time is
its wall time minus the previous stage's, and its passed count gives the
exact rejections of the filter it adds.
"""

from __future__ import annotations

import multiprocessing
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, replace
from time import perf_counter

from hambypass import iso, verify
from workloads import (
    PUBLIC_EVALUATORS,
    Meter,
    Untimed,
    Workload,
    expected_answer,
    gate,
    layer_of,
    outcome_of_scan,
    public_filter,
)

BATCH = 1 << 14
FILTER_LAYERS = (
    "verify.min_degree",
    "digraph.strong",
    "conditions.a_k",
    "conditions.degree_sum",
    "conditions.thm13",
)
SEARCH_LAYERS = ("search.bypass", "search.prehc", "search.cycles", "insertion.lemma7")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    def _new(self, name: str, start: float, attrs: dict) -> dict:
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": start,
            "end": None,
            **attrs,
        }
        self.spans.append(rec)
        return rec

    @contextmanager
    def span(self, name: str, **attrs):
        rec = self._new(name, perf_counter(), attrs)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._open.pop()

    def add(self, name: str, start: float, end: float, **attrs) -> None:
        """A closed span, such as one aggregating a batch of calls."""
        self._new(name, start, attrs)["end"] = end

    def layer_totals(self, name: str) -> dict:
        """Sum the per-layer counters of every aggregated span `name`."""
        totals = defaultdict(lambda: defaultdict(float))
        for rec in self.spans:
            if rec["name"] == name:
                for layer, counters in rec["layers"].items():
                    for key, value in counters.items():
                        totals[layer][key] += value
        return totals


def wall(rec: dict) -> float:
    return rec["end"] - rec["start"]


class Replay:
    """Masks redone one by one through the object-level API."""

    def __init__(self, task: verify.EnumerationTask, meter=Meter):
        self.n = task.n
        self.checks = [(layer_of(fid), public_filter(fid)) for fid in task.filters]
        self.evaluate = PUBLIC_EVALUATORS[task.evaluator]
        # passed[i]: masks that pass the first i filters; passed[0] is scanned.
        self.passed = [0] * (len(self.checks) + 1)
        self.flagged: list[int] = []
        # (start, end, per-layer counters) of each batch of BATCH masks.
        self.batches: list[tuple[float, float, dict]] = []
        self._new_meter = meter
        self._meter = meter()
        self._batch_start = perf_counter()

    def run(self, masks) -> "Replay":
        for mask in masks:
            self.feed(mask)
        self.flush()
        return self

    def feed(self, mask: int) -> None:
        g = verify.digraph_from_mask(self.n, mask)
        self.passed[0] += 1
        for i, (layer, check) in enumerate(self.checks, 1):
            if not self._meter.time(layer, check, g):
                break
            self.passed[i] += 1
        else:
            if self.evaluate(g, self._meter):
                self.flagged.append(mask)
        if self.passed[0] % BATCH == 0:
            self.flush()

    def flush(self) -> None:
        m = self._meter
        layers = {
            layer: {"calls": m.calls[layer], "busy_s": m.busy[layer], "found": m.found[layer]}
            for layer in m.calls
        }
        now = perf_counter()
        self.batches.append((self._batch_start, now, layers))
        self._meter = self._new_meter()
        self._batch_start = now


def _replay_part(task: verify.EnumerationTask, masks: list[int]):
    rep = Replay(task).run(masks)
    return rep.passed, rep.flagged, rep.batches


@dataclass
class ReplayResult:
    n: int
    masks: list[int]
    passed: list[int]
    flagged: list[int]

    def flagged_graphs(self):
        return [verify.digraph_from_mask(self.n, mask) for mask in self.flagged]


def replay(task: verify.EnumerationTask, procs: int, tracer: Tracer) -> ReplayResult:
    """Redo the task's scan through the public API. The masks are the
    engine's own stream, taken from a visitor with no filters, and are
    replayed in `procs` contiguous slices by forked worker processes. Fork,
    unlike spawn, starts no resource-tracker process that would outlive the
    benchmark."""
    masks: list[int] = []
    with tracer.span("replay", procs=procs):
        verify.enumerate_digraphs(
            replace(task, filters=(), evaluator=None), visitor=masks.append, workers=procs
        )
        step = -(-len(masks) // procs)
        parts = [(task, masks[i : i + step]) for i in range(0, len(masks), step)]
        with multiprocessing.get_context("fork").Pool(len(parts)) as pool:
            results = pool.starmap(_replay_part, parts)
        for _, _, batches in results:
            for start, end, layers in batches:
                tracer.add("replay.batch", start, end, layers=layers)
    passed = [sum(counts) for counts in zip(*(r[0] for r in results))]
    return ReplayResult(task.n, masks, passed, [m for r in results for m in r[1]])


def trace_overhead(task: verify.EnumerationTask, masks: list[int], rounds: int = 3) -> float:
    """Replay wall time with per-call spans over the same replay without
    them, on the first BATCH masks; the fastest of `rounds` alternations."""
    head = masks[:BATCH]
    best = {Untimed: float("inf"), Meter: float("inf")}
    for _ in range(rounds):
        for meter in best:
            t0 = perf_counter()
            Replay(task, meter).run(head)
            best[meter] = min(best[meter], perf_counter() - t0)
    return best[Meter] / best[Untimed]


def audit(rungs, full, classes: set[str], rep: ReplayResult, out) -> list[str]:
    """Engine ladder and driver against the public-API replay."""
    problems = []
    engine = [passed for passed, _ in rungs]
    if engine != rep.passed:
        problems.append(f"ladder passed {engine} but public replay passed {rep.passed}")
    if list(full.flagged) != rep.flagged:
        problems.append(
            f"engine flagged {len(full.flagged)} masks, public replay {len(rep.flagged)}"
        )
    if (out.scanned, out.passed) != (rungs[0][0], full.passed_filters):
        problems.append(
            f"driver scanned/passed {out.scanned}/{out.passed}"
            f" but the ladder {rungs[0][0]}/{full.passed_filters}"
        )
    if sorted(classes) != list(out.classes):
        problems.append(f"driver classes differ from the ladder's {len(classes)} classes")
    return problems


def traced_run(wl: Workload, seed: int, workers: int, pool: int, frozen: dict):
    """A traced driver call, the stage ladder, the pool decode, canonical
    dedupe over the flagged masks and the public-API replay on `pool`
    processes.

    Returns (metrics, problems, tracer, human-readable lines).
    """
    task = wl.task(seed)
    tracer = Tracer()
    with tracer.span("run", workload=wl.name, seed=seed, workers=workers):
        if wl.driver is not None:
            with tracer.span("driver") as rec:
                out = wl.run(seed, workers)
            driver_s = wall(rec)

        rungs = []  # (passed, wall) per filter prefix
        for i in range(len(task.filters) + 1):
            stage = replace(task, filters=task.filters[:i], evaluator=None)
            with tracer.span("ladder", filters=list(stage.filters)) as rec:
                res = verify.enumerate_digraphs(stage, workers=workers)
            rungs.append((res.passed_filters, wall(rec)))
        with tracer.span("ladder", filters=list(task.filters), evaluator=task.evaluator) as rec:
            full = verify.enumerate_digraphs(task, workers=workers)
        full_s = wall(rec)
        if wl.driver is None:
            driver_s = full_s
            out = outcome_of_scan(task.n, full)

        scanned = rungs[0][0]
        pool_eff = 1.0
        if pool > 1:
            other = pool if workers == 1 else 1
            decode = replace(task, filters=(), evaluator=None)
            with tracer.span("decode", workers=other) as rec:
                verify.enumerate_digraphs(decode, workers=other)
            rate = {workers: scanned / rungs[0][1], other: scanned / wall(rec)}
            pool_eff = rate[pool] / (pool * rate[1])

        meter = Meter()
        with tracer.span("iso.dedupe") as rec:
            classes = {
                meter.time("iso.canonical", iso.canonical_form, verify.digraph_from_mask(task.n, m)).hex
                for m in full.flagged
            }
        rec.update(calls=meter.calls["iso.canonical"], busy_s=meter.busy["iso.canonical"])

        rep = replay(task, pool, tracer)
    overhead = trace_overhead(task, rep.masks)

    problems = audit(rungs, full, classes, rep, out)
    problems += gate(wl, seed, out, expected_answer(wl, seed, frozen, rep))

    m = {
        "verify.decode_graphs_per_s": scanned / rungs[0][1],
        "verify.pool_efficiency": pool_eff,
        "verify.report_s": driver_s - full_s,
        "search.evaluator_s": full_s - rungs[-1][1],
        "iso.canonical.calls": meter.calls["iso.canonical"],
        "iso.canonical.self_s": meter.busy["iso.canonical"],
        "iso.dedupe_ratio": len(classes) / len(full.flagged) if full.flagged else 0.0,
        "trace_overhead": overhead,
    }
    acc = {layer: {"calls": 0, "entering": 0, "rejected": 0, "self_s": 0.0} for layer in FILTER_LAYERS}
    for i, fid in enumerate(task.filters):
        (entering, t_in), (passing, t_out) = rungs[i], rungs[i + 1]
        rec = acc[layer_of(fid)]
        rec["entering"] = rec["entering"] or entering
        rec["calls"] += entering
        rec["rejected"] += entering - passing
        rec["self_s"] += t_out - t_in
    for layer, rec in acc.items():
        m[f"{layer}.calls"] = rec["calls"]
        m[f"{layer}.self_s"] = rec["self_s"]
        m[f"{layer}.reject_ratio"] = rec["rejected"] / rec["entering"] if rec["entering"] else 0.0
    totals = tracer.layer_totals("replay.batch")
    for layer in SEARCH_LAYERS:
        t = totals.get(layer, {})
        calls = int(t.get("calls", 0))
        m[f"{layer}.calls"] = calls
        m[f"{layer}.self_s"] = t.get("busy_s", 0.0)
        m[f"{layer}.found_ratio"] = t.get("found", 0) / calls if calls else 0.0

    lines = [f"ladder (workers={workers}):"]
    prev = 0.0
    for i, (passed, t) in enumerate(rungs):
        label = ",".join(task.filters[:i]) or "(decode only)"
        lines.append(f"  {label:<40} passed {passed:>9}  wall {t:8.3f} s  self {t - prev:8.3f} s")
        prev = t
    lines.append(
        f"  {'+ evaluator ' + str(task.evaluator):<40} flagged {len(full.flagged):>8}"
        f"  wall {full_s:8.3f} s  self {full_s - prev:8.3f} s"
    )
    # The stage self times telescope to the full rung's wall time.
    lines.append(
        f"ladder self times {full_s:.3f} s + verify.report_s {driver_s - full_s:.3f} s"
        f" = traced driver wall {driver_s:.3f} s"
    )
    lines.append(
        f"audit: ladder passed {[p for p, _ in rungs]}, replay passed {rep.passed};"
        f" engine flagged {len(full.flagged)}, replay flagged {len(rep.flagged)}"
        f" -> {'agree' if not problems else 'DISAGREE'}"
    )
    return m, problems, tracer, lines
