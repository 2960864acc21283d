"""The claim-scan workloads, their public-API replicas and the correctness gate.

Each workload is one whole claim scan through a public driver. Its task
(filters in short-circuit order, evaluator, sample spec) is restated here so
the traced run can rebuild the stage ladder and replay the same scan through
the object-level API; the traced run checks that the restated task and the
driver agree.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

from hambypass import conditions, iso, search, verify
from hambypass.digraph import Digraph, is_strong
from hambypass.insertion import lemma7_consequences

DEFAULT_SEED = 1
SAMPLE6_DRAWS = 10**6
FROZEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "frozen.json")


@dataclass(frozen=True)
class Outcome:
    """What a claim scan answers, reduced to the fields the gate compares."""

    scanned: int
    passed: int
    verdict: str | None
    classes: tuple[str, ...]
    witnesses: tuple[Digraph, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    seeded: bool
    task: Callable[[int], verify.EnumerationTask]
    # (seed, workers) -> TheoremReport; None means the driver is
    # enumerate_digraphs on `task` itself, with no report step.
    driver: Callable[[int, int], verify.TheoremReport] | None
    # Arguments of probe.py for the one-draw setup run.
    probe: Callable[[int], list[str]]

    def run(self, seed: int, workers: int) -> Outcome:
        if self.driver is None:
            task = self.task(seed)
            return outcome_of_scan(task.n, verify.enumerate_digraphs(task, workers=workers))
        r = self.driver(seed, workers)
        return Outcome(
            r.scanned,
            r.passed_filters,
            r.verdict,
            tuple(e.canonical_hex for e in r.exceptions),
            tuple(e.witness for e in r.exceptions),
        )


def outcome_of_scan(n: int, res: verify.ScanResult) -> Outcome:
    seen: dict[str, Digraph] = {}
    for mask in res.flagged:
        g = verify.digraph_from_mask(n, mask)
        seen.setdefault(iso.canonical_form(g).hex, g)
    keys = tuple(sorted(seen))
    return Outcome(res.scanned, res.passed_filters, None, keys, tuple(seen[k] for k in keys))


def _exhaustive(n, filters=(), evaluator=None):
    return lambda seed: verify.EnumerationTask(n=n, filters=filters, evaluator=evaluator)


def _sample6(seed: int) -> verify.EnumerationTask:
    return verify.EnumerationTask(
        n=6,
        mode="sample",
        filters=("min_out:2", "min_in:3", "thm13", "strong"),
        sample_count=SAMPLE6_DRAWS,
        seed=seed,
        evaluator="no_bypass",
    )


def _cli(*argv):
    return lambda seed: ["cli", *argv, "--sample", "1", "--seed", str(seed)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exh5_thm12",
            1,
            False,
            _exhaustive(5, ("a_k:0", "strong"), "no_bypass"),
            lambda seed, w: verify.check_theorem12(5, workers=w),
            _cli("verify", "thm12", "--n", "5"),
        ),
        Workload(
            "lemma7_n5",
            1,
            False,
            _exhaustive(5, (), "lemma7_sweep"),
            None,
            lambda seed: ["scan", "5", "lemma7_sweep", str(seed)],
        ),
        Workload(
            "explore5_dsum5",
            2,
            False,
            _exhaustive(5, ("degree_sum:-5", "strong"), "no_bypass"),
            lambda seed, w: verify.explore_no_bypass(5, "degree_sum:-5", workers=w),
            _cli("explore", "--cond", "degree_sum:-5", "--n", "5"),
        ),
        Workload(
            "sample6_thm16",
            2,
            True,
            _sample6,
            lambda seed, w: verify.check_theorem16_conjecture(
                6, sample=SAMPLE6_DRAWS, seed=seed, workers=w
            ),
            _cli("verify", "thm16", "--n", "6"),
        ),
    )
}


# ---------------------------------------------------------------------------
# Object-level replicas of the engine's filters and evaluators
# ---------------------------------------------------------------------------


def layer_of(fid: str) -> str:
    """Per-layer metric prefix of a filter id."""
    name = fid.partition(":")[0]
    if name == "strong":
        return "digraph.strong"
    if name in ("min_out", "min_in"):
        return "verify.min_degree"
    return "conditions." + name


def public_filter(fid: str) -> Callable[[Digraph], bool]:
    name, _, param = fid.partition(":")
    if name == "strong":
        return is_strong
    if name == "min_out":
        t = int(param)
        return lambda g: min(g.out_degree(v) for v in range(g.n)) >= t
    if name == "min_in":
        t = int(param)
        return lambda g: min(g.in_degree(v) for v in range(g.n)) >= t
    cond = conditions.resolve(fid)
    return lambda g: cond.check(g).holds


class Meter:
    """Call counts, busy time and found counts per layer, for one batch."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.found = defaultdict(int)

    def time(self, layer: str, fn, *args):
        t0 = perf_counter()
        out = fn(*args)
        self.busy[layer] += perf_counter() - t0
        self.calls[layer] += 1
        return out

    def search(self, layer: str, fn, *args):
        out = self.time(layer, fn, *args)
        if out:
            self.found[layer] += 1
        return out


class Untimed(Meter):
    """Makes the same calls as Meter without reading the clock."""

    def time(self, layer: str, fn, *args):
        return fn(*args)


def _no_bypass(g: Digraph, m: Meter) -> bool:
    return m.search("search.bypass", search.find_hamiltonian_bypass, g) is None


def _lemma7_sweep(g: Digraph, m: Meter) -> bool:
    n = g.n
    if n < 4:
        return False
    if m.search("search.prehc", search.find_pre_hamiltonian_cycle, g) is None:
        return False
    if m.search("search.bypass", search.find_hamiltonian_bypass, g) is not None:
        return False
    cycles = m.search("search.cycles", lambda: list(search.iter_cycles_of_length(g, n - 1)))
    for cyc in cycles:
        (off,) = set(range(n)) - set(cyc.vertices)
        if g.out_degree(off) + g.in_degree(off) >= n:
            return True
        if not m.time("insertion.lemma7", lemma7_consequences, g, cyc, off).all_ok:
            return True
    return False


PUBLIC_EVALUATORS = {"no_bypass": _no_bypass, "lemma7_sweep": _lemma7_sweep}


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------


def load_frozen() -> dict:
    with open(FROZEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def expected_answer(wl: Workload, seed: int, frozen: dict, replay=None) -> dict:
    """Frozen answer where the inputs do not depend on the seed (or the seed
    is the default); otherwise the answer the public-API replay derives."""
    ref = frozen[wl.name]
    if not wl.seeded or seed == DEFAULT_SEED:
        return ref
    if replay is None:
        raise ValueError(f"{wl.name} at seed {seed} needs the public-API replay")
    classes = sorted({iso.canonical_form(g).hex for g in replay.flagged_graphs()})
    return {
        "scanned": replay.passed[0],
        "passed": replay.passed[-1],
        # Workloads with a seed are theorem scans that allow no exception.
        "verdict": "counterexample-found" if classes else "confirmed",
        "classes": classes,
    }


def gate(wl: Workload, seed: int, out: Outcome, expected: dict) -> list[str]:
    """Problems with one scan's answer; empty when it is correct."""
    problems = [
        f"{key}: got {got!r}, expected {expected[key]!r}"
        for key, got in (
            ("scanned", out.scanned),
            ("passed", out.passed),
            ("verdict", out.verdict),
            ("classes", list(out.classes)),
        )
        if got != expected[key]
    ]
    return problems + recheck_witnesses(wl, seed, out)


def recheck_witnesses(wl: Workload, seed: int, out: Outcome) -> list[str]:
    task = wl.task(seed)
    checks = [(fid, public_filter(fid)) for fid in task.filters]
    evaluate = PUBLIC_EVALUATORS[task.evaluator]
    meter = Meter()
    problems = []
    for key, g in zip(out.classes, out.witnesses):
        problems += [f"witness {key} fails {fid}" for fid, check in checks if not check(g)]
        if not evaluate(g, meter):
            problems.append(f"witness {key} is not flagged by the public {task.evaluator}")
        if iso.canonical_form(g).hex != key:
            problems.append(f"witness {key} has canonical form {iso.canonical_form(g).hex}")
    return problems
