"""Wall time of the heavier claim scans on one process, with a digest of
each report so that two trees can be shown to answer alike.

Run from the root of a tree, with its package on the path:

    PYTHONPATH=src python3 tools/scan_times.py              # the timed scans
    PYTHONPATH=src python3 tools/scan_times.py --n6         # plus n = 6 claims and lemma-7 sweep

Each timed scan runs once untimed, to build the per-order caches, then
REPEATS times; its figure is the median wall time. The --n6 scans are
exhaustive and run after them, each REPEATS times with the same median
figure: the claims, about 1-16 s a run, then the lemma-7 sweep over every
digraph (enumerate_digraphs, no filter), about 10 s a run. One more,
untimed, sweep counts its walk: the sweep's calls, the classes visited
(orbit tests passed) and every orbit test. Every n = 6
answer is checked against FROZEN_N6 (a claim's passed_filters,
exception classes and verdict; the sweep's scanned, passed_filters and
flagged masks); on any difference the script says which and exits 1.
Human-readable lines go to stdout, and the last line is one JSON object:
{"metrics": {"<case>.wall_s": seconds, "<sweep>.<count>": count},
"reports": {"<case>": sha256}}, where a repeated case's seconds are
{"value": median, "runs": [each repeat]} and the digest covers the
report's JSON without elapsed_ms. This is the format tools/pairs.py reads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import time

from hambypass import verify

# case: (claim, n, run_claim keywords)
TIMED = {
    "thm12_n7_sample1e5": ("thm12", 7, dict(sample=10**5, seed=1)),
    "thm8_n7_dense4e4": ("thm8", 7, dict(sample=40_000, seed=1, model="dense")),
    "thm9_n8_dense2e4": ("thm9", 8, dict(sample=20_000, seed=1, model="dense")),
    "thm12_n6_exhaustive": ("thm12", 6, {}),
}
REPEATS = 3
CLAIMS_N6 = {f"{c}_n6_exhaustive": (c, 6, {}) for c in ("thm6", "thm8", "thm9", "thm11")}
CLAIMS_N6["thm16_n6_exhaustive"] = ("thm16", 6, dict(param=3))
CLAIMS_N6["thm16_in2_n6_exhaustive"] = ("thm16", 6, dict(param=2))  # the in-degree 2 probe
SWEEP_N6 = "lemma7_sweep_n6_exhaustive"
# case: (passed_filters, exception canonical hexes, verdict), or for the
# sweep (scanned, passed_filters, flagged masks): each scan's answer on one
# process, which every tree must reproduce
FROZEN_N6 = {
    "thm6_n6_exhaustive": (50_562_466, [], "confirmed"),
    "thm8_n6_exhaustive": (188_963_896, ["04f5db77e", "0cd55987e"], "confirmed"),
    "thm9_n6_exhaustive": (95_894_806, [], "confirmed"),
    "thm11_n6_exhaustive": (50_562_466, ["1c71f8e38"], "confirmed"),
    "thm12_n6_exhaustive": (50_562_466, [], "confirmed"),
    "thm16_n6_exhaustive": (12_365_746, [], "confirmed"),
    "thm16_in2_n6_exhaustive": (61_422_406, [], "report-only"),
    SWEEP_N6: (1_073_741_824, 1_073_741_824, []),
}


def run(claim: str, n: int, kw: dict) -> tuple[float, dict]:
    t = time.perf_counter()
    report = verify.run_claim(claim, n, workers=1, **kw)
    return time.perf_counter() - t, report.to_json_dict(include_elapsed=False)


def run_sweep(n: int) -> tuple[float, dict]:
    t = time.perf_counter()
    res = verify.enumerate_digraphs(verify.EnumerationTask(n, evaluator="lemma7_sweep"), workers=1)
    elapsed = time.perf_counter() - t
    return elapsed, dict(scanned=res.scanned, passed_filters=res.passed_filters,
                         flagged=list(res.flagged))


def walk_counts(n: int) -> dict:
    """sweeps, classes and orbit_tests of one unfiltered sweep at order n,
    counted by wrapping the sweep and the orbit test for that run."""
    counts = dict(sweeps=0, classes=0, orbit_tests=0)
    orbit_least, sweep = verify._orbit_least, verify._EVALUATORS["lemma7_sweep"]

    def orbit_test(n, rows):
        aut = orbit_least(n, rows)
        counts["classes"] += aut > 0
        counts["orbit_tests"] += 1
        return aut

    def counted(*args):
        counts["sweeps"] += 1
        return sweep(*args)

    verify._orbit_least, verify._EVALUATORS["lemma7_sweep"] = orbit_test, counted
    try:
        run_sweep(n)
    finally:
        verify._orbit_least, verify._EVALUATORS["lemma7_sweep"] = orbit_least, sweep
    return counts


def digest(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def answer(doc: dict) -> tuple:
    if "flagged" in doc:  # the sweep
        return doc["scanned"], doc["passed_filters"], doc["flagged"]
    hexes = [e["canonical_hex"] for e in doc["exceptions"]]
    return doc["passed_filters"], hexes, doc["verdict"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n6", action="store_true", help="also run the n = 6 scans")
    args = parser.parse_args()
    metrics, docs = {}, {}

    def repeated(case, scan, *args):
        times = []
        for _ in range(REPEATS):
            elapsed, docs[case] = scan(*args)
            times.append(elapsed)
        metrics[f"{case}.wall_s"] = {"value": statistics.median(times), "runs": times}
        print(f"{case}: median {statistics.median(times):.4f} s of {len(times)}", flush=True)

    for case, (claim, n, kw) in TIMED.items():
        run(claim, n, kw)
        repeated(case, run, claim, n, kw)
    if args.n6:
        for case, (claim, n, kw) in CLAIMS_N6.items():
            repeated(case, run, claim, n, kw)
        repeated(SWEEP_N6, run_sweep, 6)
        for name, count in walk_counts(6).items():
            metrics[f"{SWEEP_N6}.{name}"] = count
            print(f"{SWEEP_N6}: {count:,} {name}", flush=True)
    wrong = [case for case in docs if case in FROZEN_N6 and answer(docs[case]) != FROZEN_N6[case]]
    for case in wrong:
        print(f"{case}: answer {answer(docs[case])}, frozen {FROZEN_N6[case]}", flush=True)
    reports = {case: digest(doc) for case, doc in docs.items()}
    print(json.dumps({"metrics": metrics, "reports": reports}), flush=True)
    if wrong:
        sys.exit(1)


if __name__ == "__main__":
    main()
