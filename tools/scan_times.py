"""Wall time of the heavier claim scans on one process, with a digest of
each report so that two trees can be shown to answer alike.

Run from the root of a tree, with its package on the path:

    PYTHONPATH=src python3 tools/scan_times.py              # the timed scans
    PYTHONPATH=src python3 tools/scan_times.py --n6         # plus thm6/8/9/11 at n = 6

Each timed scan runs once untimed, to build the per-order caches, then
REPEATS times; its figure is the median wall time. The --n6 scans are
exhaustive (about 5-16 s each) and run once. Human-readable lines go to
stdout, and the last line is one JSON object:
{"metrics": {"<case>.wall_s": seconds}, "reports": {"<case>": sha256}},
where the digest covers the report's JSON without elapsed_ms. This is the
format tools/pairs.py reads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
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
ONCE_N6 = {f"{claim}_n6_exhaustive": (claim, 6, {}) for claim in ("thm6", "thm8", "thm9", "thm11")}


def run(claim: str, n: int, kw: dict) -> tuple[float, str]:
    t = time.perf_counter()
    report = verify.run_claim(claim, n, workers=1, **kw)
    elapsed = time.perf_counter() - t
    doc = json.dumps(report.to_json_dict(include_elapsed=False), sort_keys=True)
    return elapsed, hashlib.sha256(doc.encode()).hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n6", action="store_true", help="also run thm6/8/9/11 at n = 6 once")
    args = parser.parse_args()
    metrics, reports = {}, {}
    for case, (claim, n, kw) in TIMED.items():
        run(claim, n, kw)
        times = []
        for _ in range(REPEATS):
            elapsed, reports[case] = run(claim, n, kw)
            times.append(elapsed)
        metrics[f"{case}.wall_s"] = statistics.median(times)
        print(f"{case}: median {metrics[f'{case}.wall_s']:.4f} s of {len(times)}", flush=True)
    if args.n6:
        for case, (claim, n, kw) in ONCE_N6.items():
            metrics[f"{case}.wall_s"], reports[case] = run(claim, n, kw)
            print(f"{case}: {metrics[f'{case}.wall_s']:.3f} s", flush=True)
    print(json.dumps({"metrics": metrics, "reports": reports}), flush=True)


if __name__ == "__main__":
    main()
