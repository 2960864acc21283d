"""Claim-scan benchmark for hambypass.

    python3 perfbench/run.py --workload exh5_thm12 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --trace 0    # end-to-end, every workload
    python3 perfbench/run.py --workload all --trace 1    # per-layer, every workload

The package is imported from src/ next to this directory; without it the
benchmark fails. With --trace 0 it measures set-up time with fresh
interpreters, warms the engine up with one small untimed scan, then calls
the workload's public driver again and again for --seconds seconds (at
least once) and reports end-to-end metrics. With
--trace 1 it runs the stage ladder, the canonical dedupe and the public-API
replay instead (see tracing.py), ignores --seconds, and writes its spans to
perfbench/traces/. Every driver call passes the correctness gate or counts
as failed. The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics; the metric names and units are those of
BENCHMARK.json. Engine progress lines on stderr are captured and counted.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PROBES = 7
WARMUP_DRAWS = 4096

# Which end-to-end metric each per-layer metric should move, and where.
# The first key that prefixes a metric name applies.
MOVES = {
    "verify.decode_graphs_per_s": "graphs_per_s on exh5_thm12 and sample6_thm16, barely on lemma7_n5",
    "verify.pool_efficiency": "graphs_per_s on the 2-worker explore5_dsum5 and sample6_thm16 only",
    "verify.report_s": "graphs_per_s on explore5_dsum5",
    "verify.min_degree": "graphs_per_s on sample6_thm16, not on lemma7_n5",
    "digraph.strong": "graphs_per_s on exh5_thm12, explore5_dsum5, sample6_thm16, not on lemma7_n5",
    "conditions.a_k": "graphs_per_s on exh5_thm12, not on lemma7_n5",
    "conditions.degree_sum": "graphs_per_s on explore5_dsum5, not on lemma7_n5",
    "conditions.thm13": "graphs_per_s on sample6_thm16, not on lemma7_n5",
    "search.": "graphs_per_s on lemma7_n5 and explore5_dsum5",
    "insertion.lemma7": "graphs_per_s on lemma7_n5 only",
    "iso.": "graphs_per_s on explore5_dsum5 only",
    "cli.import_s": "setup_s on every workload",
    "trace_overhead": "no end-to-end metric: the cost of tracing itself",
}


def import_package():
    if not (SRC / "hambypass" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'hambypass'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import hambypass

    if Path(hambypass.__file__).resolve().parent != SRC / "hambypass":
        sys.exit(f"error: imported {hambypass.__file__}, not the checkout's package")


def machine_facts(workers: int) -> dict:
    model = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "workers": workers,
    }


def run_probes(wl, seed: int) -> tuple[float, float]:
    """Median wall time of a fresh interpreter doing the workload's one-draw
    scan, and median import time inside it."""
    walls, imports = [], []
    for _ in range(PROBES):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), *wl.probe(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        walls.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr[-500:]}")
        doc = json.loads(proc.stdout.splitlines()[-1])
        if Path(doc["package"]).resolve().parent != SRC / "hambypass":
            raise RuntimeError(f"set-up probe imported {doc['package']}")
        imports.append(doc["import_s"])
    return median(walls), median(imports)


def peak_rss_mb() -> float:
    """Peak RSS of this process or of any child it waited for (pool workers)."""
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024


def warm_up(wl, seed: int) -> None:
    """One small untimed scan with the workload's n, filters and evaluator,
    so the engine's per-order tables exist before the first timed scan (the
    2-worker pools fork from this process and inherit them)."""
    from dataclasses import replace

    from hambypass import verify

    task = replace(wl.task(seed), mode="sample", sample_count=WARMUP_DRAWS, seed=seed)
    verify.enumerate_digraphs(task, workers=1)


def timed(wl, seed: int, seconds: int, workers: int, pool: int, frozen: dict):
    import tracing
    from workloads import DEFAULT_SEED, expected_answer, gate

    warm_up(wl, seed)
    scans = []
    deadline = perf_counter() + seconds
    while not scans or perf_counter() < deadline:
        t0 = perf_counter()
        out = wl.run(seed, workers)
        scans.append((perf_counter() - t0, out))
    # Read before the set-up probes run, so their interpreters do not count.
    rss = peak_rss_mb()
    setup_s, _ = run_probes(wl, seed)

    rep = None
    if wl.seeded and seed != DEFAULT_SEED:
        rep = tracing.replay(wl.task(seed), pool, tracing.Tracer())
    expected = expected_answer(wl, seed, frozen, rep)
    lines, failed = [], 0
    for i, (dt, out) in enumerate(scans):
        problems = gate(wl, seed, out, expected)
        failed += bool(problems)
        lines.append(
            f"scan {i}: {dt:.3f} s, {out.scanned / dt:,.0f} graphs/s, scanned {out.scanned},"
            f" passed {out.passed}, {len(out.classes)} classes, verdict {out.verdict}:"
            f" {'; '.join(problems) or 'correct'}"
        )
    metrics = {
        "graphs_per_s": median(out.scanned / dt for dt, out in scans),
        "setup_s": setup_s,
        "peak_rss_mb": rss,
    }
    lines.append(f"graphs_per_s is the median over {len(scans)} scans; setup_s over {PROBES} probes")
    lines.append(f"failed_share = {failed}/{len(scans)} = {failed / len(scans)}")
    return metrics, failed == 0, len(scans), failed, lines


def traced(wl, seed: int, workers: int, pool: int, frozen: dict, facts: dict):
    import tracing

    _, import_s = run_probes(wl, seed)
    metrics, problems, tracer, lines = tracing.traced_run(wl, seed, workers, pool, frozen)
    metrics["cli.import_s"] = import_s
    lines += [f"PROBLEM: {p}" for p in problems]
    out_dir = HERE / "traces"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{wl.name}-seed{seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"machine": facts, "metrics": metrics, "spans": tracer.spans}, fh)
    lines.append(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    # One driver call is gated; a disagreement with the public API fails it.
    return metrics, not problems, 1, int(bool(problems)), lines


def emit(names_units: list[tuple[str, str]], metrics: dict, correct, attempted, failed, moves=False):
    missing = [name for name, _ in names_units if name not in metrics]
    if missing:
        raise RuntimeError(f"BENCHMARK.json metrics {missing} were not measured")
    for name, unit in names_units:
        note = next((v for k, v in MOVES.items() if name.startswith(k)), "") if moves else ""
        print(f"{name} = {metrics[name]:.6g} {unit}" + (f"    [moves {note}]" if note else ""))
    doc = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names_units},
    }
    print(json.dumps(doc), flush=True)


def run_all(args, names: list[str]) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if not lines or not lines[-1].startswith("{"):
            raise RuntimeError(f"workload {name} printed no result (exit {proc.returncode})")
        doc = json.loads(lines[-1])
        combined["correct"] &= doc["correct"]
        combined["attempted"] += doc["attempted"]
        combined["failed"] += doc["failed"]
        for metric, value in doc["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*why, "all"])
    # Seed 1 is the one the frozen answers of seeded workloads were taken at.
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    # Worker counts are always explicit; no child may inherit an override.
    os.environ.pop("HAMBYPASS_THREADS", None)
    if args.workload == "all":
        return run_all(args, list(why))

    from workloads import WORKLOADS, load_frozen

    if set(WORKLOADS) != set(why):
        raise RuntimeError("workloads.py and BENCHMARK.json list different workloads")
    wl = WORKLOADS[args.workload]
    nproc = os.cpu_count() or 1
    workers = min(wl.workers, nproc)
    facts = machine_facts(workers)
    print(f"workload {wl.name} seed {args.seed}: {why[wl.name]}")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in facts.items()))

    frozen = load_frozen()
    captured = io.StringIO()
    with contextlib.redirect_stderr(captured):
        if args.trace:
            metrics, correct, attempted, failed, lines = traced(
                wl, args.seed, workers, min(2, nproc), frozen, facts
            )
        else:
            metrics, correct, attempted, failed, lines = timed(
                wl, args.seed, args.seconds, workers, min(2, nproc), frozen
            )
    progress = sum(line.startswith("scanned ") for line in captured.getvalue().splitlines())
    print("\n".join(lines))
    print(f"engine progress lines captured from stderr: {progress}")
    key = "per_layer" if args.trace else "end_to_end"
    emit(
        [(m["name"], m["unit"]) for m in spec[key]],
        metrics,
        correct,
        attempted,
        failed,
        moves=bool(args.trace),
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
