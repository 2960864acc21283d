"""Alternating before/after pairs of a benchmark command on two git revisions.

    python3 tools/pairs.py PARENT --workdir DIR [--pairs 10] [-- COMMAND ...] > record.json

The change side is HEAD. Each revision is extracted with `git archive` into its own directory under
DIR: DIR/par and DIR/chg, names of equal length so that paths cost the
same on both sides. Both directories are removed and made again on every
call. Both get this checkout's tools/, so that a parent that predates a
measuring script runs the same one. Pair i runs COMMAND in both trees,
the parent first in odd pairs and the change first in even ones, with
PYTHONPATH=src; --pairs must be even, so that each side goes first equally
often. The default COMMAND is `python3 perfbench/run.py --workload all --trace 0 --seed 1`;
tools/scan_times.py is the other command this reads.

The last stdout line of every run must be one JSON object with a
"metrics" mapping of name to a number or to {"value": number}, which may
carry "runs": [every repeat], kept in the record as the run's "repeats";
perfbench/run.py also gives correct, attempted and failed, and
tools/scan_times.py a "reports" mapping of digests, which must agree
between the two sides of a pair. From perfbench/run.py's text lines the
record also keeps, per run and workload, how many driver calls were timed
(`timed_calls`); the harness keeps memory per call, so the summary shows
those counts beside each `peak_rss_mb`. After every
run the driver lists each live process whose command line names the
command's script: a benchmark that leaves one behind is reported. Per
metric the summary gives both sides' runs, medians and quartiles
(statistics.quantiles, n=4, inclusive), the ratio of medians, the pairs
the change won, and whether the change clears the gain rule: better in at
least nine of ten pairs, and by more than the parent's quartile spread in
the median. A metric is better when higher if BENCHMARK.json says so,
otherwise when lower. The JSON record goes to stdout, progress to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_COMMAND = [
    "python3", "perfbench/run.py", "--workload", "all", "--trace", "0", "--seed", "1"
]


def extract(rev: str, dest: Path) -> str:
    """Extract `rev` into a fresh `dest`, with this checkout's tools/ over
    its own; return its full commit id."""
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)
    shutil.copytree(ROOT / "tools", dest / "tools", dirs_exist_ok=True)
    return sha


def _ancestors() -> set[int]:
    pids, pid = set(), os.getpid()
    while pid > 1:
        pids.add(pid)
        stat = Path(f"/proc/{pid}/stat").read_text()
        pid = int(stat.rsplit(")", 1)[1].split()[1])
    return pids


def leftover_processes(needle: str) -> list[str]:
    """Command lines of live processes naming `needle`, other than this one
    and the processes that started it."""
    found, mine = [], _ancestors()
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) in mine:
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes().replace(b"\0", b" ").decode().strip()
        except OSError:
            continue
        if needle in cmdline:
            found.append(f"{entry.name}: {cmdline}")
    return found


def timed_calls(lines: list[str]) -> dict[str, int]:
    """Workload name -> driver calls timed, from perfbench/run.py's
    `workload NAME ...` line and the `graphs_per_s is the median over N
    scans` line after it."""
    calls, name = {}, None
    for line in lines:
        if line.startswith("workload "):
            name = line.split()[1]
        elif line.startswith("graphs_per_s is the median over ") and name:
            calls[name] = int(line.split()[5])
    return calls


def run_once(tree: Path, command: list[str]) -> dict:
    env = {**os.environ, "PYTHONPATH": "src"}
    proc = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        doc = {}
    metrics = doc.get("metrics", {})
    return {
        "exit": proc.returncode,
        "correct": doc.get("correct", proc.returncode == 0 and "metrics" in doc),
        "attempted": doc.get("attempted"),
        "failed": doc.get("failed"),
        "metrics": {
            name: value["value"] if isinstance(value, dict) else value
            for name, value in metrics.items()
        },
        "repeats": {
            name: value["runs"]
            for name, value in metrics.items()
            if isinstance(value, dict) and "runs" in value
        },
        "reports": doc.get("reports"),
        "timed_calls": timed_calls(lines),
        "stderr_tail": proc.stderr.strip().splitlines()[-3:] if proc.returncode else [],
    }


def higher_is_better(tree: Path) -> set[str]:
    path = tree / "BENCHMARK.json"
    spec = json.loads(path.read_text()) if path.exists() else {}
    return {m["name"] for m in spec.get("end_to_end", []) if m.get("better") == "higher"}


def summarize(runs: list[dict], higher: set[str]) -> dict:
    names = sorted({k for r in runs for k in r["metrics"]})
    summary = {}
    for name in names:
        par = [r["metrics"][name] for r in runs if r["side"] == "parent" and name in r["metrics"]]
        chg = [r["metrics"][name] for r in runs if r["side"] == "change" and name in r["metrics"]]
        if not par or not chg:
            continue
        up = name.rsplit(".", 1)[-1] in higher
        pairs = list(zip(par, chg))
        won = sum((c > p) if up else (c < p) for p, c in pairs)
        pq = statistics.quantiles(par, n=4, method="inclusive") if len(par) > 1 else [par[0]] * 3
        cq = statistics.quantiles(chg, n=4, method="inclusive") if len(chg) > 1 else [chg[0]] * 3
        pm, cm = statistics.median(par), statistics.median(chg)
        gain = (cm - pm) if up else (pm - cm)
        summary[name] = {
            "better": "higher" if up else "lower",
            "parent_median": pm,
            "change_median": cm,
            "ratio": cm / pm if pm else None,
            "change_better_pairs": f"{won}/{len(pairs)}",
            "clears_gain_rule": won * 10 >= 9 * len(pairs) and gain > pq[2] - pq[0],
            "parent_quartiles": [pq[0], pq[2]],
            "change_quartiles": [cq[0], cq[2]],
            "parent_runs": par,
            "change_runs": chg,
        }
        if name.endswith("peak_rss_mb"):  # the harness keeps memory per timed call
            workload = name.rpartition(".")[0]
            for side in ("parent", "change"):
                summary[name][f"{side}_timed_calls"] = [
                    r["timed_calls"].get(workload) if workload else sum(r["timed_calls"].values())
                    for r in runs if r["side"] == side and name in r["metrics"]
                ]
    return summary


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="git revision of the parent side")
    parser.add_argument("--workdir", required=True, type=Path, help="where par/ and chg/ go")
    parser.add_argument("--pairs", type=int, default=10)
    argv = sys.argv[1:]
    cut = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:cut])
    if args.pairs < 2 or args.pairs % 2:
        parser.error("--pairs must be even and positive, so each side goes first equally often")
    command = argv[cut + 1 :] or DEFAULT_COMMAND
    script = next((c for c in command if c.endswith(".py")), command[0])
    trees = {"parent": args.workdir / "par", "change": args.workdir / "chg"}
    revs = {"parent": args.parent, "change": "HEAD"}
    commits = {side: extract(revs[side], trees[side]) for side in trees}
    runs = []
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            run = {"pair": pair, "side": side, **run_once(trees[side], command)}
            run["leftover_processes"] = leftover_processes(script)
            runs.append(run)
            status = f"exit {run['exit']}, correct {run['correct']}"
            print(f"pair {pair} {side}: {status}", file=sys.stderr, flush=True)
    by_pair = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run.get("reports")
    doc = {
        "command": command,
        "commits": commits,
        "method": (
            f"{args.pairs} pairs; each side extracted with git archive into sibling directories "
            "of equal name length (par, chg); odd pairs run the parent first, even pairs the "
            "change first; quartiles are statistics.quantiles(n=4, method='inclusive')"
        ),
        "correct_all": all(r["correct"] for r in runs),
        "failed_total": sum(r["failed"] or 0 for r in runs),
        "leftover_processes": sum(len(r["leftover_processes"]) for r in runs),
        "reports_equal": all(p.get("parent") == p.get("change") for p in by_pair.values()),
        "summary": summarize(runs, higher_is_better(trees["change"])),
        "runs": runs,
    }
    print(json.dumps(doc, indent=1))


if __name__ == "__main__":
    main()
