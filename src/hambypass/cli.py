"""Command-line front door.

Subcommands: gen (family generators), check (condition checks on a digraph),
find (structure searches), verify (theorem scans), explore (bypass-free
survivor catalogs). Digraphs travel in the text format of parse_digraph /
format_digraph; results are a single JSON document on stdout. Progress goes
to stderr. Exit codes: 0 success (including "not found" and report-only), 1
counterexample for a confirmed-expected theorem, 2 usage or input errors.

Worker parallelism is controlled only by the HAMBYPASS_THREADS environment
variable so that command lines stay reproducible verbatim.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

from . import conditions, families, search, verify
from .digraph import Digraph, Path, format_digraph, id_int, make_path, parse_digraph, split_id
from .insertion import _splice_collection, extend_as_much_as_possible, find_collection_of_partners


def _emit(doc: dict) -> None:
    print(json.dumps(doc, indent=2))


def _need(value, flag: str):
    if value is None:
        raise ValueError(f"missing required option {flag}")
    return value


def _load_digraph(source: str) -> Digraph:
    if source == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read {source}: {exc}")
    return parse_digraph(text)


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def _parse_inner_arcs(text: str) -> list[tuple[int, int]]:
    """Arc list in 'u,v;u,v' form with B-local indices; empty means none."""
    arcs = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        pieces = part.split(",")
        if len(pieces) != 2:
            raise ValueError(f"bad inner arc {part!r}, expected 'u,v'")
        arcs.append((id_int(pieces[0]), id_int(pieces[1])))
    return arcs


_INNER = {
    "empty": lambda args: families.InnerSpec.empty(),
    "complete": lambda args: families.InnerSpec.complete(),
    "random": lambda args: families.InnerSpec.random(_need(args.seed, "--seed")),
    "explicit": lambda args: families.InnerSpec.explicit(
        _parse_inner_arcs(_need(args.arcs, "--arcs"))
    ),
}

_FAMILIES = {
    "kstar": lambda args: families.complete_digraph(_need(args.n, "--n")),
    "kbipartite": lambda args: families.complete_bipartite_digraph(
        _need(args.p, "--p"), _need(args.q, "--q")
    ),
    "cycle": lambda args: families.directed_cycle(_need(args.n, "--n")),
    "dnk": lambda args: families.bypass_pattern(_need(args.n, "--n"), _need(args.k, "--k")),
    "t5": lambda args: families.t5(),
    "d0": lambda args: families.d0(_need(args.n, "--n"), _INNER[args.inner](args)),
    "d1": lambda args: families.d1(_need(args.n, "--n"), _need(args.k, "--k")),
}


def cmd_gen(args) -> int:
    sys.stdout.write(format_digraph(_FAMILIES[args.family](args)))
    return 0


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def cmd_check(args) -> int:
    g = _load_digraph(args.input)
    doc = {}
    for cond_id in args.cond:
        cond = conditions.resolve(cond_id)
        doc[cond_id] = cond.check(g).to_dict()
    _emit(doc)
    return 0


# ---------------------------------------------------------------------------
# find
# ---------------------------------------------------------------------------


def _try_block_insert(g: Digraph, path: Path, todo: frozenset[int]):
    """One multi-vertex insertion attempt: the leftover vertices are ordered
    into a path (endpoint pairs tried ascending) and spliced through a
    collection of partners. Returns (new path, block order, partners)."""
    for a, b in itertools.permutations(sorted(todo), 2):
        q = search.find_hamiltonian_path_between(g, a, b, todo)
        if q is None:
            continue
        col = find_collection_of_partners(g, path, q)
        if col is not None:
            return _splice_collection(g, path, q, col), q.vertices, col.partners
    return None


def _insertion_replay(g: Digraph, seed) -> tuple[Path, list[dict], frozenset[int]]:
    """Grow the path `seed` over every other vertex using the insertion
    engine only: single vertices first, then, when singles stall, one block
    through every leftover, so a block step leaves none. The step log
    records each move; leftovers that no insertion reaches are returned
    as-is."""
    out = extend_as_much_as_possible(g, make_path(g, seed), set(range(g.n)) - set(seed))
    steps = [{"kind": "vertex", "vertex": v, "position": i} for v, i in out.steps]
    hit = _try_block_insert(g, out.extended, out.leftovers) if out.leftovers else None
    if hit is None:
        return out.extended, steps, out.leftovers
    path, qv, partners = hit
    steps.append({"kind": "path", "vertices": list(qv), "partners": list(partners)})
    return path, steps, frozenset()


def _explain_hc(g: Digraph) -> dict:
    """Replay the constructive route: seed with the shortest cycle, then
    insert everything else. Run only where a Hamiltonian cycle was found."""
    for m in range(2, g.n + 1):
        start = search.find_cycle_of_length(g, m)
        if start is not None:
            break
    path, steps, todo = _insertion_replay(g, start.vertices)
    return {
        "method": "cycle-insertion",
        "start_cycle": list(start.vertices),
        "steps": steps,
        "path": list(path.vertices),
        "complete": not todo,  # insertion keeps the seed cycle's ends, so the path closes
    }


def _explain_bypass(g: Digraph, hit) -> dict:
    """Replay from the chord: the two endpoints form the seed path and the
    interior vertices get inserted between them."""
    u, w = hit.order[0], hit.order[-1]
    path, steps, todo = _insertion_replay(g, (u, w))
    return {
        "method": "chord-insertion",
        "start_path": [u, w],
        "steps": steps,
        "path": list(path.vertices),
        "complete": not todo,
    }


def _witness(field: str):
    return lambda g, hit: {field: list(getattr(hit, field))}


def _good_cycle(g: Digraph, hit) -> dict:
    off = g.n * (g.n - 1) // 2 - sum(hit.vertices)  # the one vertex the cycle misses
    return {"vertices": list(hit.vertices), "off_vertex": off}


# structure: (parameter unit or None, finder, witness of a hit, --explain replay of a hit)
_STRUCTURES = {
    "hc": (None, search.find_hamiltonian_cycle, _witness("vertices"), lambda g, _: _explain_hc(g)),
    "prehc": (None, search.find_pre_hamiltonian_cycle, _witness("vertices"), None),
    "cycle": ("length", search.find_cycle_of_length, _witness("vertices"), None),
    "bypass": (None, search.find_hamiltonian_bypass, _witness("order"), _explain_bypass),
    "dnk": ("k", search.find_bypass_pattern, _witness("mapping"), None),
    "goodcycle": (None, search.find_good_cycle, _good_cycle, None),
}


def cmd_find(args) -> int:
    g = _load_digraph(args.input)
    units = {name: row[0] for name, row in _STRUCTURES.items()}
    name, param = split_id(args.structure, units, "structure")
    _, find, witness, replay = _STRUCTURES[name]
    hit = find(g) if param is None else find(g, param)
    doc: dict = {"structure": args.structure, "found": hit is not None}
    if hit is not None:
        doc["witness"] = witness(g, hit)
    if args.explain:
        doc["explain"] = None if hit is None or replay is None else replay(g, hit)
    _emit(doc)
    return 0


# ---------------------------------------------------------------------------
# verify / explore
# ---------------------------------------------------------------------------


def cmd_scan(args) -> int:
    report = verify.run_claim(
        args.theorem, args.n, args.param, sample=args.sample, seed=args.seed, model=args.model
    )
    _emit(report.to_json_dict())
    return 1 if report.verdict == "counterexample-found" else 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_scan_flags(sub) -> None:
    sub.add_argument("--n", type=int, required=True, help="digraph order")
    sub.add_argument("--sample", type=int, default=None, help="sampled scan of this many draws")
    sub.add_argument("--seed", type=int, default=None, help="sampling seed")
    sub.add_argument(
        "--model", choices=("uniform", "dense"), default="uniform", help="sampling arc model"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hambypass",
        description="Generate, check and search digraphs; scan theorem statements.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="emit a family member in the text format")
    gen.add_argument("family", choices=_FAMILIES)
    gen.add_argument("--n", type=int)
    gen.add_argument("--k", type=int)
    gen.add_argument("--p", type=int)
    gen.add_argument("--q", type=int)
    gen.add_argument("--inner", choices=_INNER, default="empty")
    gen.add_argument("--seed", type=int)
    gen.add_argument("--arcs", help="explicit inner arcs as 'u,v;u,v' (indices local to B)")
    gen.set_defaults(func=cmd_gen)

    check = subs.add_parser("check", help="evaluate conditions on a digraph")
    check.add_argument("input", help="digraph file, or - for stdin")
    check.add_argument("--cond", action="append", required=True, help="condition id (repeatable)")
    check.set_defaults(func=cmd_check)

    find = subs.add_parser("find", help="search for a structure in a digraph")
    find.add_argument("input", help="digraph file, or - for stdin")
    find.add_argument(
        "structure", help="hc | prehc | bypass | goodcycle | cycle:<m> | dnk:<k>"
    )
    find.add_argument(
        "--explain",
        action="store_true",
        help="add an insertion-engine replay for hc and bypass witnesses",
    )
    find.set_defaults(func=cmd_find)

    ver = subs.add_parser("verify", help="scan a theorem statement")
    claims = [name for name, claim in verify.CLAIMS.items() if not claim.report_only]
    ver.add_argument("theorem", choices=claims)
    _add_scan_flags(ver)
    ver.add_argument(
        "--min-in",
        dest="param",
        metavar="MIN_IN",
        type=int,
        help="thm16 minimum in-degree floor (3 = proven statement, 2 = probe)",
    )
    ver.set_defaults(func=cmd_scan)

    exp = subs.add_parser("explore", help="catalog bypass-free survivors of a condition")
    exp.add_argument("--cond", dest="param", metavar="COND", required=True, help="condition id")
    _add_scan_flags(exp)
    exp.set_defaults(func=cmd_scan, theorem="explore")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
