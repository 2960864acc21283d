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
import json
import sys

from . import conditions, families, search, verify
from .digraph import Digraph, Path, format_digraph, id_int, make_path, parse_digraph
from .insertion import _splice_collection, extend_as_much_as_possible, find_collection_of_partners

_FAMILIES = ("kstar", "kbipartite", "cycle", "dnk", "t5", "d0", "d1")


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


def _inner_spec(args) -> families.InnerSpec:
    kind = args.inner
    if kind == "empty":
        return families.InnerSpec.empty()
    if kind == "complete":
        return families.InnerSpec.complete()
    if kind == "random":
        return families.InnerSpec.random(_need(args.seed, "--seed"))
    if kind == "explicit":
        return families.InnerSpec.explicit(_parse_inner_arcs(_need(args.arcs, "--arcs")))
    raise ValueError(f"unknown inner kind {kind!r}")


def cmd_gen(args) -> int:
    fam = args.family
    if fam == "kstar":
        g = families.complete_digraph(_need(args.n, "--n"))
    elif fam == "kbipartite":
        g = families.complete_bipartite_digraph(_need(args.p, "--p"), _need(args.q, "--q"))
    elif fam == "cycle":
        g = families.directed_cycle(_need(args.n, "--n"))
    elif fam == "dnk":
        g = families.bypass_pattern(_need(args.n, "--n"), _need(args.k, "--k"))
    elif fam == "t5":
        g = families.t5()
    elif fam == "d0":
        g = families.d0(_need(args.n, "--n"), _inner_spec(args))
    else:  # d1; argparse restricts the choices
        g = families.d1(_need(args.n, "--n"), _need(args.k, "--k"))
    sys.stdout.write(format_digraph(g))
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


def _try_block_insert(g: Digraph, path: Path, todo: set[int]):
    """One multi-vertex insertion attempt: the leftover vertices are ordered
    into a path (endpoint pairs tried ascending) and spliced through a
    collection of partners. Returns (new path, block order, partners)."""
    order = sorted(todo)
    for a in order:
        for b in order:
            if a == b:
                continue
            q = search.find_hamiltonian_path_between(g, a, b, todo)
            if q is None:
                continue
            col = find_collection_of_partners(g, path, q)
            if col is not None:
                return _splice_collection(g, path, q, col), q.vertices, col.partners
    return None


def _insertion_replay(g: Digraph, path: Path, todo) -> tuple[Path, list[dict], set[int]]:
    """Grow `path` over `todo` using the insertion engine only: single
    vertices first, whole blocks when singles stall. The step log records
    each move; leftovers that no insertion reaches are returned as-is."""
    steps: list[dict] = []
    todo = set(todo)
    while todo:
        out = extend_as_much_as_possible(g, path, sorted(todo))
        steps.extend(
            {"kind": "vertex", "vertex": v, "position": i} for v, i in out.steps
        )
        path = out.extended
        todo = set(out.leftovers)
        if not todo:
            break
        hit = _try_block_insert(g, path, todo)
        if hit is None:
            break
        path, qv, partners = hit
        steps.append({"kind": "path", "vertices": list(qv), "partners": list(partners)})
        todo -= set(qv)
    return path, steps, todo


def _explain_hc(g: Digraph) -> dict | None:
    """Replay the constructive route: seed with the shortest cycle, then
    insert everything else."""
    start = None
    for m in range(2, g.n + 1):
        start = search.find_cycle_of_length(g, m)
        if start is not None:
            break
    if start is None:
        return None
    path = make_path(g, start.vertices)
    extra = set(range(g.n)) - set(start.vertices)
    path, steps, todo = _insertion_replay(g, path, extra)
    pv = path.vertices
    return {
        "method": "cycle-insertion",
        "start_cycle": list(start.vertices),
        "steps": steps,
        "path": list(pv),
        "complete": not todo and g.has_arc(pv[-1], pv[0]),
    }


def _explain_bypass(g: Digraph, order) -> dict:
    """Replay from the chord: the two endpoints form the seed path and the
    interior vertices get inserted between them."""
    u, w = order[0], order[-1]
    path = make_path(g, (u, w))
    extra = set(range(g.n)) - {u, w}
    path, steps, todo = _insertion_replay(g, path, extra)
    return {
        "method": "chord-insertion",
        "start_path": [u, w],
        "steps": steps,
        "path": list(path.vertices),
        "complete": not todo,
    }


def cmd_find(args) -> int:
    g = _load_digraph(args.input)
    structure = args.structure
    name, _, param = structure.partition(":")
    explain = None
    if name == "hc":
        hit = search.find_hamiltonian_cycle(g)
        witness = None if hit is None else {"vertices": list(hit.vertices)}
        if args.explain and hit is not None:
            explain = _explain_hc(g)
    elif name == "prehc":
        hit = search.find_pre_hamiltonian_cycle(g)
        witness = None if hit is None else {"vertices": list(hit.vertices)}
    elif name == "cycle":
        if not param:
            raise ValueError("structure 'cycle' needs a length, e.g. cycle:4")
        hit = search.find_cycle_of_length(g, id_int(param))
        witness = None if hit is None else {"vertices": list(hit.vertices)}
    elif name == "bypass":
        hit = search.find_hamiltonian_bypass(g)
        witness = None if hit is None else {"order": list(hit.order)}
        if args.explain and hit is not None:
            explain = _explain_bypass(g, hit.order)
    elif name == "dnk":
        if not param:
            raise ValueError("structure 'dnk' needs a parameter, e.g. dnk:3")
        hit = search.find_bypass_pattern(g, id_int(param))
        witness = None if hit is None else {"mapping": list(hit.mapping)}
    elif name == "goodcycle":
        hit = search.find_good_cycle(g)
        if hit is None:
            witness = None
        else:
            (off,) = set(range(g.n)) - set(hit.vertices)
            witness = {"vertices": list(hit.vertices), "off_vertex": off}
    else:
        raise ValueError(f"unknown structure {structure!r}")

    doc: dict = {"structure": structure, "found": hit is not None}
    if witness is not None:
        doc["witness"] = witness
    if args.explain:
        doc["explain"] = explain
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
    gen.add_argument("--inner", choices=("empty", "complete", "random", "explicit"), default="empty")
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
