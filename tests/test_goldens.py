"""Frozen outputs of the claim scans, of every registered condition and of
the cycle finders.

The files under golden/ are written by this module, run as a script with
src/ on the path:

    PYTHONPATH=src python tests/test_goldens.py

Claim reports are stored whole (elapsed time left out) and compared with key
order. Condition reports are too many to store (every n=3 and n=4 digraph and
a seeded n=5..7 sample, for each id), so each (id, group) keeps the number of
digraphs the condition holds on and the SHA-256 of the reports' JSON lines.
Search witnesses (cycles, paths between fixed ends, bypass orders and
pattern mappings) are kept the same way: for each (finder, group), over the
same digraphs plus every n=2 digraph, the number of witnesses found and the
SHA-256 of one JSON line of witnesses per digraph. Canonical forms are kept
by name for the families up to n=8 (K*_n, K*_{p,q}, C_n, D(n, k), d1, d0 and
T5) and, for 300 uniform plus 300 dense seeded masks at each of n=5..8, as the
number of distinct forms and the SHA-256 of the hexes in draw order.
`--dump ID GROUP` prints the lines of a condition id, a finder name or
`canonical`, so two checkouts can be diffed.
Rewrite the files only for an intended output change, and record why.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from hambypass import conditions, iso, search, verify
from hambypass import families as fam
from hambypass.verify import digraph_from_mask, mask_bits

GOLDEN = Path(__file__).parent / "golden"
CLAIMS_FILE = GOLDEN / "claims.json"
CONDITIONS_FILE = GOLDEN / "conditions.json"
SEARCH_FILE = GOLDEN / "search.json"
CANONICAL_FILE = GOLDEN / "canonical.json"

CLAIM_CASES = {
    "thm6_n3": lambda: verify.check_theorem6(3, workers=1),
    "thm6_n4": lambda: verify.check_theorem6(4, workers=1),
    "thm8_n3": lambda: verify.check_theorem8(3, workers=1),
    "thm8_n4": lambda: verify.check_theorem8(4, workers=1),
    "thm9_n4": lambda: verify.check_theorem9(4, workers=1),
    "thm11_n4": lambda: verify.check_theorem11(4, workers=1),
    "thm12_n5_sample500_seed3": lambda: verify.check_theorem12(
        5, sample=500, seed=3, workers=1
    ),
    "thm16_n6_min_in3_dense2000_seed5": lambda: verify.check_theorem16_conjecture(
        6, 3, sample=2000, seed=5, model="dense", workers=1
    ),
    "thm16_n6_min_in2_dense2000_seed5": lambda: verify.check_theorem16_conjecture(
        6, 2, sample=2000, seed=5, model="dense", workers=1
    ),
    "explore_thm14_n4": lambda: verify.explore_no_bypass(4, "thm14", workers=1),
    "thm6_n5": lambda: verify.check_theorem6(5, workers=1),
    "thm8_n5": lambda: verify.check_theorem8(5, workers=1),
    "thm9_n5": lambda: verify.check_theorem9(5, workers=1),
    "thm11_n5": lambda: verify.check_theorem11(5, workers=1),
    "thm12_n5": lambda: verify.check_theorem12(5, workers=1),
    "explore_a_k-1_n5": lambda: verify.explore_no_bypass(5, "a_k:-1", workers=1),
    "explore_degree_sum-3_n5": lambda: verify.explore_no_bypass(5, "degree_sum:-3", workers=1),
}

CONDITION_IDS = (
    "a_k:0",
    "a_k:-1",
    "a_k_inc:0",
    "meyniel",
    "degree_sum:-2",
    "ghouila_houri",
    "woodall",
    "nash_williams",
    "thm13",
    "thm14",
    "thm15",
    "thm16",
    "thm16relaxed",
    "lemma5",
)


def condition_groups() -> dict[str, list[tuple[int, int]]]:
    """(n, mask) lists: all of n=3, all of n=4, and 100 uniform plus 100
    dense seeded draws at each of n=5, 6, 7."""
    rng = random.Random(7)
    sample = []
    for n in (5, 6, 7):
        bits = mask_bits(n)
        sample += [(n, rng.getrandbits(bits)) for _ in range(100)]
        sample += [(n, rng.getrandbits(bits) | rng.getrandbits(bits)) for _ in range(100)]
    return {
        "n3": [(3, m) for m in range(1 << mask_bits(3))],
        "n4": [(4, m) for m in range(1 << mask_bits(4))],
        "sample_n5_n7": sample,
    }


def condition_lines(cond_id: str, graphs) -> list[str]:
    check = conditions.resolve(cond_id).check
    return [json.dumps(check(digraph_from_mask(n, m)).to_dict()) for n, m in graphs]


def condition_summary(cond_id: str, graphs) -> dict:
    lines = condition_lines(cond_id, graphs)
    return {
        "holds": sum(line == '{"holds": true}' for line in lines),
        "sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
    }


def _lengths(g):
    return range(2, g.n + 1)


def _paths_between(g):
    """Every ordered endpoint pair, over all of V and then over each V - y."""
    sets = [range(g.n)] + [[v for v in range(g.n) if v != y] for y in range(g.n)]
    return [
        search.find_hamiltonian_path_between(g, u, v, s)
        for s in sets
        for u in s
        for v in s
        if u != v
    ]


# Each finder maps a digraph to its list of results, each a witness or None.
SEARCH_CASES = {
    "find_cycle_of_length": lambda g: [search.find_cycle_of_length(g, m) for m in _lengths(g)],
    "iter_cycles_of_length": lambda g: [
        c for m in _lengths(g) for c in search.iter_cycles_of_length(g, m)
    ],
    "find_hamiltonian_cycle": lambda g: [search.find_hamiltonian_cycle(g)],
    "find_pre_hamiltonian_cycle": lambda g: [search.find_pre_hamiltonian_cycle(g)],
    "find_good_cycle": lambda g: [search.find_good_cycle(g)],
    "find_hamiltonian_bypass": lambda g: [search.find_hamiltonian_bypass(g)],
    "find_hamiltonian_path_between": _paths_between,
    "find_bypass_pattern": lambda g: [
        search.find_bypass_pattern(g, k) for k in (_lengths(g) if g.n >= 3 else ())
    ],
}


def _witness_vertices(w) -> list[int]:
    """The vertex tuple of a Cycle or Path, a BypassWitness or a
    PatternEmbedding."""
    for shape in ("vertices", "order", "mapping"):
        if hasattr(w, shape):
            return list(getattr(w, shape))
    raise TypeError(f"unknown witness shape {w!r}")


def search_groups() -> dict[str, list[tuple[int, int]]]:
    """The condition groups plus every n=2 digraph."""
    return {"n2": [(2, m) for m in range(1 << mask_bits(2))], **condition_groups()}


def search_results(finder: str, graphs) -> list[list]:
    case = SEARCH_CASES[finder]
    return [
        [None if c is None else _witness_vertices(c) for c in case(digraph_from_mask(n, m))]
        for n, m in graphs
    ]


def search_summary(finder: str, graphs) -> dict:
    results = search_results(finder, graphs)
    return {
        "found": sum(c is not None for res in results for c in res),
        "sha256": hashlib.sha256("\n".join(map(json.dumps, results)).encode()).hexdigest(),
    }


def canonical_families() -> dict:
    """Named family members with n <= 8."""
    named = {"t5": fam.t5()}
    for n in range(1, 9):
        named[f"K*_{n}"] = fam.complete_digraph(n)
    for p in range(1, 5):
        for q in range(p, 9 - p):
            named[f"K*_{p},{q}"] = fam.complete_bipartite_digraph(p, q)
    for n in range(2, 9):
        named[f"C_{n}"] = fam.directed_cycle(n)
    for n in range(3, 9):
        for k in range(2, n + 1):
            named[f"D({n},{k})"] = fam.bypass_pattern(n, k)
    for n in range(4, 9):
        for k in range(1, n - 1):
            named[f"d1({n},{k})"] = fam.d1(n, k)
    for n in (5, 7):
        inners = [fam.InnerSpec.empty(), fam.InnerSpec.complete()]
        inners += [fam.InnerSpec.random(seed) for seed in range(3)]
        for inner in inners:
            named[f"d0({n},{inner.kind}{inner.seed if inner.kind == 'random' else ''})"] = (
                fam.d0(n, inner)
            )
    return named


def canonical_groups() -> dict[str, list[tuple[int, int]]]:
    """300 uniform and 300 dense seeded masks at each of n=5..8."""
    rng = random.Random(11)
    groups = {}
    for n in range(5, 9):
        bits = mask_bits(n)
        groups[f"uniform_n{n}"] = [(n, rng.getrandbits(bits)) for _ in range(300)]
        groups[f"dense_n{n}"] = [
            (n, rng.getrandbits(bits) | rng.getrandbits(bits)) for _ in range(300)
        ]
    return groups


def canonical_hexes(graphs) -> list[str]:
    return [iso.canonical_form(digraph_from_mask(n, m)).hex for n, m in graphs]


def canonical_doc() -> dict:
    doc = {name: iso.canonical_form(g).hex for name, g in canonical_families().items()}
    for group, graphs in canonical_groups().items():
        hexes = canonical_hexes(graphs)
        doc[group] = {
            "classes": len(set(hexes)),
            "sha256": hashlib.sha256("\n".join(hexes).encode()).hexdigest(),
        }
    return doc


def claim_doc(name: str) -> dict:
    return CLAIM_CASES[name]().to_json_dict(include_elapsed=False)


def _load(path: Path):
    return json.loads(path.read_text(), object_pairs_hook=list)


def _pairs(doc):
    """Nested key/value pair lists, so comparisons also check key order."""
    return json.loads(json.dumps(doc), object_pairs_hook=list)


@pytest.mark.parametrize("name", list(CLAIM_CASES))
def test_claim_report_matches_golden(name):
    want = dict(_load(CLAIMS_FILE))[name]
    assert _pairs(claim_doc(name)) == want


@pytest.mark.parametrize("cond_id", CONDITION_IDS)
def test_condition_reports_match_golden(cond_id):
    want = json.loads(CONDITIONS_FILE.read_text())[cond_id]
    groups = condition_groups()
    assert {group: condition_summary(cond_id, groups[group]) for group in groups} == want


@pytest.mark.parametrize("finder", list(SEARCH_CASES))
def test_search_witnesses_match_golden(finder):
    want = json.loads(SEARCH_FILE.read_text())[finder]
    groups = search_groups()
    assert {group: search_summary(finder, groups[group]) for group in groups} == want


def test_canonical_forms_match_golden():
    assert canonical_doc() == json.loads(CANONICAL_FILE.read_text())


def write_goldens() -> None:
    claims = {name: claim_doc(name) for name in CLAIM_CASES}
    CLAIMS_FILE.write_text(json.dumps(claims, indent=2) + "\n")
    groups = condition_groups()
    conds = {
        cid: {group: condition_summary(cid, graphs) for group, graphs in groups.items()}
        for cid in CONDITION_IDS
    }
    CONDITIONS_FILE.write_text(json.dumps(conds, indent=2) + "\n")
    groups = search_groups()
    found = {
        finder: {group: search_summary(finder, graphs) for group, graphs in groups.items()}
        for finder in SEARCH_CASES
    }
    SEARCH_FILE.write_text(json.dumps(found, indent=2) + "\n")
    CANONICAL_FILE.write_text(json.dumps(canonical_doc(), indent=2) + "\n")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--dump"]:
        cid, group = sys.argv[2], sys.argv[3]
        if cid == "canonical":
            print("\n".join(canonical_hexes(canonical_groups()[group])))
        elif cid in SEARCH_CASES:
            print("\n".join(map(json.dumps, search_results(cid, search_groups()[group]))))
        else:
            print("\n".join(condition_lines(cid, condition_groups()[group])))
    else:
        write_goldens()
