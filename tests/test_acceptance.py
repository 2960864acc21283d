"""Acceptance suite: ten numbered criteria, one pass/fail line each.

Every test computes its verdict, records it for the terminal summary via
conftest.record_criterion, and then asserts it.  Heavy exhaustive scans are
run once per session and shared.
"""

import json
import random
import time

import pytest

from conftest import record_criterion, seeded_corpus
from test_cli import T5_TEXT, run_cli

from naive_oracles import (
    naive_a_k,
    naive_canonical_bits,
    naive_has_bypass,
    naive_has_cycle_of_length,
    naive_has_hamiltonian_cycle,
    naive_is_strong,
)

from hambypass import families as fam
from hambypass import insertion as ins
from hambypass import iso
from hambypass.conditions import check_a_k
from hambypass.digraph import (
    format_digraph,
    induced_subdigraph,
    is_strong,
    make_path,
    parse_digraph,
)
from hambypass.search import (
    find_cycle_of_length,
    find_hamiltonian_bypass,
    find_hamiltonian_cycle,
)
from hambypass.verify import (
    EnumerationTask,
    check_theorem6,
    check_theorem8,
    check_theorem9,
    check_theorem11,
    check_theorem12,
    check_theorem16_conjecture,
    digraph_from_mask,
    enumerate_digraphs,
)

WORKERS = 4


def timed(fn):
    t0 = time.monotonic()
    rep = fn()
    return rep, time.monotonic() - t0


@pytest.fixture(scope="module")
def scans():
    """Each exhaustive theorem scan used by several criteria, run once."""
    cache = {}
    for key, fn in (
        (("thm12", 4), lambda: check_theorem12(4, workers=WORKERS)),
        (("thm12", 5), lambda: check_theorem12(5, workers=WORKERS)),
        (("thm6", 4), lambda: check_theorem6(4, workers=WORKERS)),
        (("thm6", 5), lambda: check_theorem6(5, workers=WORKERS)),
        (("thm11", 4), lambda: check_theorem11(4, workers=WORKERS)),
        (("thm11", 5), lambda: check_theorem11(5, workers=WORKERS)),
        (("thm9", 4), lambda: check_theorem9(4, workers=WORKERS)),
        (("thm9", 5), lambda: check_theorem9(5, workers=WORKERS)),
        (("thm8", 3), lambda: check_theorem8(3, workers=WORKERS)),
        (("thm8", 4), lambda: check_theorem8(4, workers=WORKERS)),
        (("thm8", 5), lambda: check_theorem8(5, workers=WORKERS)),
    ):
        cache[key] = timed(fn)
    return cache


def classes(rep):
    return [e.canonical_hex for e in rep.exceptions]


# --------------------------------------------------------------------------
# criterion 1: n=4 Hamiltonian-bypass scan, exhaustive, single-threaded
# --------------------------------------------------------------------------

def test_criterion_01():
    rep, dt = timed(lambda: check_theorem12(4, workers=1))
    ok = (
        rep.mode == "exhaustive"
        and rep.scanned == 4096
        and rep.passed_filters == 660
        and rep.exceptions == ()
        and rep.verdict == "confirmed"
        and dt < 5.0
    )
    detail = (
        f"all {rep.scanned} digraphs scanned, {rep.passed_filters} survivors, "
        f"0 exceptions, {dt:.2f}s on one worker"
    )
    record_criterion(1, ok, detail)
    assert ok, detail


# --------------------------------------------------------------------------
# criterion 2: n=5 bypass exceptions exist and are exactly T(5)
# --------------------------------------------------------------------------

def test_criterion_02(scans):
    rep, dt = scans[("thm12", 5)]
    hexes = classes(rep)
    all_t5 = all(iso.is_isomorphic_to_t5(e.witness) for e in rep.exceptions)
    ok = (
        rep.scanned == 1 << 20
        and rep.passed_filters == 97524
        and len(rep.exceptions) >= 1
        and all_t5
        and hexes == [iso.canonical_form(fam.t5()).hex]
        and rep.verdict == "confirmed"
        and dt < 600.0
    )
    detail = (
        f"{rep.passed_filters} survivors, bypass-free classes {hexes} "
        f"(all isomorphic to T(5)), {dt:.1f}s on {WORKERS} workers"
    )
    record_criterion(2, ok, detail)
    assert ok, detail


# --------------------------------------------------------------------------
# criterion 3: Hamiltonian-cycle scan clean at n=4 and n=5
# --------------------------------------------------------------------------

def test_criterion_03(scans):
    rep4, _ = scans[("thm6", 4)]
    rep5, _ = scans[("thm6", 5)]
    ok = (
        rep4.exceptions == ()
        and rep4.verdict == "confirmed"
        and rep4.passed_filters == 660
        and rep5.exceptions == ()
        and rep5.verdict == "confirmed"
        and rep5.passed_filters == 97524
    )
    detail = (
        f"no Hamiltonian-cycle failure among {rep4.passed_filters} (n=4) and "
        f"{rep5.passed_filters} (n=5) survivors"
    )
    record_criterion(3, ok, detail)
    assert ok, detail


# --------------------------------------------------------------------------
# criterion 4: (n-1)-cycle exceptions are the balanced bipartite digraphs
# --------------------------------------------------------------------------

def test_criterion_04(scans):
    rep4, _ = scans[("thm11", 4)]
    rep5, _ = scans[("thm11", 5)]
    kb22 = fam.complete_bipartite_digraph(2, 2)
    kb22_satisfies = check_a_k(kb22, 0).holds  # evaluated here, not assumed
    exception_present = len(rep4.exceptions) > 0
    all_bipartite = all(
        iso.is_balanced_complete_bipartite(e.witness) for e in rep4.exceptions
    )
    ok = (
        rep4.verdict == "confirmed"
        and all_bipartite
        and exception_present == kb22_satisfies
        and rep5.exceptions == ()
        and rep5.verdict == "confirmed"
    )
    detail = (
        f"n=4 exceptions {classes(rep4)} all balanced complete bipartite; "
        f"K*_2,2 meets the degree condition: {kb22_satisfies}, exception "
        f"observed: {exception_present}; n=5 clean"
    )
    record_criterion(4, ok, detail)
    assert ok, detail


# --------------------------------------------------------------------------
# criterion 5: spanning dnk:3 pattern scan clean at n=4 and n=5
# --------------------------------------------------------------------------

def test_criterion_05(scans):
    rep4, _ = scans[("thm9", 4)]
    rep5, _ = scans[("thm9", 5)]
    ok = (
        rep4.exceptions == ()
        and rep4.verdict == "confirmed"
        and rep4.passed_filters == 732
        and rep5.exceptions == ()
        and rep5.verdict == "confirmed"
        and rep5.passed_filters == 134964
    )
    detail = (
        f"no spanning dnk:3 pattern failure among {rep4.passed_filters} (n=4) "
        f"and {rep5.passed_filters} (n=5) survivors"
    )
    record_criterion(5, ok, detail)
    assert ok, detail


# --------------------------------------------------------------------------
# criterion 6: degree-sum exception catalog matches the named families
# --------------------------------------------------------------------------

def test_criterion_06(scans):
    def canon(g):
        return iso.canonical_form(g).hex

    allowed = {
        3: {canon(fam.directed_cycle(3))},
        4: {canon(fam.d1(4, 1)), canon(fam.d1(4, 2))},
        5: (
            {canon(fam.d1(5, k)) for k in (1, 2, 3)}
            | {canon(fam.t5())}
            | {canon(fam.d0(5, spec)) for spec in fam.iter_inner_specs(2)}
        ),
    }
    observed = {n: set(classes(scans[("thm8", n)][0])) for n in (3, 4, 5)}
    per_n = {n: observed[n] <= allowed[n] for n in (3, 4, 5)}
    ok = all(per_n.values())
    parts = []
    for n in (3, 4, 5):
        if per_n[n]:
            parts.append(f"n={n} ok ({len(observed[n])} classes)")
        else:
            parts.append(f"n={n} EXTRA {sorted(observed[n] - allowed[n])}")
    detail = "; ".join(parts)
    if not per_n[3] and observed[3] - allowed[3] == {"04e"}:
        detail += (
            " — the extra n=3 class is the two-way star K*_1,2; it is strong, "
            "meets degree_sum:-2 and has no bypass, but families.d1 starts at "
            "n=4, so the allowed set at n=3 holds only the directed triangle"
        )
    record_criterion(6, ok, detail)
    assert ok, detail


# --------------------------------------------------------------------------
# criterion 7: constructed families satisfy their advertised properties
# --------------------------------------------------------------------------

def test_criterion_07():
    t0 = time.monotonic()
    failures = []
    presets = (
        fam.InnerSpec("empty"),
        fam.InnerSpec("complete"),
        fam.InnerSpec("explicit", arcs=((0, 1),)),
        fam.InnerSpec("random", seed=11),
    )
    checked = 0
    for n in (5, 7, 9):
        for spec in presets:
            g = fam.d0(n, spec)
            checked += 1
            if not (
                is_strong(g)
                and check_a_k(g, -1).holds
                and find_hamiltonian_bypass(g) is None
            ):
                failures.append(f"d0({n},{spec.kind})")
    for n, k in ((4, 1), (4, 2), (6, 2), (7, 3)):
        g = fam.d1(n, k)
        checked += 1
        if not (
            is_strong(g)
            and check_a_k(g, -1).holds
            and find_hamiltonian_bypass(g) is None
        ):
            failures.append(f"d1({n},{k})")
    t5 = fam.t5()
    checked += 1
    if not (
        is_strong(t5)
        and check_a_k(t5, 0).holds
        and find_hamiltonian_cycle(t5) is not None
        and find_hamiltonian_bypass(t5) is None
    ):
        failures.append("t5")
    dt = time.monotonic() - t0
    ok = not failures and dt < 30.0
    detail = f"{checked} family instances verified in {dt:.1f}s" + (
        f"; failures: {failures}" if failures else ""
    )
    record_criterion(7, ok, detail)
    assert ok, detail


# --------------------------------------------------------------------------
# criterion 8: insertion-lemma property sweeps
# --------------------------------------------------------------------------

def greedy_path_verts(g, rng, max_len=None):
    verts = list(range(g.n))
    rng.shuffle(verts)
    p = [verts[0]]
    limit = max_len or g.n - 1
    for v in verts[1:]:
        if g.has_arc(p[-1], v) and len(p) < limit:
            p.append(v)
    return p


def greedy_chain(g, pool):
    if not pool:
        return []
    q = [pool[0]]
    for v in pool[1:]:
        if g.has_arc(q[-1], v):
            q.append(v)
    return q


def test_criterion_08():
    t0 = time.monotonic()
    violations = []
    hits = {"lemma1": 0, "lemma2": 0, "lemma3": 0, "lemma4": 0, "lemma6": 0}
    corpus = seeded_corpus(seed=801, count=1100, n_lo=3, n_hi=9)
    assert len(corpus) >= 1000

    for rng, g in corpus:
        pv = greedy_path_verts(g, rng, max_len=max(2, g.n - 2))
        off = [v for v in range(g.n) if v not in pv]
        if len(pv) >= 2 and off:
            p = make_path(g, pv)
            # lemma 2: hypothesis case implies an insertion partner
            for x in off:
                if ins.lemma2_hypothesis(g, p, x) is not None:
                    hits["lemma2"] += 1
                    if ins.find_partner_for_vertex(g, p, x) is None:
                        violations.append(("lemma2", g, pv, x))
            qv = greedy_chain(g, off)
            q = make_path(g, qv)
            # lemma 4: degree hypothesis implies a whole-path partner
            if ins.lemma4_hypothesis(g, p, q):
                hits["lemma4"] += 1
                if ins.find_partner_for_path(g, p, q) is None:
                    violations.append(("lemma4", g, pv, qv))
            # lemma 6: a collection of partners implies a valid merge
            col = ins.find_collection_of_partners(g, p, q)
            if col is not None:
                hits["lemma6"] += 1
                merged = ins.multi_insert(g, p, q)
                if (
                    merged is None
                    or merged.vertices[0] != pv[0]
                    or merged.vertices[-1] != pv[-1]
                    or set(merged.vertices) != set(pv) | set(qv)
                    or [v for v in merged.vertices if v in set(pv)] != pv
                ):
                    violations.append(("lemma6", g, pv, qv))

        # lemma 1/3: cycle-extension conclusions confirmed by the oracle
        if g.n >= 4:
            c = find_cycle_of_length(g, g.n - 2)
            if c is not None:
                coff = [v for v in range(g.n) if v not in c.vertices]
                for x in coff:
                    if ins.lemma1_hypothesis(g, c, x):
                        hits["lemma1"] += 1
                        sub, _ = induced_subdigraph(g, set(c.vertices) | {x})
                        for m in range(2, len(c.vertices) + 2):
                            if not naive_has_cycle_of_length(sub, m):
                                violations.append(("lemma1", g, c.vertices, x, m))
                qv = greedy_chain(g, coff)[:2]
                if qv:
                    q = make_path(g, qv)
                    if ins.lemma3_hypothesis(g, c, q):
                        hits["lemma3"] += 1
                        r = len(qv)
                        sub, _ = induced_subdigraph(g, set(c.vertices) | set(qv))
                        for m in range(r + 1, len(c.vertices) + r + 1):
                            if not naive_has_cycle_of_length(sub, m):
                                violations.append(("lemma3", g, c.vertices, qv, m))

    # lemma 5 and the bypass-free consequences, exhaustively at n=4,5
    sweeps = {}
    for n in (4, 5):
        r5 = enumerate_digraphs(
            EnumerationTask(n=n, filters=("a_k:0", "strong"), evaluator="lemma5"),
            workers=WORKERS,
        )
        sweeps[f"lemma5@{n}"] = (r5.passed_filters, len(r5.flagged))
        if r5.flagged:
            violations.append(("lemma5", n, r5.flagged[:3]))
        r7 = enumerate_digraphs(
            EnumerationTask(n=n, evaluator="lemma7_sweep"), workers=WORKERS
        )
        sweeps[f"lemma7@{n}"] = (r7.scanned, len(r7.flagged))
        if r7.flagged:
            violations.append(("lemma7", n, r7.flagged[:3]))

    dt = time.monotonic() - t0
    floors = {"lemma1": 20, "lemma2": 30, "lemma3": 10, "lemma4": 30, "lemma6": 30}
    thin = {k: hits[k] for k, lo in floors.items() if hits[k] < lo}
    ok = not violations and not thin and dt < 300.0
    detail = (
        f"0 violations over {len(corpus)} sampled digraphs "
        f"(hits {hits}) plus exhaustive n=4,5 sweeps in {dt:.1f}s"
        if ok
        else f"violations={violations[:3]} thin-coverage={thin} in {dt:.1f}s"
    )
    record_criterion(8, ok, detail)
    assert ok, detail


# --------------------------------------------------------------------------
# criterion 9: n=6 sampled run, proven floor and open-question floor
# --------------------------------------------------------------------------

def test_criterion_09():
    rep3, dt3 = timed(
        lambda: check_theorem16_conjecture(
            6, 3, sample=10**6, seed=7, model="dense", workers=WORKERS
        )
    )
    ok3 = (
        rep3.scanned == 10**6
        and rep3.exceptions == ()
        and rep3.verdict == "confirmed"
        and dt3 < 600.0
    )

    runs = [
        check_theorem16_conjecture(
            6, 2, sample=10**5, seed=1, model="dense", workers=w
        )
        for w in (1, WORKERS)
    ]
    docs = [json.dumps(r.to_json_dict(include_elapsed=False)) for r in runs]
    ok2 = (
        runs[0].verdict == "report-only"
        and runs[0].scanned == 10**5
        and docs[0] == docs[1]
    )
    ok = ok3 and ok2
    detail = (
        f"in-degree>=3: {rep3.scanned} samples, {rep3.passed_filters} past "
        f"filters, 0 exceptions in {dt3:.1f}s; in-degree>=2 probe: "
        f"report-only, {len(runs[0].exceptions)} flagged classes, "
        f"deterministic across worker counts"
    )
    record_criterion(9, ok, detail)
    assert ok, detail


# --------------------------------------------------------------------------
# criterion 10: determinism, CLI round-trips, oracle cross-checks
# --------------------------------------------------------------------------

def test_criterion_10(scans):
    problems = []

    # (a) worker-count determinism, exhaustive and sampled
    fp = lambda rep: json.dumps(rep.to_json_dict(include_elapsed=False))
    if len({fp(check_theorem8(4, workers=w)) for w in (1, 2, 8)}) != 1:
        problems.append("exhaustive report varies with worker count")
    sampled = {
        fp(check_theorem12(5, sample=2000, seed=42, workers=w)) for w in (1, 2, 8)
    }
    if len(sampled) != 1:
        problems.append("sampled report varies with worker count")

    # (b) CLI round-trips and exit codes
    for argv in (
        ["gen", "kstar", "--n", "4"],
        ["gen", "kbipartite", "--p", "2", "--q", "3"],
        ["gen", "cycle", "--n", "6"],
        ["gen", "dnk", "--n", "5", "--k", "3"],
        ["gen", "t5"],
        ["gen", "d0", "--n", "5", "--inner", "random", "--seed", "11"],
        ["gen", "d1", "--n", "6", "--k", "2"],
    ):
        code, out, _ = run_cli(argv)
        if code != 0 or format_digraph(parse_digraph(out)) != out:
            problems.append(f"round-trip failed for {argv}")
    for argv, stdin_text, want in (
        (["verify", "thm12", "--n", "4"], "", 0),
        (["verify", "thm6", "--n", "3"], "", 1),
        (["verify", "thm16", "--n", "5", "--sample", "1", "--seed", "1"], "", 2),
        (["check", "-", "--cond", "bogus"], T5_TEXT, 2),
        (["find", "-", "zigzag"], T5_TEXT, 2),
        (["frobnicate"], "", 2),
    ):
        got = run_cli(argv, stdin_text)[0]
        if got != want:
            problems.append(f"exit code {got} != {want} for {argv}")

    # (c) library vs permutation oracles
    compared = 0

    def cross_check(g):
        nonlocal compared
        compared += 1
        if is_strong(g) != naive_is_strong(g):
            problems.append(f"strongness mismatch {g}")
        if (find_hamiltonian_cycle(g) is not None) != naive_has_hamiltonian_cycle(g):
            problems.append(f"hamiltonian-cycle mismatch {g}")
        if (find_hamiltonian_bypass(g) is not None) != naive_has_bypass(g):
            problems.append(f"bypass mismatch {g}")
        if iso.canonical_form(g).bits != naive_canonical_bits(g):
            problems.append(f"canonical-form mismatch {g}")
        if g.n >= 3 and check_a_k(g, 0).holds != (naive_a_k(g, 0) is None):
            problems.append(f"degree-condition mismatch {g}")

    for mask in range(64):
        cross_check(digraph_from_mask(3, mask))
    rng = random.Random(1009)
    for _ in range(400):
        cross_check(digraph_from_mask(4, rng.randrange(1 << 12)))
    for _ in range(200):
        cross_check(digraph_from_mask(5, rng.randrange(1 << 20)))

    ok = not problems
    detail = (
        f"reports bit-identical across 1/2/8 workers; CLI round-trips and "
        f"exit codes hold; {compared} digraphs agree with permutation oracles"
        if ok
        else f"problems: {problems[:4]}"
    )
    record_criterion(10, ok, detail)
    assert ok, detail
