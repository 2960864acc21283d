"""Enumeration engine and theorem scans at n <= 4 (n=5 runs live in acceptance)."""

import json
import random
from itertools import chain

import pytest
from hypothesis import given
from hypothesis import strategies as st

from naive_oracles import naive_a_k, naive_has_bypass, naive_is_strong, reference_scan

from hambypass.digraph import Digraph, OrderError, is_strong, make_cycle, new_digraph
from hambypass import families as fam
from hambypass import insertion, iso, verify
from hambypass.conditions import check_a_k, resolve
from hambypass.insertion import lemma7_consequences
from hambypass.search import (
    _bypass_raw,
    _cycles_raw,
    find_hamiltonian_bypass,
    find_hamiltonian_cycle,
    find_pre_hamiltonian_cycle,
)
from hambypass.verify import (
    CLAIMS,
    SAMPLE_CHUNK,
    EnumerationTask,
    check_theorem6,
    check_theorem8,
    check_theorem9,
    check_theorem11,
    check_theorem12,
    check_theorem16_conjecture,
    digraph_from_mask,
    enumerate_digraphs,
    explore_no_bypass,
    mask_bits,
    mask_of,
)


# --------------------------------------------------------------------------
# mask encoding
# --------------------------------------------------------------------------

def test_mask_bits():
    assert [mask_bits(n) for n in (1, 2, 3, 4, 5)] == [0, 2, 6, 12, 20]


@given(st.integers(min_value=1, max_value=6), st.data())
def test_mask_round_trip(n, data):
    mask = data.draw(st.integers(min_value=0, max_value=(1 << mask_bits(n)) - 1))
    g = digraph_from_mask(n, mask)
    assert mask_of(g) == mask
    assert g.n == n and g.m == mask.bit_count()


def test_mask_of_t5(t5):
    assert digraph_from_mask(5, mask_of(t5)) == t5


@pytest.mark.parametrize("n", [0, 17, -1, 2.0, None, True])
def test_digraph_from_mask_refuses_a_bad_order(n):
    with pytest.raises(OrderError, match="order must be an integer in"):
        digraph_from_mask(n, 0)


@pytest.mark.parametrize("n, mask", [(3, 1 << 6), (3, -1), (1, 1), (16, 1 << 240)])
def test_digraph_from_mask_refuses_a_mask_out_of_range(n, mask):
    with pytest.raises(ValueError, match="outside"):
        digraph_from_mask(n, mask)
    assert digraph_from_mask(n, 0).m == 0
    assert digraph_from_mask(n, (1 << mask_bits(n)) - 1).m == mask_bits(n)


def _decoder_masks(n):
    """Every mask up to n = 4; from n = 5 the empty and the complete mask
    plus 300 seeded uniform and 300 seeded dense draws."""
    bits = mask_bits(n)
    if n <= 4:
        return range(1 << bits)
    rng = random.Random(n)
    uniform = [rng.getrandbits(bits) for _ in range(300)]
    dense = [rng.getrandbits(bits) | rng.getrandbits(bits) for _ in range(300)]
    return [0, (1 << bits) - 1, *uniform, *dense]


@pytest.mark.parametrize("n", range(1, 17))
def test_decoder_matches_digraph_from_mask(n):
    decode = verify._decoder(n)
    for mask in _decoder_masks(n):
        g = digraph_from_mask(n, mask)
        rows, cols = list(g.rows), list(g.cols)
        expected = (rows, cols, [r.bit_count() for r in rows], [c.bit_count() for c in cols])
        assert decode(mask) == expected, mask


def test_decoder_returns_fresh_lists():
    decode = verify._decoder(4)
    first, second = decode(0b101), decode(0b101)
    assert first == second
    assert all(a is not b for a, b in zip(first, second))
    first[0][0] = 99
    assert decode(0b101) == second


# --------------------------------------------------------------------------
# enumeration basics
# --------------------------------------------------------------------------

def test_enumerate_counts_without_filters():
    r = enumerate_digraphs(EnumerationTask(n=3), workers=1)
    assert (r.scanned, r.passed_filters) == (64, 64)


def test_enumerate_strong_n2_unique_survivor():
    seen = []
    r = enumerate_digraphs(EnumerationTask(n=2, filters=("strong",)), visitor=seen.append, workers=1)
    assert (r.scanned, r.passed_filters) == (4, 1)
    assert seen == [3]  # the 2-cycle


def test_enumerate_golden_survivor_counts():
    r3 = enumerate_digraphs(EnumerationTask(n=3, filters=("a_k:0", "strong")), workers=2)
    assert (r3.scanned, r3.passed_filters) == (64, 18)
    r4 = enumerate_digraphs(EnumerationTask(n=4, filters=("a_k:0", "strong")), workers=2)
    assert (r4.scanned, r4.passed_filters) == (4096, 660)
    # the inclusive-triple reading agrees at n=4 (it diverges at n=3: 15 survivors)
    r4i = enumerate_digraphs(EnumerationTask(n=4, filters=("a_k_inc:0", "strong")), workers=2)
    assert r4i.passed_filters == 660
    r3i = enumerate_digraphs(EnumerationTask(n=3, filters=("a_k_inc:0", "strong")), workers=2)
    assert r3i.passed_filters == 15


@pytest.mark.parametrize("workers", [1, 2])
def test_scan_started_from_a_visitor_leaves_the_outer_scan_alone(workers):
    """Both scans are sampled, so both run on the chunk context: the inner
    one, started from the outer one's first visit, must not swap the
    context of the outer one's later chunks."""
    inner = []

    def visit(mask):
        if not inner:
            inner_task = EnumerationTask(3, "sample", sample_count=100, seed=2)
            inner.append(enumerate_digraphs(inner_task, visitor=lambda m: None, workers=1))

    task = EnumerationTask(5, "sample", ("a_k:0", "strong"), 3 * SAMPLE_CHUNK, seed=1)
    r = enumerate_digraphs(task, visitor=visit, workers=workers)
    assert r == reference_scan(task)
    assert 0 < r.passed_filters < r.scanned
    assert (inner[0].scanned, inner[0].passed_filters) == (100, 100)


def test_enumerate_filters_match_direct_evaluation():
    survivors = []
    enumerate_digraphs(
        EnumerationTask(n=3, filters=("a_k:0", "strong")), visitor=survivors.append, workers=1
    )
    expected = []
    for mask in range(64):
        g = digraph_from_mask(3, mask)
        if naive_is_strong(g) and naive_a_k(g, 0):
            expected.append(mask)
    assert survivors == expected


def test_enumerate_min_degree_filters():
    seen = []
    enumerate_digraphs(
        EnumerationTask(n=3, filters=("min_out:1", "min_in:1")), visitor=seen.append, workers=1
    )
    for mask in seen:
        g = digraph_from_mask(3, mask)
        assert all(g.out_degree(v) >= 1 and g.in_degree(v) >= 1 for v in range(3))
    assert len(seen) == sum(
        1
        for mask in range(64)
        if all(
            digraph_from_mask(3, mask).out_degree(v) >= 1
            and digraph_from_mask(3, mask).in_degree(v) >= 1
            for v in range(3)
        )
    )


def _sampled_masks(n, filters=(), seed=11, count=512):
    seen = []
    task = EnumerationTask(n=n, mode="sample", filters=filters, sample_count=count, seed=seed)
    res = enumerate_digraphs(task, visitor=seen.append, workers=1)
    return res, seen


@pytest.mark.parametrize("n", range(2, 17))
def test_min_in_filter_matches_object_api_at_every_sampled_order(n):
    _, draws = _sampled_masks(n)
    for t in sorted({1, n // 3, n // 2}):
        res, survivors = _sampled_masks(n, (f"min_in:{t}",))
        expected = [
            mask
            for mask in draws
            if min(digraph_from_mask(n, mask).in_degree(v) for v in range(n)) >= t
        ]
        assert survivors == expected, f"n={n} min_in:{t}"
        assert res.passed_filters == len(expected)


def test_sampled_n10_passed_filters_matches_object_api():
    filters = ("min_out:3", "min_in:3", "strong")
    _, draws = _sampled_masks(10, seed=1, count=4096)
    res, _ = _sampled_masks(10, filters, seed=1, count=4096)
    expected = 0
    for mask in draws:
        g = digraph_from_mask(10, mask)
        if (
            min(g.out_degree(v) for v in range(10)) >= 3
            and min(g.in_degree(v) for v in range(10)) >= 3
            and naive_is_strong(g)
        ):
            expected += 1
    assert expected > 0
    assert (res.scanned, res.passed_filters) == (4096, expected)


_OBJECT_FINDERS = {
    "no_hc": find_hamiltonian_cycle,
    "no_prehc": find_pre_hamiltonian_cycle,
    "no_bypass": find_hamiltonian_bypass,
}


@pytest.mark.parametrize("evaluator", list(_OBJECT_FINDERS))
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_evaluator_flags_exactly_where_object_finder_fails(n, evaluator):
    res = enumerate_digraphs(EnumerationTask(n=n, evaluator=evaluator), workers=1)
    finder = _OBJECT_FINDERS[evaluator]
    expected = [
        mask for mask in range(1 << mask_bits(n)) if finder(digraph_from_mask(n, mask)) is None
    ]
    assert list(res.flagged) == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lemma7_sweep_flags_nothing_at_small_orders(n, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return _bypass_raw(*args)

    monkeypatch.setattr(verify, "_bypass_raw", counted)
    res = enumerate_digraphs(EnumerationTask(n=n, evaluator="lemma7_sweep"), workers=1)
    assert (res.scanned, res.flagged) == (1 << mask_bits(n), ())
    assert calls == []  # every failing cycle is read off as a bypass


_SWEEP_SAMPLE_N5 = dict(n=5, mode="sample", sample_count=20000, seed=11)


def test_lemma7_sweep_fallback_search_clears_every_failing_cycle(monkeypatch):
    monkeypatch.setattr(verify, "_cycle_bypass_raw", lambda rows, cols, cyc, y: None)
    for n in (1, 2, 3, 4):
        res = enumerate_digraphs(EnumerationTask(n=n, evaluator="lemma7_sweep"), workers=1)
        assert res.flagged == ()
    task = EnumerationTask(**_SWEEP_SAMPLE_N5, evaluator="lemma7_sweep")
    res = enumerate_digraphs(task, workers=1)
    assert (res.scanned, res.flagged) == (20000, ())


def _sweep_before_the_cycle_bypass(n, rows, cols, dout, din):
    """The lemma-7 sweep as it was before it read bypasses off the cycles:
    one full bypass search first, then the clauses of every (n-1)-cycle."""
    if n < 4:
        return False
    full = (1 << n) - 1
    cycles = _cycles_raw(rows, cols, full, n - 1)
    first = next(cycles, None)
    if first is None or _bypass_raw(n, rows, cols) is not None:
        return False
    g = Digraph._from_rows(n, rows)
    for cyc in chain((first,), cycles):
        used = 0
        for v in cyc:
            used |= 1 << v
        off = (full ^ used).bit_length() - 1
        if dout[off] + din[off] >= n:
            return True
        if not lemma7_consequences(g, make_cycle(g, cyc), off).all_ok:
            return True
    return False


def _fail_every_clause(n, rows, cols, cv, y):
    return False, False, False


def test_lemma7_sweep_fallback_flags_what_the_earlier_sweep_flags(monkeypatch):
    monkeypatch.setattr(verify, "_cycle_bypass_raw", lambda rows, cols, cyc, y: None)
    monkeypatch.setattr(verify, "_lemma7_raw", _fail_every_clause)
    monkeypatch.setattr(insertion, "_lemma7_raw", _fail_every_clause)
    monkeypatch.setitem(verify._EVALUATORS, "earlier_sweep", _sweep_before_the_cycle_bypass)
    for kwargs in (dict(n=4), _SWEEP_SAMPLE_N5):
        res = enumerate_digraphs(EnumerationTask(**kwargs, evaluator="lemma7_sweep"), workers=1)
        ref = enumerate_digraphs(EnumerationTask(**kwargs, evaluator="earlier_sweep"), workers=1)
        assert res.flagged == ref.flagged
        assert res.flagged  # the digraphs with an (n-1)-cycle and no bypass
        n = kwargs["n"]
        for mask in res.flagged[:50]:
            g = digraph_from_mask(n, mask)
            assert find_pre_hamiltonian_cycle(g) is not None
            assert not naive_has_bypass(g)


# --------------------------------------------------------------------------
# task validation
# --------------------------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(n=7), "exhaustive scan at n=7 refused"),
        (dict(n=0), "order must be a positive integer"),
        (dict(n=5, mode="sample"), "sample mode needs sample_count >= 1"),
        (dict(n=5, mode="sample", sample_count=0, seed=1), "sample mode needs sample_count >= 1"),
        (dict(n=5, mode="sample", sample_count=10), "sample mode needs an explicit seed"),
        (dict(n=5, mode="sample", sample_count=10, seed=1, model="weird"), "unknown sample model"),
        (dict(n=5, evaluator="not_a_thing"), "unknown evaluator"),
        (dict(n=5, filters=("bogus",)), "unknown condition id"),
        (dict(n=17, mode="sample", sample_count=5, seed=1), "sampling supports n <= 16"),
        (dict(n=5, evaluator="no_dnk"), "evaluator 'no_dnk' needs an integer k, got None"),
        (dict(n=5, evaluator="no_dnk:99"), r"k must lie in \[2, 5\], got 99"),
        (dict(n=5, evaluator="no_dnk:1"), r"k must lie in \[2, 5\], got 1"),
        (dict(n=2, evaluator="no_dnk:2"), "bypass pattern needs n >= 3"),
        (dict(n=5, evaluator="no_hc:3"), "evaluator 'no_hc' takes no argument"),
        (dict(n=4, seed=5, sample_count=10, model="dense", filters=("strong",)), "sampled scan"),
        (dict(n=4, seed=5), "seed, model and sample_count apply only to a sampled scan"),
        (dict(n=4, model="dense"), "sampled scan"),
        (dict(n=4, sample_count=10), "sampled scan"),
        (dict(n=5, evaluator="no_dnk:x"), "evaluator 'no_dnk' needs an integer k, got 'x'"),
        (dict(n=True), "order must be a positive integer, got True"),
        (dict(n=5.0), "order must be a positive integer, got 5.0"),
        (dict(n=5, mode="sample", sample_count=2.5, seed=1), "bad sample_count 2.5"),
        (dict(n=5, mode="sample", sample_count=True, seed=1), "bad sample_count True"),
        (dict(n=5, mode="sample", sample_count=2, seed=1.5), "or seed 1.5"),
        (dict(n=5, mode="sample", sample_count=2, seed="1"), "or seed '1'"),
        (dict(n=5, mode="sample", sample_count=2, seed=False), "or seed False"),
        (dict(n=4, sample_count=False), "bad sample_count False"),
    ],
)
def test_task_validation(kwargs, message):
    with pytest.raises(ValueError, match=message):
        EnumerationTask(**kwargs)


def test_task_takes_no_evaluator_arg():
    """The evaluator id carries its parameter; the old keyword is gone."""
    with pytest.raises(TypeError, match="evaluator_arg"):
        EnumerationTask(n=5, evaluator="no_dnk", evaluator_arg=3)


def test_non_integer_sample_count_is_a_value_error():
    with pytest.raises(ValueError, match="bad sample_count 2.5"):
        verify.run_claim("thm12", 5, sample=2.5, seed=1)


def test_building_a_task_generates_no_decoder(monkeypatch):
    monkeypatch.setattr(verify, "_generate_decoder", _refuse_decoder)
    EnumerationTask(16, "sample", ("strong",), 10, 1)
    EnumerationTask(5, filters=("min_out:2", "strong"), evaluator="no_dnk:3")


def _refuse_decoder(*args):
    raise AssertionError("decoder generated")


def test_task_exhaustive_and_sampling_at_n6():
    assert EnumerationTask(n=6).mode_label == "exhaustive"
    sampled = EnumerationTask(n=6, mode="sample", sample_count=5, seed=1)
    assert sampled.mode_label == "sample:uniform:5"
    dense = EnumerationTask(n=6, mode="sample", sample_count=5, seed=1, model="dense")
    assert dense.mode_label == "sample:dense:5"


def test_visitor_and_evaluator_are_exclusive():
    with pytest.raises(ValueError, match="mutually exclusive"):
        enumerate_digraphs(EnumerationTask(n=2, evaluator="no_hc"), visitor=lambda m: None)


# --------------------------------------------------------------------------
# theorem drivers at n <= 4
# --------------------------------------------------------------------------

def test_theorem6_n3_reports_the_degenerate_triple_gap(kstar12):
    """Under the pairwise-distinct reading of the triple condition, the
    3-vertex digraph K*_{1,2} survives the filters with no Hamiltonian
    cycle; the inclusive reading excludes it (see test above: 15 survivors)."""
    rep = check_theorem6(3, workers=2)
    assert (rep.scanned, rep.passed_filters) == (64, 18)
    assert rep.verdict == "counterexample-found"
    assert [e.canonical_hex for e in rep.exceptions] == ["04e"]
    assert iso.canonical_form(kstar12).hex == "04e"
    witness = rep.exceptions[0].witness
    assert iso.are_isomorphic(witness, kstar12)
    assert find_hamiltonian_cycle(witness) is None
    assert check_a_k(witness, 0).holds
    assert not check_a_k(witness, 0, inclusive=True).holds


def test_theorem6_n4_confirmed():
    rep = check_theorem6(4, workers=2)
    assert (rep.scanned, rep.passed_filters) == (4096, 660)
    assert rep.verdict == "confirmed" and rep.exceptions == ()


def test_theorem8_small_orders():
    rep3 = check_theorem8(3, workers=2)
    assert rep3.passed_filters == 18
    assert [e.canonical_hex for e in rep3.exceptions] == ["04e", "062"]
    assert rep3.verdict == "counterexample-found"  # K*_{1,2} is not C_3

    rep4 = check_theorem8(4, workers=2)
    assert rep4.passed_filters == 1092
    assert [e.canonical_hex for e in rep4.exceptions] == ["135e"]
    assert rep4.verdict == "confirmed"
    assert iso.are_isomorphic(rep4.exceptions[0].witness, fam.d1(4, 1))


_THM8_LARGE_MEMBERS = {
    "d1(9,1)": lambda: fam.d1(9, 1),
    "d1(9,3)": lambda: fam.d1(9, 3),
    "d1(10,2)": lambda: fam.d1(10, 2),
    "d0(9,empty)": lambda: fam.d0(9, fam.InnerSpec.empty()),
    "d0(9,complete)": lambda: fam.d0(9, fam.InnerSpec.complete()),
}


@pytest.mark.parametrize("member", list(_THM8_LARGE_MEMBERS))
def test_theorem8_family_membership_ignores_labels_above_canonical_bound(member):
    g = _THM8_LARGE_MEMBERS[member]()
    perm = list(range(g.n))
    random.Random(5).shuffle(perm)
    h = new_digraph(g.n, [(perm[u], perm[v]) for u, v in g.arcs()])
    assert is_strong(h) and resolve("degree_sum:-2").check(h).holds
    assert find_hamiltonian_bypass(h) is None
    allowed = CLAIMS["thm8"].allowed
    assert allowed(g) and allowed(h)
    assert not allowed(new_digraph(h.n, h.arcs()[1:]))


def test_theorem9_n4_confirmed():
    rep = check_theorem9(4, workers=2)
    assert (rep.passed_filters, rep.verdict) == (732, "confirmed")
    assert rep.exceptions == ()


def test_theorem11_n4_exceptions_are_balanced_bipartite(kb22):
    rep = check_theorem11(4, workers=2)
    assert rep.passed_filters == 660
    assert rep.verdict == "confirmed"
    assert [e.canonical_hex for e in rep.exceptions] == ["33cc"]
    assert (len(rep.exceptions) > 0) == check_a_k(kb22, 0).holds
    assert iso.is_balanced_complete_bipartite(rep.exceptions[0].witness)


def test_theorem12_n4_confirmed():
    rep = check_theorem12(4, workers=2)
    assert (rep.passed_filters, rep.verdict) == (660, "confirmed")
    assert rep.exceptions == ()


def test_theorem_order_bounds():
    with pytest.raises(ValueError):
        check_theorem6(2)
    with pytest.raises(ValueError):
        check_theorem8(2)
    with pytest.raises(ValueError):
        check_theorem11(3)
    with pytest.raises(ValueError):
        check_theorem12(3)
    with pytest.raises(ValueError):
        check_theorem9(3)
    with pytest.raises(ValueError):
        check_theorem16_conjecture(5, 3, sample=10, seed=1)
    with pytest.raises(ValueError):
        check_theorem16_conjecture(6, 4, sample=10, seed=1)


# --------------------------------------------------------------------------
# exploration
# --------------------------------------------------------------------------

def test_explore_meyniel_n3_contains_c3(c3):
    rep = explore_no_bypass(3, "meyniel", workers=2)
    assert rep.theorem == "explore:meyniel"
    assert rep.passed_filters == 15
    assert rep.verdict == "report-only"
    assert [e.canonical_hex for e in rep.exceptions] == ["062"]
    assert iso.are_isomorphic(rep.exceptions[0].witness, c3)


def test_explore_thm14_n4_catalog():
    rep = explore_no_bypass(4, "thm14", workers=2)
    assert rep.passed_filters == 606
    assert [e.canonical_hex for e in rep.exceptions] == ["1284", "1286", "1296"]


def test_explore_matches_theorem12_restriction():
    rep = explore_no_bypass(4, "a_k:0", workers=2)
    assert rep.passed_filters == 660
    assert rep.exceptions == ()


def test_explore_unknown_condition():
    with pytest.raises(ValueError):
        explore_no_bypass(4, "zzz")


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: verify.run_claim("nope", 5), "unknown claim 'nope'; known: thm6, thm8, .*explore"),
        (lambda: verify.run_claim(["thm12"], 5), r"unknown claim \['thm12'\]; known: thm6"),
        (lambda: verify.run_claim("thm12", True), "order must be a positive integer, got True"),
        (lambda: verify.run_claim("thm12", "5"), "order must be a positive integer, got '5'"),
        (lambda: check_theorem12(3), "thm12 needs n >= 4"),
        (lambda: check_theorem12(5, 3), "thm12 takes no parameter, got 3"),
        (lambda: check_theorem16_conjecture(6, 4), "thm16 takes 2 or 3, got 4"),
        (lambda: explore_no_bypass(4, None), "explore needs a parameter"),
    ],
    ids=[
        "unknown", "list_name", "bool_n", "str_n", "below_min_n", "extra_param", "bad_param",
        "no_param",
    ],
)
def test_run_claim_rejects_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_drivers_are_claim_bindings():
    """Each driver is run_claim with its claim bound; the scan options are
    keyword-only and the old parameter keywords are gone."""
    drivers = {
        "thm6": check_theorem6,
        "thm8": check_theorem8,
        "thm9": check_theorem9,
        "thm11": check_theorem11,
        "thm12": check_theorem12,
        "thm16": check_theorem16_conjecture,
        "explore": explore_no_bypass,
    }
    assert list(drivers) == list(CLAIMS)
    for name, driver in drivers.items():
        assert (driver.func, driver.args, driver.keywords) == (verify.run_claim, (name,), {})
    with pytest.raises(TypeError):
        verify.run_claim("thm12", 5, None, 100, 1)
    with pytest.raises(TypeError):
        check_theorem16_conjecture(6, min_in_degree=3)
    with pytest.raises(TypeError):
        explore_no_bypass(4, cond_id="meyniel")


# --------------------------------------------------------------------------
# determinism and exception soundness
# --------------------------------------------------------------------------

def report_fingerprint(rep):
    return json.dumps(rep.to_json_dict(include_elapsed=False), sort_keys=False)


def test_reports_identical_across_worker_counts():
    reps = [check_theorem8(4, workers=w) for w in (1, 2, 8)]
    prints = {report_fingerprint(r) for r in reps}
    assert len(prints) == 1


def test_sampled_reports_identical_across_worker_counts():
    reps = [
        check_theorem12(5, sample=3000, seed=42, workers=w) for w in (1, 4)
    ]
    assert report_fingerprint(reps[0]) == report_fingerprint(reps[1])
    assert reps[0].mode == "sample:uniform:3000"
    assert reps[0].seed == 42
    assert reps[0].scanned == 3000


def test_sample_stream_is_seeded():
    def stream(seed):
        masks = []
        enumerate_digraphs(
            EnumerationTask(n=5, mode="sample", sample_count=200, seed=seed),
            visitor=masks.append,
            workers=1,
        )
        return masks

    assert stream(1) == stream(1)
    assert stream(1) != stream(2)


@pytest.mark.parametrize("model", ["uniform", "dense"])
@pytest.mark.parametrize("n", [2, 5, 6, 8, 12, 16])
def test_chunk_draws_are_the_seeded_stream(n, model):
    """Chunk i of a seeded task draws from Random(seed * 0x9E3779B97F4A7C15
    + i mod 2^64), one getrandbits(n(n-1)) per draw, the union of two
    consecutive ones on the dense model: pinned draw by draw, since the
    reference scans themselves draw through _chunk_masks."""
    bits = mask_bits(n)
    task = EnumerationTask(n, "sample", sample_count=SAMPLE_CHUNK + 100, seed=7, model=model)
    for i, count in ((0, SAMPLE_CHUNK), (1, 100)):
        rng = random.Random((7 * 0x9E3779B97F4A7C15 + i) % (1 << 64))
        if model == "dense":
            expected = [rng.getrandbits(bits) | rng.getrandbits(bits) for _ in range(count)]
        else:
            expected = [rng.getrandbits(bits) for _ in range(count)]
        assert verify._chunk_masks(task, i) == expected


def test_dense_model_label_and_determinism():
    a = check_theorem16_conjecture(6, 3, sample=4000, seed=9, model="dense", workers=1)
    b = check_theorem16_conjecture(6, 3, sample=4000, seed=9, model="dense", workers=4)
    assert a.mode == "sample:dense:4000"
    assert report_fingerprint(a) == report_fingerprint(b)


def test_theorem16_relaxed_is_report_only():
    rep = check_theorem16_conjecture(6, 2, sample=2000, seed=5, model="dense", workers=2)
    assert rep.verdict == "report-only"


def test_exceptions_reevaluate():
    for rep, cond_ids, structure in (
        (check_theorem8(3, workers=2), ("degree_sum:-2",), find_hamiltonian_bypass),
        (check_theorem8(4, workers=2), ("degree_sum:-2",), find_hamiltonian_bypass),
        (check_theorem11(4, workers=2), ("a_k:0",), None),
    ):
        assert rep.exceptions, "these scans are known to produce exceptions"
        for exc in rep.exceptions:
            g = exc.witness
            assert iso.canonical_form(g).hex == exc.canonical_hex
            assert naive_is_strong(g)
            for cid in cond_ids:
                assert resolve(cid).check(g).holds
            if structure is not None:
                assert structure(g) is None
                assert not naive_has_bypass(g)


# --------------------------------------------------------------------------
# report serialization
# --------------------------------------------------------------------------

def test_report_json_shape_exhaustive():
    rep = check_theorem12(4, workers=1)
    doc = rep.to_json_dict()
    assert list(doc) == [
        "theorem", "n", "mode", "scanned", "passed_filters", "exceptions",
        "verdict", "elapsed_ms",
    ]
    assert doc["theorem"] == "thm12" and doc["n"] == 4
    assert doc["mode"] == "exhaustive"
    assert doc["exceptions"] == []
    assert isinstance(doc["elapsed_ms"], int)
    trimmed = rep.to_json_dict(include_elapsed=False)
    assert "elapsed_ms" not in trimmed


def test_report_json_shape_sampled():
    rep = check_theorem12(5, sample=500, seed=3, workers=2)
    doc = rep.to_json_dict()
    assert list(doc) == [
        "theorem", "n", "mode", "seed", "scanned", "passed_filters", "exceptions",
        "verdict", "elapsed_ms",
    ]
    assert doc["seed"] == 3


def test_exception_witness_serialization():
    rep = check_theorem11(4, workers=1)
    doc = rep.to_json_dict()
    (entry,) = doc["exceptions"]
    assert list(entry) == ["canonical_hex", "witness"]
    w = entry["witness"]
    assert list(w) == ["n", "m", "arcs"]
    rebuilt = new_digraph(w["n"], [tuple(a) for a in w["arcs"]])
    assert w["m"] == rebuilt.m
    assert iso.canonical_form(rebuilt).hex == entry["canonical_hex"]
