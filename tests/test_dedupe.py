"""Exception dedupe: one record per class, the first flagged mask of each,
and the label invariance of every scan filter and evaluator that the class
generator relies on when it checks one labeling per class."""

import random
from itertools import permutations

import pytest

from naive_oracles import reference_filter

from hambypass import families as fam
from hambypass import iso
from hambypass.conditions import known_condition_ids
from hambypass.digraph import new_digraph
from hambypass.verify import (
    _EVALUATORS,
    CLAIMS,
    EnumerationTask,
    ExceptionRecord,
    _dedupe,
    _plan,
    digraph_from_mask,
    enumerate_digraphs,
    mask_bits,
    mask_of,
)

_PARAMS = (-5, -2, -1, 0)


def _condition_ids():
    """Every registered condition id, parameterized ones at each of _PARAMS."""
    ids = []
    for cid in known_condition_ids():
        name, _, unit = cid.partition(":")
        ids += [f"{name}:{p}" for p in _PARAMS] if unit else [cid]
    return ids


def _first_per_class(n, flagged):
    """The reference rule: the first flagged mask of each canonical class,
    records sorted by key."""
    seen = {}
    for mask in flagged:
        g = digraph_from_mask(n, mask)
        seen.setdefault(iso.canonical_form(g).hex, g)
    return tuple(ExceptionRecord(key, seen[key]) for key in sorted(seen))


def _assert_parity(task):
    flagged = enumerate_digraphs(task, workers=1).flagged
    assert _dedupe(task.n, flagged) == _first_per_class(task.n, flagged)
    return flagged


def _relabel(g, perm):
    return new_digraph(g.n, [(perm[u], perm[v]) for u, v in g.arcs()])


# --------------------------------------------------------------------------
# parity with the first-per-class rule
# --------------------------------------------------------------------------

_CLAIM_ROWS = [
    (name, param) for name, claim in CLAIMS.items() if name != "explore"
    for param in claim.params or (None,)
]


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("name,param", _CLAIM_ROWS)
def test_exhaustive_dedupe_matches_first_per_class_on_claims(name, param, n):
    claim = CLAIMS[name]
    filters = tuple(fid.format(param) for fid in claim.filters)
    _assert_parity(EnumerationTask(n, filters=filters, evaluator=claim.evaluator))


@pytest.mark.parametrize("cond_id", _condition_ids())
def test_exhaustive_dedupe_matches_first_per_class_on_explore(cond_id):
    filters = tuple(fid.format(cond_id) for fid in CLAIMS["explore"].filters)
    _assert_parity(EnumerationTask(4, filters=filters, evaluator=CLAIMS["explore"].evaluator))


def test_exhaustive_dedupe_parity_flags_something():
    """The parity cases above are not all empty: thm11 at n=4 flags the
    labelings of K*_{2,2}, explore with lemma5 flags many classes."""
    thm11 = CLAIMS["thm11"]
    assert _assert_parity(EnumerationTask(4, filters=thm11.filters, evaluator=thm11.evaluator))
    explore_lemma5 = EnumerationTask(4, filters=("lemma5", "strong"), evaluator="no_bypass")
    flagged = _assert_parity(explore_lemma5)
    assert len(_first_per_class(4, flagged)) > 1


def test_exhaustive_dedupe_keeps_least_mask_of_each_class():
    members = [fam.t5(), fam.d0(5, fam.InnerSpec.empty())]
    orbits = [{mask_of(_relabel(g, p)) for p in permutations(range(5))} for g in members]
    assert [len(o) for o in orbits] == [40, 10]  # 5!/|Aut|: |Aut(T5)| = 3, |Aut(d0)| = 12
    flagged = sorted(orbits[0] | orbits[1])
    recs = _dedupe(5, flagged)
    assert recs == _first_per_class(5, flagged)
    assert sorted(mask_of(r.witness) for r in recs) == sorted(min(o) for o in orbits)
    assert {r.canonical_hex for r in recs} == {iso.canonical_form(g).hex for g in members}


def test_sampled_dedupe_keys_every_mask():
    """Every flagged mask is keyed, also one that is not the least of its
    orbit, as a sampled draw may be."""
    mask = max(mask_of(_relabel(fam.t5(), p)) for p in permutations(range(5)))
    assert _dedupe(5, [mask]) == _first_per_class(5, [mask])


def test_dedupe_above_n8_keys_the_labelled_mask():
    """Beyond the exact canonical form the key is the raw labelled mask, so
    a relabelled copy is a second record of the same class (the known
    limitation of sampled reports at n >= 9); a repeated mask is not."""
    g = fam.d1(9, 1)
    copy = _relabel(g, (8, 7, 6, 5, 4, 3, 2, 1, 0))
    recs = _dedupe(9, [mask_of(g), mask_of(copy), mask_of(g)])
    keys = sorted(["raw:80ff7f7f7f7f7f7f7f", "raw:" + format(mask_of(copy), "x")])
    assert [r.canonical_hex for r in recs] == keys
    assert {r.canonical_hex: r.witness for r in recs}["raw:80ff7f7f7f7f7f7f7f"] == g


# --------------------------------------------------------------------------
# label invariance of every filter and evaluator
# --------------------------------------------------------------------------


def _predicates(n):
    """(id, raw predicate) for every scan filter and evaluator id at order
    n, as the scan plan resolves them; min_out and min_in, which the plan
    makes decoder floors, as plain min-degree checks."""
    fids = ["strong", *_condition_ids()]
    preds = [(fid, _plan(EnumerationTask(n, filters=(fid,)))[1][0][0]) for fid in fids]
    for t in range(n + 1):
        fids = (f"min_out:{t}", f"min_in:{t}")
        preds += [(fid, reference_filter(fid)) for fid in fids]
    eids = [name for name in _EVALUATORS if name != "no_dnk"]
    eids += [f"no_dnk:{k}" for k in range(2, n + 1)]
    return preds + [(eid, _plan(EnumerationTask(n, evaluator=eid))[2]) for eid in eids]


def _answers(preds, g):
    rows, cols = list(g.rows), list(g.cols)
    args = (g.n, rows, cols, [r.bit_count() for r in rows], [c.bit_count() for c in cols])
    return {name: f(*args) is True for name, f in preds}


def test_filters_and_evaluators_ignore_labels():
    """The class generator runs the filters and the evaluator on one
    labeling per class; that is only sound if none of them looks at
    labels."""
    preds = _predicates(4)
    by_class = {}
    for mask in range(1 << mask_bits(4)):
        g = digraph_from_mask(4, mask)
        answers = _answers(preds, g)
        first = by_class.setdefault(iso.canonical_form(g).hex, answers)
        differ = [name for name in answers if answers[name] != first[name]]
        assert not differ, f"n=4 mask {mask:x}: {differ} depend on labels"

    rng = random.Random(17)
    preds = _predicates(5)
    for draw in range(1000):
        mask = rng.getrandbits(20)
        if draw % 2:
            mask |= rng.getrandbits(20)
        g = digraph_from_mask(5, mask)
        perm = list(range(5))
        rng.shuffle(perm)
        answers, relabeled = _answers(preds, g), _answers(preds, _relabel(g, perm))
        differ = [name for name in answers if answers[name] != relabeled[name]]
        assert not differ, f"n=5 mask {mask:x} under {perm}: {differ} depend on labels"
