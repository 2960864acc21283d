"""Degree-condition predicates with first-violation witnesses.

Every public checker returns a ConditionReport whose witness, when present,
re-evaluates to a genuine violation of the stated inequality. Witness scans
are lexicographic so the same input always yields the same witness. Bounds
that are half-integers in the classical statements are kept exact by doubling
both sides (no floats anywhere); such witnesses carry doubled value/bound and
say so in their detail string.

The `_*_violation` functions work on raw (n, rows, cols, dout, din) data so
the enumeration engine can run them on millions of digraphs without building
Digraph objects. Each returns None when the condition holds, else the first
violation as (vertices, value, bound, detail): `vertices` is the tuple
(x[, y[, z]]) and `detail` a constant string. `_checker` binds a core as
its public checker, and `_report` turns the violation into a ConditionReport.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Callable

from .digraph import Digraph, id_int


@dataclass(frozen=True)
class ConditionWitness:
    roles: dict[str, int]
    value: int
    bound: int
    detail: str = ""


@dataclass(frozen=True)
class ConditionReport:
    holds: bool
    witness: ConditionWitness | None = None

    def to_dict(self) -> dict:
        doc = asdict(self)
        if self.witness is None:
            del doc["witness"]
        return doc


def _arrays(g: Digraph) -> tuple[int, tuple, tuple, tuple, tuple]:
    dout = tuple(r.bit_count() for r in g.rows)
    din = tuple(c.bit_count() for c in g.cols)
    return g.n, g.rows, g.cols, dout, din


def _report(hit) -> ConditionReport:
    if hit is None:
        return ConditionReport(True)
    vertices, value, bound, detail = hit
    return ConditionReport(
        False, ConditionWitness(dict(zip("xyz", vertices)), value, bound, detail)
    )


def _checker(core, *extra) -> Callable[..., ConditionReport]:
    """check(g, *params) reporting core(*_arrays(g), *params, *extra)."""
    return lambda g, *params: _report(core(*_arrays(g), *params, *extra))


# ---------------------------------------------------------------------------
# Triple degree condition (parameter k, bound 3n - 2 + k)
# ---------------------------------------------------------------------------


def _a_k_violation(n, rows, cols, dout, din, k, inclusive=False):
    """First (x, y, z) violating the k-parameterized triple condition.

    For every non-adjacent ordered pair x, y and each third vertex z:
    missing arc x->z forces d(x)+d(y)+d_out(x)+d_in(z) >= 3n-2+k, and
    missing arc z->x forces d(x)+d(y)+d_in(x)+d_out(z) >= 3n-2+k.
    z ranges over vertices distinct from x and y unless `inclusive`.
    """
    bound = 3 * n - 2 + k
    for x in range(n):
        rx = rows[x]
        cx = cols[x]
        adj = rx | cx
        dx = dout[x] + din[x]
        for y in range(n):
            if y == x or (adj >> y) & 1:
                continue
            s = dx + dout[y] + din[y]
            for z in range(n):
                if z == x or (z == y and not inclusive):
                    continue
                if not (rx >> z) & 1 and s + dout[x] + din[z] < bound:
                    return (x, y, z), s + dout[x] + din[z], bound, "missing arc x->z"
                if not (cx >> z) & 1 and s + din[x] + dout[z] < bound:
                    return (x, y, z), s + din[x] + dout[z], bound, "missing arc z->x"
    return None


def check_a_k(g: Digraph, k: int, *, inclusive: bool = False) -> ConditionReport:
    """Triple degree condition at level k. Needs order >= 3.

    `inclusive` also admits the degenerate triples with z = y (a strictly
    stronger reading; kept for sensitivity re-runs).
    """
    if g.n < 3:
        raise ValueError("triple degree condition needs order >= 3")
    return _report(_a_k_violation(*_arrays(g), k, inclusive))


# ---------------------------------------------------------------------------
# Pairwise total-degree bounds
# ---------------------------------------------------------------------------


def _pair_sum_violation(n, rows, cols, dout, din, offset):
    """d(x) + d(y) >= 2n + offset for every non-adjacent pair."""
    bound = 2 * n + offset
    for x in range(n):
        adj = rows[x] | cols[x]
        dx = dout[x] + din[x]
        for y in range(x + 1, n):
            if (adj >> y) & 1:
                continue
            s = dx + dout[y] + din[y]
            if s < bound:
                return (x, y), s, bound, ""
    return None


check_degree_sum = _checker(_pair_sum_violation)  # (g, offset)
check_meyniel = _checker(_pair_sum_violation, -1)  # offset -1: d(x) + d(y) >= 2n - 1


# ---------------------------------------------------------------------------
# Classical per-vertex / per-pair bounds
# ---------------------------------------------------------------------------


def _ghouila_violation(n, rows, cols, dout, din):
    """Total degree at least n at every vertex."""
    for x in range(n):
        if dout[x] + din[x] < n:
            return (x,), dout[x] + din[x], n, ""
    return None


check_ghouila_houri = _checker(_ghouila_violation)


def _woodall_violation(n, rows, cols, dout, din):
    """d_out(x) + d_in(y) >= n whenever the arc x->y is missing."""
    for x in range(n):
        rx = rows[x]
        for y in range(n):
            if y == x or (rx >> y) & 1:
                continue
            s = dout[x] + din[y]
            if s < n:
                return (x, y), s, n, "missing arc x->y"
    return None


check_woodall = _checker(_woodall_violation)


def _nash_violation(n, rows, cols, dout, din):
    """Both semidegrees at least n/2 at every vertex (doubled: exact for odd n)."""
    for x in range(n):
        if 2 * dout[x] < n:
            return (x,), 2 * dout[x], n, "doubled out-degree vs n"
        if 2 * din[x] < n:
            return (x,), 2 * din[x], n, "doubled in-degree vs n"
    return None


check_nash_williams = _checker(_nash_violation)


# ---------------------------------------------------------------------------
# Common-neighbour pair conditions
# ---------------------------------------------------------------------------


def _thm13_violation(n, rows, cols, dout, din):
    """Non-adjacent pairs with a common in-neighbour need high degrees:
    min{d(x), d(y)} >= n-1 and d(x)+d(y) >= 2n-1 for every such pair."""
    for x in range(n):
        adj = rows[x] | cols[x]
        cx = cols[x]
        dx = dout[x] + din[x]
        for y in range(x + 1, n):
            if (adj >> y) & 1 or not (cx & cols[y]):
                continue
            dy = dout[y] + din[y]
            lo = dx if dx < dy else dy
            if lo < n - 1:
                return (x, y), lo, n - 1, "min degree"
            if dx + dy < 2 * n - 1:
                return (x, y), dx + dy, 2 * n - 1, "degree sum"
    return None


check_thm13_condition = _checker(_thm13_violation)


def _common_flank(rows, cols, x, y) -> bool:
    return bool((rows[x] & rows[y]) | (cols[x] & cols[y]))


def _thm14_violation(n, rows, cols, dout, din):
    """min{d_out(x)+d_in(y), d_in(x)+d_out(y)} >= n for non-adjacent pairs
    sharing an out-neighbour or an in-neighbour."""
    for x in range(n):
        adj = rows[x] | cols[x]
        for y in range(x + 1, n):
            if (adj >> y) & 1 or not _common_flank(rows, cols, x, y):
                continue
            a = dout[x] + din[y]
            b = din[x] + dout[y]
            lo = a if a < b else b
            if lo < n:
                return (x, y), lo, n, ""
    return None


check_thm14_condition = _checker(_thm14_violation)


def _thm15_violation(n, rows, cols, dout, din):
    """Degree sum >= 2n-1 and crossed semidegree sums >= n-1 for non-adjacent
    pairs sharing an out-neighbour or an in-neighbour."""
    for x in range(n):
        adj = rows[x] | cols[x]
        dx = dout[x] + din[x]
        for y in range(x + 1, n):
            if (adj >> y) & 1 or not _common_flank(rows, cols, x, y):
                continue
            dy = dout[y] + din[y]
            if dx + dy < 2 * n - 1:
                return (x, y), dx + dy, 2 * n - 1, "degree sum"
            a = dout[x] + din[y]
            b = din[x] + dout[y]
            lo = a if a < b else b
            if lo < n - 1:
                return (x, y), lo, n - 1, "crossed semidegree sum"
    return None


check_thm15_condition = _checker(_thm15_violation)


def _thm16_violation(n, rows, cols, dout, din, min_in=3):
    """Order >= 6, min out-degree >= 2, min in-degree >= min_in, plus the
    common-in-neighbour pair condition of _thm13_violation."""
    if n < 6:
        return (), n, 6, "order below 6"
    for x in range(n):
        if dout[x] < 2:
            return (x,), dout[x], 2, "minimum out-degree"
    for x in range(n):
        if din[x] < min_in:
            return (x,), din[x], min_in, "minimum in-degree"
    return _thm13_violation(n, rows, cols, dout, din)


check_thm16_hypothesis = _checker(_thm16_violation)
check_thm16_relaxed = _checker(_thm16_violation, 2)  # in-degree floor 2 (probe form)


# ---------------------------------------------------------------------------
# Overlapping non-adjacent pairs consequence (doubled arithmetic)
# ---------------------------------------------------------------------------


def _lemma5_violation(n, rows, cols, dout, din):
    """Slack transfer between overlapping non-adjacent pairs.

    For every x with two distinct non-neighbours y and z: writing
    a = 2n - d(x) - d(y), if a >= 1 then 2(d(x) + d(z)) >= 4n - 4 + a.
    Value and bound in the witness are the doubled quantities.
    """
    d = [dout[i] + din[i] for i in range(n)]
    for x in range(n):
        adj = rows[x] | cols[x]
        non = [v for v in range(n) if v != x and not (adj >> v) & 1]
        for y in non:
            a = 2 * n - d[x] - d[y]
            if a < 1:
                continue
            need = 4 * n - 4 + a
            for z in non:
                if z == y:
                    continue
                if 2 * (d[x] + d[z]) < need:
                    return (x, y, z), 2 * (d[x] + d[z]), need, "doubled comparison"
    return None


lemma5_consequence_holds = _checker(_lemma5_violation)


# ---------------------------------------------------------------------------
# Identifier registry (shared by the CLI and the enumeration verifier)
# ---------------------------------------------------------------------------

RawPredicate = Callable[[int, tuple, tuple, tuple, tuple], bool]


@dataclass(frozen=True)
class Condition:
    cond_id: str
    check: Callable[[Digraph], ConditionReport]
    raw: RawPredicate = field(repr=False)
    upward_closed: bool = False


def _simple(core, *args) -> RawPredicate:
    # One closure per arity: a star-call would cost about 0.1 us per digraph.
    if not args:
        return lambda n, rows, cols, dout, din: core(n, rows, cols, dout, din) is None
    if len(args) == 1:
        (a,) = args
        return lambda n, rows, cols, dout, din: core(n, rows, cols, dout, din, a) is None
    a, b = args
    return lambda n, rows, cols, dout, din: core(n, rows, cols, dout, din, a, b) is None


# name: (integer parameter or None, public checker, raw core, trailing core
# args, upward closed: adding an arc never turns a pass into a fail)
_CONDITIONS = {
    "a_k": ("k", check_a_k, _a_k_violation, (), True),
    "a_k_inc": ("k", partial(check_a_k, inclusive=True), _a_k_violation, (True,), True),
    "meyniel": (None, check_meyniel, _pair_sum_violation, (-1,), True),
    "degree_sum": ("offset", check_degree_sum, _pair_sum_violation, (), True),
    "ghouila_houri": (None, check_ghouila_houri, _ghouila_violation, (), True),
    "woodall": (None, check_woodall, _woodall_violation, (), True),
    "nash_williams": (None, check_nash_williams, _nash_violation, (), True),
    "thm13": (None, check_thm13_condition, _thm13_violation, (), False),
    "thm14": (None, check_thm14_condition, _thm14_violation, (), False),
    "thm15": (None, check_thm15_condition, _thm15_violation, (), False),
    "thm16": (None, check_thm16_hypothesis, _thm16_violation, (), False),
    "thm16relaxed": (None, check_thm16_relaxed, _thm16_violation, (2,), False),
    "lemma5": (None, lemma5_consequence_holds, _lemma5_violation, (), True),
}


def resolve(cond_id: str) -> Condition:
    """Map a stable identifier string to its checker and raw predicate.

    Parameterized forms: "a_k:<k>", "a_k_inc:<k>", "degree_sum:<offset>".
    Unknown ids raise ValueError.
    """
    name, _, param = cond_id.partition(":")
    unit, check, core, extra, upward = _CONDITIONS.get(name, (None, None, None, (), False))
    if unit is not None:
        try:
            args = (id_int(param),)
        except ValueError:
            raise ValueError(f"bad condition id {cond_id!r}: integer {unit} required")
    elif param:
        raise ValueError(f"condition {name!r} takes no parameter")
    elif check is None:
        raise ValueError(f"unknown condition id {cond_id!r}")
    else:
        args = ()
    return Condition(cond_id, lambda g: check(g, *args), _simple(core, *args, *extra), upward)


def known_condition_ids() -> list[str]:
    return [
        name if unit is None else f"{name}:<{unit}>" for name, (unit, *_) in _CONDITIONS.items()
    ]
