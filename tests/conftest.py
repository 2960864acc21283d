"""Shared fixtures, hypothesis strategies, and the acceptance summary hook."""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent))

from hambypass import families as fam
from hambypass.digraph import Digraph, new_digraph
from hambypass.search import iter_cycles_of_length
from hambypass.verify import (
    EXHAUSTIVE_MAX_N,
    EnumerationTask,
    _decoder,
    _orbit_least,
    _scan_classes,
    digraph_from_mask,
)

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


# --------------------------------------------------------------------------
# fixtures
# --------------------------------------------------------------------------

@pytest.fixture(scope="session")
def t5() -> Digraph:
    return fam.t5()


@pytest.fixture(scope="session")
def c3() -> Digraph:
    return fam.directed_cycle(3)


@pytest.fixture(scope="session")
def c4() -> Digraph:
    return fam.directed_cycle(4)


@pytest.fixture(scope="session")
def c5() -> Digraph:
    return fam.directed_cycle(5)


@pytest.fixture(scope="session")
def kstar4() -> Digraph:
    return fam.complete_digraph(4)


@pytest.fixture(scope="session")
def kb22() -> Digraph:
    return fam.complete_bipartite_digraph(2, 2)


@pytest.fixture(scope="session")
def kb33() -> Digraph:
    return fam.complete_bipartite_digraph(3, 3)


@pytest.fixture(scope="session")
def kb22_parts_0213() -> Digraph:
    """K*_{2,2} relabeled so the parts are {0,2} and {1,3}."""
    return new_digraph(4, [(0, 1), (1, 0), (0, 3), (3, 0), (2, 1), (1, 2), (2, 3), (3, 2)])


@pytest.fixture(scope="session")
def kstar12() -> Digraph:
    """K*_{1,2}: center 0 joined both ways to the non-adjacent pair {1, 2}."""
    return new_digraph(3, [(0, 1), (1, 0), (0, 2), (2, 0)])


# --------------------------------------------------------------------------
# isomorphism classes, as the exhaustive scan walks them
# --------------------------------------------------------------------------

def classes(n: int, filters: tuple[str, ...] = ()) -> list[tuple]:
    """(mask, aut, rows, cols, dout, din) for the orbit-least mask of every
    class of order n that passes `filters`, in walk order: the classes an
    exhaustive visitor scan flags, aut the order of each automorphism group.
    Past EXHAUSTIVE_MAX_N, which a task refuses, the walk still runs: there
    only floors that keep it to a few classes are usable."""
    task = EnumerationTask(min(n, EXHAUSTIVE_MAX_N), filters=filters)
    object.__setattr__(task, "n", n)
    decode = _decoder(n)
    out = []
    for mask in _scan_classes(task, True).flagged:
        rows, cols, dout, din = decode(mask)
        out.append((mask, _orbit_least(n, rows), rows, cols, dout, din))
    return out


# --------------------------------------------------------------------------
# seeded random digraphs (plain RNG corpus) and hypothesis strategies
# --------------------------------------------------------------------------

def rand_digraph(rng: random.Random, n: int, p: float = 0.5) -> Digraph:
    arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p]
    return new_digraph(n, arcs)


def seeded_corpus(seed: int, count: int, n_lo: int, n_hi: int, p: float = 0.5):
    """Deterministic list of (rng, digraph) pairs for sweep tests."""
    out = []
    for i in range(count):
        rng = random.Random((seed << 20) + i)
        n = rng.randint(n_lo, n_hi)
        out.append((rng, rand_digraph(rng, n, p)))
    return out


@pytest.fixture(scope="session")
def pre_hamiltonian_cycles():
    """(g, cycle, off vertex) for every (n-1)-cycle of every digraph with
    n <= 4, of every class representative at n = 5 (the digraphs the
    exhaustive lemma-7 sweep reads bypasses off), and of seeded n = 5, 6, 7
    draws, uniform and dense (the union of two uniform draws), as the
    enumeration engine samples them."""
    out = []

    def add(g):
        for c in iter_cycles_of_length(g, g.n - 1):
            (y,) = set(range(g.n)) - set(c.vertices)
            out.append((g, c, y))

    for n in (3, 4):
        for mask in range(1 << (n * (n - 1))):
            add(digraph_from_mask(n, mask))
    for mask, *_ in classes(5):
        add(digraph_from_mask(5, mask))
    rng = random.Random(707)
    for n in (5, 6, 7):
        bits = n * (n - 1)
        for _ in range(150):
            add(digraph_from_mask(n, rng.getrandbits(bits)))
            add(digraph_from_mask(n, rng.getrandbits(bits) | rng.getrandbits(bits)))
    return out


@st.composite
def digraphs(draw, min_n: int = 1, max_n: int = 6, p: float = 0.5):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = [uv for uv in pairs if draw(st.booleans())] if p == 0.5 else [
        uv for uv in pairs if draw(st.floats(0, 1)) < p
    ]
    return new_digraph(n, arcs)


@st.composite
def tournaments(draw, min_n: int = 2, max_n: int = 6):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            arcs.append((u, v) if draw(st.booleans()) else (v, u))
    return new_digraph(n, arcs)


# --------------------------------------------------------------------------
# acceptance summary: one line per criterion at the end of the run
# --------------------------------------------------------------------------

ACCEPTANCE_RESULTS: dict[int, tuple[bool, str]] = {}


def record_criterion(number: int, ok: bool, detail: str = "") -> None:
    ACCEPTANCE_RESULTS[number] = (ok, detail)


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for number in sorted(ACCEPTANCE_RESULTS):
        ok, detail = ACCEPTANCE_RESULTS[number]
        tag = "PASS" if ok else "FAIL"
        suffix = f" — {detail}" if detail else ""
        terminalreporter.write_line(f"[acceptance] criterion {number}: {tag}{suffix}")
