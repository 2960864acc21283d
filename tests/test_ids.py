"""Ids: every condition, filter, evaluator and find structure id is read by
digraph.split_id, so each kind accepts and refuses the same shapes."""

import argparse
import contextlib
import io
import sys

import pytest

from hambypass import cli, families, verify
from hambypass import conditions as cond
from hambypass.digraph import format_digraph, split_id
from hambypass.verify import EnumerationTask

T5_TEXT = format_digraph(families.t5())

# Every id name that carries an integer, and the unit its messages name;
# every other name takes no parameter.
PARAMETERISED = {
    "a_k": "k",
    "a_k_inc": "k",
    "degree_sum": "offset",
    "min_out": "threshold",
    "min_in": "threshold",
    "no_dnk": "k",
    "cycle": "length",
    "dnk": "k",
}


def find(structure):
    """cmd_find on T5, output discarded; a refused id is a ValueError."""
    args = argparse.Namespace(input="-", structure=structure, explain=False)
    old_stdin, sys.stdin = sys.stdin, io.StringIO(T5_TEXT)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.cmd_find(args)
    finally:
        sys.stdin = old_stdin


# kind: (every name of the kind, what reads one id of it)
KINDS = {
    "condition": (list(cond._CONDITIONS), cond.resolve),
    "filter": (
        ["min_out", "min_in", "strong", *cond._CONDITIONS],
        lambda fid: EnumerationTask(4, filters=(fid,)),
    ),
    "evaluator": (list(verify._EVALUATORS), lambda eid: EnumerationTask(4, evaluator=eid)),
    "structure": (list(cli._STRUCTURES), find),
}
CASES = [(kind, name) for kind, (names, _) in KINDS.items() for name in names]


@pytest.mark.parametrize("kind, name", CASES, ids=[f"{k}-{n}" for k, n in CASES])
def test_every_id_reads_by_one_rule(kind, name):
    build = KINDS[kind][1]
    unit = PARAMETERISED.get(name)
    if unit is None:
        build(name)
        for text in (f"{name}:", f"{name}:3"):
            message = f"{kind} '{name}' takes no parameter, got '{text}'"
            with pytest.raises(ValueError, match=message):
                build(text)
        return
    build(f"{name}:3")
    needs = f"{kind} '{name}' needs an integer {unit}, got"
    for text, got in ((name, "None"), (f"{name}:", "''"), (f"{name}:+3", r"'\+3'")):
        with pytest.raises(ValueError, match=f"{needs} {got}: ") as info:
            build(text)
    assert str(info.value).endswith("integer '+3' is not in canonical form")


@pytest.mark.parametrize("kind", KINDS)
def test_an_unknown_name_is_refused(kind):
    with pytest.raises(ValueError, match=f"unknown {kind} 'nosuch'"):
        KINDS[kind][1]("nosuch")


def test_split_id_returns_the_name_and_its_integer():
    units = {"a": None, "b": "k"}
    assert split_id("a", units, "thing") == ("a", None)
    assert split_id("b:-2", units, "thing") == ("b", -2)
    with pytest.raises(ValueError, match="thing 'b' needs an integer k, got '2:3'"):
        split_id("b:2:3", units, "thing")
