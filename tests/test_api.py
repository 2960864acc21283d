"""The public surface of the package: the names `hambypass` exports."""

import re
import types

import pytest

import hambypass
from hambypass import Cycle, Path, VertexRangeError
from hambypass.conditions import ConditionReport

# Frozen: a change that adds or drops a public name must edit this list.
PUBLIC_NAMES = [
    "BypassWitness", "CanonicalForm", "Condition", "ConditionReport", "ConditionWitness",
    "Cycle", "Digraph", "DigraphError", "DuplicateArcError", "EnumerationTask",
    "ExceptionRecord", "InnerSpec", "InsertionOutcome", "Lemma7Report", "OrderError",
    "ParseError", "Path", "PathError", "PartnerCollection", "PatternEmbedding",
    "ScanResult", "SelfLoopError", "TheoremReport", "VertexRangeError", "are_isomorphic",
    "bypass_pattern", "canonical_form", "check_a_k", "check_degree_sum",
    "check_ghouila_houri", "check_meyniel", "check_nash_williams", "check_thm13_condition",
    "check_thm14_condition", "check_thm15_condition", "check_thm16_hypothesis",
    "check_thm16_relaxed", "check_theorem11", "check_theorem12",
    "check_theorem16_conjecture", "check_theorem6", "check_theorem8", "check_theorem9",
    "check_woodall", "complete_bipartite_digraph", "complete_digraph", "converse", "d0",
    "d1", "degrees", "degrees_toward_set", "digraph_from_mask", "directed_cycle",
    "enumerate_digraphs", "explore_no_bypass", "extend_as_much_as_possible",
    "find_bypass_pattern", "find_collection_of_partners", "find_cycle_of_length",
    "find_good_cycle", "find_hamiltonian_bypass", "find_hamiltonian_cycle",
    "find_hamiltonian_path_between", "find_partner_for_path", "find_partner_for_vertex",
    "find_pre_hamiltonian_cycle", "format_digraph", "induced_subdigraph", "insert_at",
    "is_balanced_complete_bipartite", "is_good_cycle", "is_isomorphic_to_t5", "is_strong",
    "iter_cycles_of_length", "iter_inner_specs", "known_condition_ids",
    "lemma1_hypothesis", "lemma2_hypothesis", "lemma3_hypothesis", "lemma4_hypothesis",
    "lemma5_consequence_holds", "lemma7_consequences", "make_cycle", "make_path",
    "mask_of", "multi_insert", "new_digraph", "non_adjacent_pairs", "parse_digraph",
    "resolve", "t5", "validate_bypass", "vertex_mask",
]

# Trailing arguments of the condition checkers that take a parameter.
CHECKER_ARGS = {"check_a_k": (0,), "check_degree_sum": (-1,)}


def public_names():
    """Exported names, leaving out the submodules that importing them binds."""
    return sorted(
        name
        for name, value in vars(hambypass).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )


def test_public_names_are_frozen():
    assert public_names() == sorted(PUBLIC_NAMES)


def test_exported_condition_checkers_report_on_t5():
    checkers = [
        name for name in public_names() if name.startswith("check_") and "theorem" not in name
    ]
    assert len(checkers) == 11
    for name in checkers + ["lemma5_consequence_holds"]:
        rep = getattr(hambypass, name)(hambypass.t5(), *CHECKER_ARGS.get(name, ()))
        assert isinstance(rep, ConditionReport), name


def test_every_exported_exception_is_a_value_error():
    """cli.main turns a ValueError into exit code 2, so every error class the
    package exports must be one."""
    errors = [
        value
        for value in vars(hambypass).values()
        if isinstance(value, type) and issubclass(value, BaseException)
    ]
    assert len(errors) == 7
    assert all(issubclass(e, ValueError) for e in errors)


T5 = hambypass.t5()
P, C = Path((0, 1)), Cycle((0, 1, 2, 3))

# Every public function that takes a vertex or a vertex sequence: the order
# its vertices must lie below, and a call that passes it the one vertex v.
VERTEX_TAKERS = {
    "new_digraph": (5, lambda v: hambypass.new_digraph(5, [(0, 1), (v, 0)])),
    "degrees": (5, lambda v: hambypass.degrees(T5, v)),
    "degrees_toward_set:v": (5, lambda v: hambypass.degrees_toward_set(T5, v, [0, 1])),
    "degrees_toward_set:s": (5, lambda v: hambypass.degrees_toward_set(T5, 0, [1, v])),
    "vertex_mask": (5, lambda v: hambypass.vertex_mask(5, [0, v])),
    "induced_subdigraph": (5, lambda v: hambypass.induced_subdigraph(T5, [0, v])),
    "make_path": (5, lambda v: hambypass.make_path(T5, (0, v))),
    "make_cycle": (5, lambda v: hambypass.make_cycle(T5, (0, v))),
    "ham_path:set": (5, lambda v: hambypass.find_hamiltonian_path_between(T5, 0, 1, [0, 1, v])),
    "ham_path:u": (5, lambda v: hambypass.find_hamiltonian_path_between(T5, v, 1, [0, 1])),
    "ham_path:v": (5, lambda v: hambypass.find_hamiltonian_path_between(T5, 0, v, [0, 1])),
    "d0:explicit": (2, lambda v: hambypass.d0(5, hambypass.InnerSpec.explicit([(0, v)]))),
    "find_partner_for_vertex": (5, lambda v: hambypass.find_partner_for_vertex(T5, P, v)),
    "find_partner_for_path": (5, lambda v: hambypass.find_partner_for_path(T5, P, Path((v,)))),
    "insert_at": (5, lambda v: hambypass.insert_at(T5, P, 1, Path((v,)))),
    "lemma1_hypothesis": (5, lambda v: hambypass.lemma1_hypothesis(T5, C, v)),
    "lemma2_hypothesis": (5, lambda v: hambypass.lemma2_hypothesis(T5, P, v)),
    "lemma3_hypothesis": (5, lambda v: hambypass.lemma3_hypothesis(T5, C, Path((v,)))),
    "lemma4_hypothesis": (5, lambda v: hambypass.lemma4_hypothesis(T5, P, Path((v,)))),
    "find_collection_of_partners": (
        5,
        lambda v: hambypass.find_collection_of_partners(T5, P, Path((v,))),
    ),
    "multi_insert": (5, lambda v: hambypass.multi_insert(T5, P, Path((v,)))),
    "extend_as_much_as_possible": (5, lambda v: hambypass.extend_as_much_as_possible(T5, P, [v])),
    "lemma7_consequences": (5, lambda v: hambypass.lemma7_consequences(T5, C, v)),
    "is_good_cycle": (5, lambda v: hambypass.is_good_cycle(T5, Cycle((0, 1, 2, v)))),
}


@pytest.mark.parametrize("bad", ["-1", "n", "True", "1.5"])
@pytest.mark.parametrize("taker", VERTEX_TAKERS)
def test_every_vertex_taker_refuses_a_non_vertex(taker, bad):
    n, call = VERTEX_TAKERS[taker]
    v = {"-1": -1, "n": n, "True": True, "1.5": 1.5}[bad]
    message = rf"^vertex {re.escape(repr(v))} outside range\({n}\)$"
    with pytest.raises(VertexRangeError, match=message):
        call(v)
