"""The public surface of the package: the names `hambypass` exports."""

import types

import hambypass
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
