"""Command-line interface: output goldens, round-trips, exit codes."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from hambypass import cli, insertion, iso
from hambypass.cli import main
from hambypass.verify import CLAIMS, digraph_from_mask
from hambypass.digraph import format_digraph, make_path, parse_digraph
from hambypass import families as fam

GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).resolve().parent.parent

T5_TEXT = "5 10\n0 1\n0 2\n0 4\n1 2\n1 3\n2 3\n2 4\n3 0\n4 1\n4 3\n"


def run_cli(argv, stdin_text=""):
    """Drive main() in-process, returning (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


# --------------------------------------------------------------------------
# gen
# --------------------------------------------------------------------------

def test_gen_t5_exact_text():
    code, out, err = run_cli(["gen", "t5"])
    assert (code, err) == (0, "")
    assert out == T5_TEXT


def test_gen_goldens():
    assert run_cli(["gen", "dnk", "--n", "4", "--k", "2"])[1] == (
        "4 4\n0 1\n0 3\n1 2\n2 3\n"
    )
    assert run_cli(["gen", "kstar", "--n", "3"])[1] == (
        "3 6\n0 1\n0 2\n1 0\n1 2\n2 0\n2 1\n"
    )
    d0_out = run_cli(["gen", "d0", "--n", "5", "--inner", "empty"])[1]
    assert d0_out.startswith("5 12\n")
    assert parse_digraph(d0_out) == fam.d0(5, fam.InnerSpec("empty"))


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "kstar", "--n", "4"],
        ["gen", "kbipartite", "--p", "2", "--q", "3"],
        ["gen", "cycle", "--n", "6"],
        ["gen", "dnk", "--n", "5", "--k", "3"],
        ["gen", "t5"],
        ["gen", "d0", "--n", "7", "--inner", "complete"],
        ["gen", "d1", "--n", "6", "--k", "2"],
    ],
)
def test_gen_output_round_trips_through_parser(argv):
    code, out, err = run_cli(argv)
    assert (code, err) == (0, "")
    assert format_digraph(parse_digraph(out)) == out


def test_gen_feeds_find():
    code, out, _ = run_cli(["gen", "kstar", "--n", "4"])
    code, out, _ = run_cli(["find", "-", "hc"], out)
    assert code == 0
    assert json.loads(out)["found"] is True


# --------------------------------------------------------------------------
# check
# --------------------------------------------------------------------------

def test_check_t5_two_conditions():
    code, out, err = run_cli(["check", "-", "--cond", "a_k:0", "--cond", "meyniel"], T5_TEXT)
    assert (code, err) == (0, "")
    assert out == (
        '{\n'
        '  "a_k:0": {\n'
        '    "holds": true\n'
        '  },\n'
        '  "meyniel": {\n'
        '    "holds": true\n'
        '  }\n'
        '}\n'
    )


def test_check_failing_condition_reports_witness_and_exits_zero():
    c4_text = run_cli(["gen", "cycle", "--n", "4"])[1]
    code, out, _ = run_cli(["check", "-", "--cond", "meyniel"], c4_text)
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "meyniel": {
            "holds": False,
            "witness": {
                "roles": {"x": 0, "y": 2},
                "value": 4,
                "bound": 7,
                "detail": "",
            },
        }
    }


# --------------------------------------------------------------------------
# find
# --------------------------------------------------------------------------

def test_find_hc_t5():
    code, out, _ = run_cli(["find", "-", "hc"], T5_TEXT)
    assert code == 0
    assert json.loads(out) == {
        "structure": "hc",
        "found": True,
        "witness": {"vertices": [0, 1, 2, 4, 3]},
    }


def test_find_prehc_t5():
    assert json.loads(run_cli(["find", "-", "prehc"], T5_TEXT)[1]) == {
        "structure": "prehc",
        "found": True,
        "witness": {"vertices": [0, 1, 2, 3]},
    }


def test_find_bypass_t5_absent():
    assert json.loads(run_cli(["find", "-", "bypass"], T5_TEXT)[1]) == {
        "structure": "bypass",
        "found": False,
    }


def test_find_bypass_kb22():
    kb22_text = run_cli(["gen", "kbipartite", "--p", "2", "--q", "2"])[1]
    assert json.loads(run_cli(["find", "-", "bypass"], kb22_text)[1]) == {
        "structure": "bypass",
        "found": True,
        "witness": {"order": [0, 3, 1, 2]},
    }


def test_find_prehc_kb33_absent():
    kb33_text = run_cli(["gen", "kbipartite", "--p", "3", "--q", "3"])[1]
    assert json.loads(run_cli(["find", "-", "prehc"], kb33_text)[1]) == {
        "structure": "prehc",
        "found": False,
    }
    assert json.loads(run_cli(["find", "-", "cycle:5"], kb33_text)[1]) == {
        "structure": "cycle:5",
        "found": False,
    }


def test_find_dnk_pattern_kstar4():
    k4_text = run_cli(["gen", "kstar", "--n", "4"])[1]
    assert json.loads(run_cli(["find", "-", "dnk:3"], k4_text)[1]) == {
        "structure": "dnk:3",
        "found": True,
        "witness": {"mapping": [0, 1, 2, 3]},
    }


def test_find_goodcycle_kstar5():
    k5_text = run_cli(["gen", "kstar", "--n", "5"])[1]
    assert json.loads(run_cli(["find", "-", "goodcycle"], k5_text)[1]) == {
        "structure": "goodcycle",
        "found": True,
        "witness": {"vertices": [1, 2, 3, 4], "off_vertex": 0},
    }


def test_find_explain_hc_t5():
    doc = json.loads(run_cli(["find", "-", "hc", "--explain"], T5_TEXT)[1])
    assert doc["explain"] == {
        "method": "cycle-insertion",
        "start_cycle": [0, 1, 3],
        "steps": [
            {"kind": "vertex", "vertex": 2, "position": 2},
            {"kind": "vertex", "vertex": 4, "position": 1},
        ],
        "path": [0, 4, 1, 2, 3],
        "complete": True,
    }


def test_find_explain_bypass_kb22():
    kb22_text = run_cli(["gen", "kbipartite", "--p", "2", "--q", "2"])[1]
    doc = json.loads(run_cli(["find", "-", "bypass", "--explain"], kb22_text)[1])
    assert doc["explain"] == {
        "method": "chord-insertion",
        "start_path": [0, 2],
        "steps": [{"kind": "path", "vertices": [3, 1], "partners": [1]}],
        "path": [0, 3, 1, 2],
        "complete": True,
    }


def test_find_explain_hc_stops_where_no_block_fits():
    """The shortest cycle 0 1 takes no single vertex 2, and a lone leftover
    is no block path, so the replay ends short of a Hamiltonian cycle."""
    doc = json.loads(run_cli(["find", "-", "hc", "--explain"], "3 4\n0 1\n1 0\n1 2\n2 0\n")[1])
    assert doc["found"] is True
    assert doc["explain"] == {
        "method": "cycle-insertion",
        "start_cycle": [0, 1],
        "steps": [],
        "path": [0, 1],
        "complete": False,
    }


@pytest.mark.parametrize("structure", ["hc", "bypass"])
@pytest.mark.parametrize("p", [2, 3, 4])
def test_find_explain_searches_partners_once_per_block_step(monkeypatch, p, structure):
    """Each (host path, block) pair is searched once: the collection found
    for a block step is spliced as it is, not searched for again."""
    searches = []
    real = insertion.find_collection_of_partners

    def counting(g, path, q, **kwargs):
        found = real(g, path, q, **kwargs)
        searches.append((path.vertices, q.vertices, found is not None))
        return found

    monkeypatch.setattr(insertion, "find_collection_of_partners", counting)
    monkeypatch.setattr(cli, "find_collection_of_partners", counting)
    text = run_cli(["gen", "kbipartite", "--p", str(p), "--q", str(p)])[1]
    doc = json.loads(run_cli(["find", "-", structure, "--explain"], text)[1])
    block_steps = [s for s in doc["explain"]["steps"] if s["kind"] == "path"]
    assert block_steps
    assert len({(path, q) for path, q, _ in searches}) == len(searches)
    assert sum(found for _, _, found in searches) == len(block_steps)


def _explain_corpus():
    """Every digraph with n <= 4, then 1,200 seeded draws at n = 5..8, every
    other one dense (the union of two uniform draws)."""
    for n in (1, 2, 3, 4):
        for mask in range(1 << n * (n - 1)):
            yield digraph_from_mask(n, mask)
    rng = random.Random(36)
    for n in (5, 6, 7, 8):
        bits = n * (n - 1)
        for i in range(300):
            mask = rng.getrandbits(bits)
            yield digraph_from_mask(n, mask | rng.getrandbits(bits) if i % 2 else mask)


def test_find_explain_steps_replay_through_the_public_api():
    """Each --explain step is the move the insertion API makes on the path
    so far: a vertex step at find_partner_for_vertex's position, a path step
    at find_collection_of_partners' partners. The replay arrives at the
    reported path, and `complete` holds exactly when that path covers every
    vertex and, for hc, closes with an arc."""
    seen = Counter()
    for g in _explain_corpus():
        for structure, seed in (("hc", "start_cycle"), ("bypass", "start_path")):
            _, find, _, replay = cli._STRUCTURES[structure]
            hit = find(g)
            if hit is None:
                continue
            doc = replay(g, hit)
            path = make_path(g, doc[seed])
            for step in doc["steps"]:
                seen[step["kind"]] += 1
                if step["kind"] == "vertex":
                    x = step["vertex"]
                    assert step["position"] == insertion.find_partner_for_vertex(g, path, x)
                    path = insertion.insert_at(g, path, step["position"], make_path(g, (x,)))
                else:
                    q = make_path(g, step["vertices"])
                    col = insertion.find_collection_of_partners(g, path, q)
                    assert step["partners"] == list(col.partners)
                    path = insertion.multi_insert(g, path, q)
            pv = path.vertices
            assert list(pv) == doc["path"], (g.arcs(), structure)
            closed = structure == "bypass" or g.has_arc(pv[-1], pv[0])
            assert doc["complete"] == (len(pv) == g.n and closed), (g.arcs(), structure)
            seen[structure, doc["complete"]] += 1
    assert seen == {
        "vertex": 11_468,
        "path": 1_341,
        ("hc", True): 1_338,
        ("hc", False): 837,
        ("bypass", True): 3_289,
        ("bypass", False): 109,
    }


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def test_verify_thm12_n4_matches_golden():
    code, out, err = run_cli(["verify", "thm12", "--n", "4"])
    assert (code, err) == (0, "")
    got = json.loads(out, object_pairs_hook=list)
    want = json.loads((GOLDEN / "verify_thm12_n4.json").read_text(), object_pairs_hook=list)
    got = [(k, 0 if k == "elapsed_ms" else v) for k, v in got]
    want = [(k, 0 if k == "elapsed_ms" else v) for k, v in want]
    assert got == want  # values AND key order


def test_verify_emits_single_json_document():
    _, out, _ = run_cli(["verify", "thm8", "--n", "3"])
    doc = json.loads(out)  # raises if more than one document
    assert doc["theorem"] == "thm8"
    assert [e["canonical_hex"] for e in doc["exceptions"]] == ["04e", "062"]


def test_verify_thm11_n4_confirmed_with_exception_listed(kb22):
    code, out, _ = run_cli(["verify", "thm11", "--n", "4"])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "confirmed"
    assert [e["canonical_hex"] for e in doc["exceptions"]] == [iso.canonical_form(kb22).hex]


def test_verify_thm16_n6_runs_without_a_flag():
    """Exhaustive n = 6 needs no flag: the degree floors prune the class
    generator and thm13 is checked on each class."""
    code, out, _ = run_cli(["verify", "thm16", "--n", "6"])
    assert code == 0
    doc = json.loads(out)
    assert (doc["mode"], doc["scanned"]) == ("exhaustive", 1 << 30)
    assert doc["passed_filters"] == 12365746
    assert (doc["exceptions"], doc["verdict"]) == ([], "confirmed")


@pytest.mark.parametrize(
    "extra", [["--model", "dense", "--seed", "9"], ["--seed", "9"], ["--model", "dense"]]
)
def test_verify_refuses_seed_or_model_without_sample(extra):
    """An exhaustive scan draws nothing, so a seed or a model is an error,
    not silently dropped; with --sample the same flags run."""
    code, out, err = run_cli(["verify", "thm12", "--n", "5", *extra])
    assert (code, out) == (2, "")
    assert "sampled scan" in err
    code, out, _ = run_cli(["verify", "thm12", "--n", "5", "--sample", "64", "--seed", "9", *extra])
    assert code == 0 and json.loads(out)["mode"].startswith("sample:")


def test_verify_thread_env_does_not_change_output(monkeypatch):
    outputs = []
    for threads in ("1", "8"):
        monkeypatch.setenv("HAMBYPASS_THREADS", threads)
        _, out, _ = run_cli(["verify", "thm6", "--n", "4"])
        doc = json.loads(out)
        doc.pop("elapsed_ms")
        outputs.append(json.dumps(doc))
    assert outputs[0] == outputs[1]


# --------------------------------------------------------------------------
# explore
# --------------------------------------------------------------------------

def test_explore_meyniel_n3_exact():
    code, out, _ = run_cli(["explore", "--cond", "meyniel", "--n", "3"])
    assert code == 0
    doc = json.loads(out)
    doc.pop("elapsed_ms")
    assert doc == {
        "theorem": "explore:meyniel",
        "n": 3,
        "mode": "exhaustive",
        "scanned": 64,
        "passed_filters": 15,
        "exceptions": [
            {
                "canonical_hex": "062",
                "witness": {"n": 3, "m": 3, "arcs": [[0, 1], [1, 2], [2, 0]]},
            }
        ],
        "verdict": "report-only",
    }


# --------------------------------------------------------------------------
# exit codes
# --------------------------------------------------------------------------

@pytest.mark.parametrize(
    "argv, stdin_text, expected",
    [
        (["verify", "thm12", "--n", "4"], "", 0),
        (["verify", "thm6", "--n", "3"], "", 1),
        (["verify", "thm8", "--n", "3"], "", 1),
        (["verify", "thm16", "--n", "5", "--sample", "10", "--seed", "1"], "", 2),
        (["verify", "thm12", "--n", "7", "--sample", "10", "--seed", str(5 + 2**64)], "", 2),
        (["gen", "dnk", "--n", "4", "--k", "9"], "", 2),
        (["gen", "kstar"], "", 2),
        (["gen", "d0", "--n", "5", "--inner", "explicit", "--arcs", "0,1,2"], "", 2),
        (["check", "no-such-dir/g.txt", "--cond", "a_k:0"], "", 2),
        (["check", "-", "--cond", "bogus"], T5_TEXT, 2),
        (["check", "-", "--cond", "a_k:0"], "not a digraph", 2),
        (["find", "-", "zigzag"], T5_TEXT, 2),
        (["find", "-", "hc"], "not a digraph", 2),
        (["explore", "--cond", "bogus", "--n", "3"], "", 2),
        (["frobnicate"], "", 2),
        ([], "", 2),
        (["verify", "thm12", "--n", "4", "--min-in", "2"], "", 2),
    ]
    + [
        (["verify", name, "--n", str(claim.min_n - 1)], "", 2)
        for name, claim in CLAIMS.items()
        if not claim.report_only
    ]
    + [
        (["verify", "thm16", "--n", "6", "--long"], "", 2),
        (["verify", "thm12", "--n", "7"], "", 2),
        (["explore", "--cond", "thm13", "--n", "7"], "", 2),
    ],
)
def test_exit_codes(argv, stdin_text, expected):
    assert run_cli(argv, stdin_text)[0] == expected


@pytest.mark.parametrize(
    "argv, message",
    [
        (["find", "-", "hc:5"], "structure 'hc' takes no parameter, got 'hc:5'"),
        (["find", "-", "goodcycle:x"], "structure 'goodcycle' takes no parameter"),
        (["explore", "--cond", "meyniel:", "--n", "4"], "filter 'meyniel' takes no parameter"),
    ],
)
def test_an_id_without_a_parameter_takes_no_colon(argv, message):
    code, out, err = run_cli(argv, T5_TEXT)
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("spelling", ["+3", " 3", "3 ", "0_3", "03", "-0"])
@pytest.mark.parametrize("structure", ["cycle", "dnk"])
def test_find_parameter_has_one_spelling(structure, spelling):
    assert run_cli(["find", "-", f"{structure}:3"], T5_TEXT)[0] == 0
    code, out, err = run_cli(["find", "-", f"{structure}:{spelling}"], T5_TEXT)
    assert (code, out) == (2, "")
    assert "not in canonical form" in err


@pytest.mark.parametrize(
    "text",
    [
        "3 2\n0_1 2\n+2 0\n",
        "+3 3\n0 1\n1 2\n2 0\n",
        "3 03\n0 1\n1 2\n2 0\n",
        "3 3\n-0 1\n1 2\n2 0\n",
        "3 3\n0 1\n1 2\n2 0_0\n",
    ],
)
def test_digraph_text_has_one_spelling(text):
    """Header and arc numbers take only the spelling id_int takes."""
    assert run_cli(["find", "-", "hc"], "3 3\n0 1\n1 2\n2 0\n")[0] == 0
    code, out, err = run_cli(["find", "-", "hc"], text)
    assert (code, out) == (2, "")
    assert "must be" in err and "integers" in err


@pytest.mark.parametrize("arcs", ["+0,1", "0,01", "0_0,1", "-0,1", "0, 1"])
def test_inner_arcs_have_one_spelling(arcs):
    argv = ["gen", "d0", "--n", "5", "--inner", "explicit"]
    assert run_cli(argv + ["--arcs=0,1"])[0] == 0
    code, out, err = run_cli(argv + [f"--arcs={arcs}"])
    assert (code, out) == (2, "")
    assert "not in canonical form" in err


@pytest.mark.parametrize("arcs, inner", [("0,1;;1,0", [(0, 1), (1, 0)]), ("", [])])
def test_inner_arcs_skip_empty_parts(arcs, inner):
    code, out, err = run_cli(["gen", "d0", "--n", "5", "--inner", "explicit", f"--arcs={arcs}"])
    assert (code, err) == (0, "")
    assert parse_digraph(out) == fam.d0(5, fam.InnerSpec.explicit(inner))


def test_a_vertex_outside_the_digraph_exits_2(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3 1\n0 5\n")
    d0_argv = ["gen", "d0", "--n", "5", "--inner", "explicit", "--arcs", "0,5"]
    for argv, message in [
        (["find", str(path), "hc"], "vertex 5 outside range(3)"),
        (d0_argv, "vertex 5 outside range(2)"),
    ]:
        code, out, err = run_cli(argv)
        assert (code, out) == (2, ""), argv
        assert message in err


# --------------------------------------------------------------------------
# file input and console script
# --------------------------------------------------------------------------

def test_input_from_file(tmp_path):
    path = tmp_path / "t5.txt"
    path.write_text(T5_TEXT)
    code, out, _ = run_cli(["find", str(path), "hc"])
    assert code == 0
    assert json.loads(out)["found"] is True


def test_console_script_smoke(tmp_path):
    # Build the wrapper an installer writes for the `hambypass` entry point
    # declared in this checkout's pyproject.toml, so the test exercises this
    # tree rather than whatever `hambypass` happens to be on PATH.
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["hambypass"]
    module, func = target.split(":")
    exe = tmp_path / "hambypass"
    exe.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {func}\n"
        f"sys.exit({func}())\n"
    )
    exe.chmod(0o755)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [str(exe), "gen", "t5"], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 0
    assert proc.stdout == T5_TEXT


def test_module_run_executes_command():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "hambypass.cli", "gen", "t5"],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert (proc.returncode, proc.stdout) == (0, T5_TEXT)


def test_runtime_imports_only_the_standard_library():
    """The package and its CLI import nothing outside the standard library,
    even where numpy or networkx are installed: -S keeps site-packages off
    the path, and every top-level module loaded must be stdlib or ours."""
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "import hambypass, hambypass.cli\n"
        "allowed = set(sys.stdlib_module_names) | {'hambypass', '__main__'}\n"
        "print(sorted({m.split('.')[0] for m in sys.modules} - allowed))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
