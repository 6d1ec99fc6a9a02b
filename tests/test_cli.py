import io
import json
import os
import random
import subprocess
import sys
import time

import pytest

import aft
from aft.adf import Adf
from aft.cli import build_parser, main
from aft.corpus import random_formula
from aft.fixpoints import kripke_kleene, stable_models, well_founded
from aft.lp import fitting, parse_program
from conftest import ABC_ADF, DEFINITE, NEG_LOOP, SEPARATOR, TWO_CYCLE

SELF_ATTACK = "s(a). ac(a, neg(a)).\n"
SELF_ATTACKS = "\n".join(f"a{i} :- not a{i}." for i in range(17))
CHAIN = "\n".join(f"a{i} :- not a{i + 1}." for i in range(16))
WIDE = "a :- " + ", ".join(f"not b{i}" for i in range(17)) + "."


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestRun:
    def test_two_cycle_well_founded_text(self, tmp_path, capsys):
        path = write(tmp_path, "two-cycle.lp", TWO_CYCLE)
        code, out, _ = run(capsys, "lp", path, "--semantics", "wf")
        assert code == 0
        assert "p: unknown, q: unknown" in out

    def test_positive_loop_well_founded_is_false(self, tmp_path, capsys):
        path = write(tmp_path, "loop.lp", "p :- p.")
        code, out, _ = run(capsys, "lp", path, "--semantics", "wf")
        assert code == 0
        assert "p: false" in out

    def test_adf_stable_json(self, tmp_path, capsys):
        path = write(tmp_path, "abc.adf", ABC_ADF)
        code, out, _ = run(capsys, "adf", path, "--semantics", "stable", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "aft/1"
        assert doc["stable"] == [["a", "b"]]

    def test_syntax_error_reports_position_and_exits_1(self, tmp_path, capsys):
        path = write(tmp_path, "bad.lp", "p :- q, not r")
        code, out, err = run(capsys, "lp", path)
        assert code == 1
        assert "line 1" in err

    def test_convex_kk_beyond_its_atom_limit_exits_1(self, tmp_path, capsys):
        path = write(tmp_path, "chain.lp", "\n".join(f"a{i} :- not a{i + 1}." for i in range(12)))
        code, out, err = run(capsys, "lp", path, "--semantics", "convex-kk")
        assert code == 1 and out == ""
        assert err == "error: 13 atoms exceed the convex-kk limit of 12\n"

    @pytest.mark.parametrize(
        "semantics,what",
        [
            ("supported", "supported scan"),
            ("stable", "stable scan"),
            ("partial-stable", "partial-stable scan"),
            ("ultimate-kk", "ultimate"),
            ("ultimate-wf", "ultimate"),
        ],
    )
    def test_scans_beyond_their_atom_limit_exit_1(self, tmp_path, capsys, semantics, what):
        # the scans count the atoms kk or wf leave unknown: all 17
        # self-attacks; ultimate counts each atom's parents: 17 for the head
        # of the wide rule
        source = WIDE if what == "ultimate" else SELF_ATTACKS
        path = write(tmp_path, "many.lp", source)
        code, out, err = run(capsys, "lp", path, "--semantics", semantics)
        assert code == 1 and out == ""
        assert err == f"error: 17 atoms exceed the {what} limit of 16\n"

    @pytest.mark.parametrize("semantics", ["kk", "wf"])
    def test_ultimate_answers_a_universe_beyond_the_scan_limit(self, tmp_path, capsys, semantics):
        path = write(tmp_path, "chain.lp", CHAIN)
        code, out, err = run(
            capsys, "lp", path, "--semantics", f"{semantics},ultimate-{semantics}", "--format", "json"
        )
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert len(doc["atoms"]) == 17
        assert doc[f"ultimate-{semantics}"] == doc[semantics]

    def test_stable_on_a_large_universe_the_well_founded_model_decides(self, tmp_path, capsys):
        # a0.  a{i+1} :- a{i}, not b{i}.  b{i} :- not a{i}.  (21 atoms)
        layers = 10
        path = write(
            tmp_path,
            "layers.lp",
            "a0.\n"
            + "".join(f"a{i + 1} :- a{i}, not b{i}.\nb{i} :- not a{i}.\n" for i in range(layers)),
        )
        code, out, err = run(capsys, "lp", path, "--semantics", "stable", "--format", "json")
        assert code == 0 and err == ""
        assert json.loads(out)["stable"] == [sorted(f"a{i}" for i in range(layers + 1))]

    @pytest.mark.parametrize(
        "argv",
        [("check", "lp"), ("lp", "--validate", "--semantics", "kk")],
        ids=["check", "validate"],
    )
    def test_law_checks_beyond_their_atom_limit_exit_1(self, tmp_path, capsys, argv):
        path = write(tmp_path, "chain.lp", "\n".join(f"a{i} :- not a{i + 1}." for i in range(8)))
        start = time.process_time()
        code, out, err = run(capsys, *argv[:2], path, *argv[2:])
        assert time.process_time() - start < 1.0
        assert code == 1 and out == ""
        assert err == "error: 9 atoms exceed the law check limit of 8\n"

    def test_successive_calls_share_one_parser(self, tmp_path, capsys):
        path = write(tmp_path, "two-cycle.lp", TWO_CYCLE)
        assert build_parser() is build_parser()
        first = run(capsys, "lp", path, "--semantics", "wf")
        assert first == (0, "wf: p: unknown, q: unknown\n", "")
        with pytest.raises(SystemExit) as exc:
            main(["lp", path, "--format", "xml"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        # the same refusal a freshly built parser gives
        with pytest.raises(SystemExit):
            build_parser.__wrapped__().parse_args(["lp", path, "--format", "xml"])
        assert capsys.readouterr().err == err
        assert "invalid choice: 'xml'" in err
        assert run(capsys, "lp", path, "--semantics", "wf") == first

    def test_missing_file_exits_1(self, capsys):
        code, _, err = run(capsys, "lp", "/nonexistent/input.lp")
        assert code == 1
        assert "error" in err

    def test_unknown_semantics_exits_1(self, tmp_path, capsys):
        path = write(tmp_path, "p.lp", "p.")
        code, _, err = run(capsys, "lp", path, "--semantics", "nonsense")
        assert code == 1

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("p."))
        code, out, _ = run(capsys, "lp", "-", "--semantics", "stable")
        assert code == 0
        assert "stable: {p}" in out

    def test_empty_program_degenerate_lattice(self, tmp_path, capsys):
        path = write(tmp_path, "empty.lp", "% nothing\n")
        code, out, _ = run(capsys, "lp", path)
        assert code == 0

    def test_trace_lines(self, tmp_path, capsys):
        path = write(tmp_path, "abc.adf", ABC_ADF)
        code, out, _ = run(capsys, "adf", path, "--semantics", "kk", "--trace")
        assert code == 0
        assert "step 0: a: unknown, b: unknown, c: unknown" in out
        assert "step 3: a: true, b: true, c: false" in out

    def test_validate_flag(self, tmp_path, capsys):
        path = write(tmp_path, "two-cycle.lp", TWO_CYCLE)
        code, out, _ = run(capsys, "lp", path, "--validate", "--semantics", "kk")
        assert code == 0

    def test_json_round_trips_to_engine_structures(self, tmp_path, capsys):
        path = write(tmp_path, "sep.lp", SEPARATOR)
        code, out, _ = run(capsys, "lp", path, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        prog = parse_program(SEPARATOR)
        a = fitting(prog)
        kk, _ = kripke_kleene(a)
        wf, _ = well_founded(a)
        assert (frozenset(doc["kk"]["lower"]), frozenset(doc["kk"]["upper"])) == kk.raw()
        assert (frozenset(doc["wf"]["lower"]), frozenset(doc["wf"]["upper"])) == wf.raw()
        assert {frozenset(m) for m in doc["stable"]} == stable_models(a)

    def test_text_and_json_agree(self, tmp_path, capsys):
        path = write(tmp_path, "two-cycle.lp", TWO_CYCLE)
        _, text_out, _ = run(capsys, "lp", path, "--semantics", "wf")
        _, json_out, _ = run(capsys, "lp", path, "--semantics", "wf", "--format", "json")
        doc = json.loads(json_out)
        rendered = ", ".join(f"{a}: {v}" for a, v in doc["wf"]["assignment"].items())
        assert f"wf: {rendered}" in text_out


# Every semantics on three inputs, as printed with --trace; the untraced
# output is the same without the step lines and trace keys.
PINNED_TEXT = {
    "two-cycle": """\
kk: p: unknown, q: unknown
  step 0: p: unknown, q: unknown
wf: p: unknown, q: unknown
  step 0: p: unknown, q: unknown
supported: {p}, {q}
stable: {p}, {q}
partial-stable: [p: unknown, q: unknown], [p: true, q: false], [p: false, q: true]
ultimate-kk: p: unknown, q: unknown
  step 0: p: unknown, q: unknown
ultimate-wf: p: unknown, q: unknown
  step 0: p: unknown, q: unknown
convex-kk: {}, {p}, {p,q}, {q}
  step 0: {}, {p}, {p,q}, {q}
""",
    "separator": """\
kk: p: unknown, q: unknown
  step 0: p: unknown, q: unknown
wf: p: true, q: false
  step 0: p: unknown, q: unknown
  step 1: p: unknown, q: false
  step 2: p: true, q: false
supported: {p}, {p,q}
stable: {p}
partial-stable: [p: true, q: false]
ultimate-kk: p: true, q: unknown
  step 0: p: unknown, q: unknown
  step 1: p: true, q: unknown
ultimate-wf: p: true, q: false
  step 0: p: unknown, q: unknown
  step 1: p: true, q: false
convex-kk: {p}, {p,q}
  step 0: {}, {p}, {p,q}, {q}
  step 1: {p}, {p,q}
""",
    "self-attack": """\
kk: a: unknown
  step 0: a: unknown
wf: a: unknown
  step 0: a: unknown
supported: (none)
stable: (none)
partial-stable: [a: unknown]
ultimate-kk: a: unknown
  step 0: a: unknown
ultimate-wf: a: unknown
  step 0: a: unknown
convex-kk: {}, {a}
  step 0: {}, {a}
""",
}

PQ_OPEN = {"lower": [], "upper": ["p", "q"], "assignment": {"p": "unknown", "q": "unknown"}}
PQ_P = {"lower": ["p"], "upper": ["p"], "assignment": {"p": "true", "q": "false"}}
PQ_Q = {"lower": ["q"], "upper": ["q"], "assignment": {"p": "false", "q": "true"}}
PQ_P_OPEN = {"lower": ["p"], "upper": ["p", "q"], "assignment": {"p": "true", "q": "unknown"}}
PQ_Q_FALSE = {"lower": [], "upper": ["p"], "assignment": {"p": "unknown", "q": "false"}}
A_OPEN = {"lower": [], "upper": ["a"], "assignment": {"a": "unknown"}}
PQ_SETS = [[], ["p"], ["p", "q"], ["q"]]

PINNED_JSON = {
    "two-cycle": {
        "schema": "aft/1",
        "frontend": "lp",
        "atoms": ["p", "q"],
        "kk": {**PQ_OPEN, "trace": [PQ_OPEN]},
        "wf": {**PQ_OPEN, "trace": [PQ_OPEN]},
        "supported": [["p"], ["q"]],
        "stable": [["p"], ["q"]],
        "partial-stable": [PQ_OPEN, PQ_P, PQ_Q],
        "ultimate-kk": {**PQ_OPEN, "trace": [PQ_OPEN]},
        "ultimate-wf": {**PQ_OPEN, "trace": [PQ_OPEN]},
        "convex-kk": {"members": PQ_SETS, "trace": [PQ_SETS]},
    },
    "separator": {
        "schema": "aft/1",
        "frontend": "lp",
        "atoms": ["p", "q"],
        "kk": {**PQ_OPEN, "trace": [PQ_OPEN]},
        "wf": {**PQ_P, "trace": [PQ_OPEN, PQ_Q_FALSE, PQ_P]},
        "supported": [["p"], ["p", "q"]],
        "stable": [["p"]],
        "partial-stable": [PQ_P],
        "ultimate-kk": {**PQ_P_OPEN, "trace": [PQ_OPEN, PQ_P_OPEN]},
        "ultimate-wf": {**PQ_P, "trace": [PQ_OPEN, PQ_P]},
        "convex-kk": {"members": [["p"], ["p", "q"]], "trace": [PQ_SETS, [["p"], ["p", "q"]]]},
    },
    "self-attack": {
        "schema": "aft/1",
        "frontend": "adf",
        "atoms": ["a"],
        "kk": {**A_OPEN, "trace": [A_OPEN]},
        "wf": {**A_OPEN, "trace": [A_OPEN]},
        "supported": [],
        "stable": [],
        "partial-stable": [A_OPEN],
        "ultimate-kk": {**A_OPEN, "trace": [A_OPEN]},
        "ultimate-wf": {**A_OPEN, "trace": [A_OPEN]},
        "convex-kk": {"members": [[], ["a"]], "trace": [[[], ["a"]]]},
    },
}

PINNED_INPUTS = {
    "two-cycle": ("lp", TWO_CYCLE),
    "separator": ("lp", SEPARATOR),
    "self-attack": ("adf", SELF_ATTACK),
}


def negation_chain(layers):
    """a0.  a{i+1} :- a{i}, not b{i}.  b{i} :- not a{i}.  (2 * layers + 1 atoms)"""
    return "a0.\n" + "".join(
        f"a{i + 1} :- a{i}, not b{i}.\nb{i} :- not a{i}.\n" for i in range(layers)
    )


class TestUltimateAtScale:
    # ultimate decides each atom on its own parents, so a universe far
    # beyond the scan limit is answered when every atom has few parents
    def test_ultimate_kk_on_the_331_atom_chain(self, tmp_path, capsys):
        path = write(tmp_path, "chain.lp", negation_chain(165))
        start = time.process_time()
        code, out, err = run(capsys, "lp", path, "--semantics", "kk,ultimate-kk", "--format", "json")
        assert time.process_time() - start < 3.0
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert len(doc["atoms"]) == 331
        assert doc["ultimate-kk"] == doc["kk"]

    def test_ultimate_wf_on_the_101_atom_chain_equals_wf(self, tmp_path, capsys):
        path = write(tmp_path, "chain.lp", negation_chain(50))
        code, out, err = run(capsys, "lp", path, "--semantics", "wf,ultimate-wf", "--format", "json")
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert len(doc["atoms"]) == 101
        assert doc["ultimate-wf"] == doc["wf"]

    def test_ultimate_on_a_300_statement_framework(self, tmp_path, capsys):
        rng = random.Random(300)
        names = [f"s{i}" for i in range(300)]
        framework = Adf(names, {s: random_formula(rng, names, 3) for s in names})
        path = write(tmp_path, "random.adf", framework.to_text())
        code, out, err = run(
            capsys, "adf", path, "--semantics", "kk,wf,ultimate-kk,ultimate-wf", "--format", "json"
        )
        assert code == 0 and err == ""
        doc = json.loads(out)
        # the ultimate fixpoints refine the strong Kleene ones
        for name in ("kk", "wf"):
            ult = doc[f"ultimate-{name}"]
            assert set(doc[name]["lower"]) <= set(ult["lower"])
            assert set(ult["upper"]) <= set(doc[name]["upper"])


def untraced_doc(doc):
    out = {}
    for key, value in doc.items():
        if isinstance(value, dict):
            value = {k: v for k, v in value.items() if k != "trace"}
        out[key] = value
    return out


@pytest.mark.parametrize("name", sorted(PINNED_INPUTS))
@pytest.mark.parametrize("trace", [False, True])
class TestPinnedOutput:
    def test_text(self, tmp_path, capsys, name, trace):
        frontend, source = PINNED_INPUTS[name]
        path = write(tmp_path, f"input.{frontend}", source)
        code, out, _ = run(capsys, frontend, path, *(["--trace"] if trace else []))
        expected = PINNED_TEXT[name]
        if not trace:
            expected = "".join(
                line for line in expected.splitlines(True) if not line.startswith("  step ")
            )
        assert code == 0
        assert out == expected

    def test_json(self, tmp_path, capsys, name, trace):
        frontend, source = PINNED_INPUTS[name]
        path = write(tmp_path, f"input.{frontend}", source)
        argv = [frontend, path, "--format", "json"] + (["--trace"] if trace else [])
        code, out, _ = run(capsys, *argv)
        doc = PINNED_JSON[name] if trace else untraced_doc(PINNED_JSON[name])
        assert code == 0
        assert out == json.dumps(doc, indent=2) + "\n"


def test_import_leaves_graph_library_unloaded():
    probe = "import sys, aft.cli; print('networkx' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(aft.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.strip() == "False"


class TestCheck:
    def test_program_passes_all_laws(self, tmp_path, capsys):
        path = write(tmp_path, "two-cycle.lp", TWO_CYCLE)
        code, out, _ = run(capsys, "check", "lp", path)
        assert code == 0
        for law in ("precision-monotone", "approximates-operator", "exact-on-diagonal", "symmetric"):
            assert f"{law}: ok" in out

    def test_empty_program_passes(self, tmp_path, capsys):
        path = write(tmp_path, "empty.lp", "")
        code, out, _ = run(capsys, "check", "lp", path)
        assert code == 0

    def test_adf_passes(self, tmp_path, capsys):
        path = write(tmp_path, "abc.adf", ABC_ADF)
        code, out, _ = run(capsys, "check", "adf", path)
        assert code == 0

    def test_broken_tabulated_approximator_fails_with_witness(self, tmp_path, capsys):
        # the swap map is not precision-monotone
        table = {
            "universe": ["p"],
            "pairs": [
                {"in": [[], []], "out": [[], []]},
                {"in": [["p"], []], "out": [[], ["p"]]},
                {"in": [[], ["p"]], "out": [["p"], []]},
                {"in": [["p"], ["p"]], "out": [["p"], ["p"]]},
            ],
        }
        path = write(tmp_path, "broken.json", json.dumps(table))
        code, out, _ = run(capsys, "check", "tab", path)
        assert code == 2
        assert "precision-monotone: FAIL" in out
        assert "witness" in out

    def test_tab_must_be_total(self, tmp_path, capsys):
        table = {"universe": ["p"], "pairs": [{"in": [[], []], "out": [[], []]}]}
        path = write(tmp_path, "partial.json", json.dumps(table))
        code, _, err = run(capsys, "check", "tab", path)
        assert code == 1
        assert "not total" in err

    def test_short_table_over_a_large_universe_is_refused_before_enumerating(self, tmp_path, capsys):
        table = {"universe": [f"a{i}" for i in range(24)], "pairs": []}
        path = write(tmp_path, "short.json", json.dumps(table))
        start = time.process_time()
        code, _, err = run(capsys, "check", "tab", path)
        assert time.process_time() - start < 1.0
        assert code == 1
        assert err == (
            "error: approximator table is not total: 0 pairs listed, 281474976710656 needed\n"
        )

    @pytest.mark.parametrize(
        "universe,bound,message",
        [
            ([1, "a"], None, 'universe is not a list of strings: [1, "a"]'),
            ("pq", None, 'universe is not a list of strings: "pq"'),
            (["p", "q"], ("in", ["pq", ""]), 'in is not a list of strings: "pq"'),
            (["p", "q"], ("out", ["q", ""]), 'out is not a list of strings: "q"'),
            (
                ["p", "q"],
                ("out", [[], ["z"]]),
                'out names atoms outside the universe: {"in": [["p", "q"], ["p", "q"]], '
                '"out": [[], ["z"]]}',
            ),
            (
                ["p", "q"],
                ("in", [["p"]]),
                'in is not a pair of bounds: {"in": [["p"]], "out": [["p", "q"], ["p", "q"]]}',
            ),
            (
                ["p", "q"],
                ("in", [[], []]),
                'in listed twice with different outputs: {"in": [[], []], '
                '"out": [["p", "q"], ["p", "q"]]}',
            ),
        ],
    )
    def test_tab_atoms_must_be_lists_of_strings(self, tmp_path, capsys, universe, bound, message):
        # a total identity table over the declared universe, with at most one
        # bound of its last entry, ({p, q}, {p, q}), replaced; a string would
        # otherwise be read as its characters, an atom outside the universe
        # reported as a broken law, and a repeated pair read last-wins
        atoms = universe if isinstance(universe, list) else ["p", "q"]
        subsets = [[], atoms[:1], atoms[1:], atoms]
        pairs = [{"in": [lo, hi], "out": [lo, hi]} for lo in subsets for hi in subsets]
        if bound is not None:
            key, value = bound
            pairs[-1][key] = value
        path = write(tmp_path, "table.json", json.dumps({"universe": universe, "pairs": pairs}))
        code, out, err = run(capsys, "check", "tab", path)
        assert (code, out) == (1, "")
        assert err == f"error: malformed approximator table: {message}\n"

    def test_check_json_format(self, tmp_path, capsys):
        path = write(tmp_path, "two-cycle.lp", TWO_CYCLE)
        code, out, _ = run(capsys, "check", "lp", path, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert all(c["ok"] for c in doc["checks"])


class TestCompare:
    def test_negative_loop_all_agree(self, tmp_path, capsys):
        path = write(tmp_path, "neg.lp", NEG_LOOP)
        code, out, _ = run(capsys, "compare", path)
        assert code == 0
        assert "ultimate-kk vs fitting-kk: equal" in out

    def test_definite_collapses_everywhere(self, tmp_path, capsys):
        path = write(tmp_path, "def.lp", DEFINITE)
        code, out, _ = run(capsys, "compare", path, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["comparison"]["fitting_leq_ultimate"] is True
        assert doc["comparison"]["ultimate_strict_gain"] is False
        assert doc["fitting-kk"] == doc["ultimate-kk"]

    def test_separator_flags_strict_gain(self, tmp_path, capsys):
        path = write(tmp_path, "sep.lp", SEPARATOR)
        code, out, _ = run(capsys, "compare", path)
        assert code == 0
        assert "ultimate-kk vs fitting-kk: strictly more precise" in out

    def test_corpus_scan_is_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "compare", "--corpus", "20", "--seed", "42", "--format", "json")
        code2, out2, _ = run(capsys, "compare", "--corpus", "20", "--seed", "42", "--format", "json")
        assert code1 == code2 == 0
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["schema"] == "aft/1"
        assert doc["programs"] == 20
        assert doc["seed"] == 42

    def test_corpus_size_must_not_be_negative(self, capsys):
        code, out, err = run(capsys, "compare", "--corpus", "-3")
        assert (code, out) == (1, "")
        assert err == "error: --corpus needs a count of programs, not -3\n"

    def test_compare_needs_input(self, capsys):
        code, _, err = run(capsys, "compare")
        assert code == 1
