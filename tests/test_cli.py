import io
import json
import os
import random
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import aft
import aft.lp
from aft.adf import FORMULA_DEPTH_LIMIT, Adf, classical_operator, parse_adf, program_to_adf
from aft.approx import ultimate
from aft.cli import _json_text, _text, build_parser, main
from aft.convex import convex_kripke_kleene
from aft.corpus import random_program, random_programs
from aft.fixpoints import kripke_kleene, stable_models, well_founded
from aft.lattice import Lattice, PowersetLattice
from aft.lp import fitting, parse_program, tp
from conftest import (
    ABC_ADF,
    DEFINITE,
    NEG_LOOP,
    SEPARATOR,
    TWO_CYCLE,
    convex_output_oracle,
    nested_adf,
    random_adf,
    random_formula,
)

SELF_ATTACK = "s(a). ac(a, neg(a)).\n"
SELF_ATTACKS = "\n".join(f"a{i} :- not a{i}." for i in range(17))
CHAIN = "\n".join(f"a{i} :- not a{i + 1}." for i in range(16))
WIDE = "a :- " + ", ".join(f"not b{i}" for i in range(17)) + "."
# an approximator on one atom that swaps the bounds: not precision-monotone
SWAP_TABLE = {
    "universe": ["p"],
    "pairs": [
        {"in": [[], []], "out": [[], []]},
        {"in": [["p"], []], "out": [[], ["p"]]},
        {"in": [[], ["p"]], "out": [["p"], []]},
        {"in": [["p"], ["p"]], "out": [["p"], ["p"]]},
    ],
}


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

    def test_formula_nested_past_the_depth_limit_exits_1(self, tmp_path, capsys):
        path = write(tmp_path, "deep.adf", "s(a). ac(a, " + "neg(" * 3000 + "a" + ")" * 3000 + ").")
        code, out, err = run(capsys, "adf", path)
        assert code == 1 and out == ""
        column = 13 + 4 * FORMULA_DEPTH_LIMIT
        assert err == f"error: formula nested more than {FORMULA_DEPTH_LIMIT} deep (line 1, column {column})\n"

    def test_convex_kk_beyond_its_atom_limit_exits_1(self, tmp_path, capsys):
        path = write(tmp_path, "chain.lp", "\n".join(f"a{i} :- not a{i + 1}." for i in range(16)))
        code, out, err = run(capsys, "lp", path, "--semantics", "convex-kk")
        assert code == 1 and out == ""
        assert err == "error: 17 atoms exceed the convex-kk limit of 16\n"

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


EVEN_CYCLE = "\n".join(f"a{i} :- not a{(i + 1) % 16}." for i in range(16))


def test_requests_check_no_value_the_engine_computes(capsys, monkeypatch):
    # the input is checked where it enters, by the parsers; every value a
    # request computes from it comes from a built-in mapping, operator or
    # revision hook, and none is tested for membership again
    checked = []
    for cls, name in ((PowersetLattice, "has"), (Lattice, "check_element")):
        method = getattr(cls, name)
        monkeypatch.setattr(
            cls, name, lambda self, x, m=method, n=name: checked.append(n) or m(self, x)
        )
    codes = []
    inputs = [("lp", TWO_CYCLE), ("lp", SEPARATOR), ("lp", EVEN_CYCLE), ("adf", ABC_ADF)]
    for frontend, text in inputs:
        run_ = [frontend, "-", "--semantics", "all", "--format", "json"]
        for argv in (run_, run_ + ["--trace"], run_ + ["--validate"], ["check", frontend, "-"]):
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            codes.append(run(capsys, *argv)[0])
    # the law checks refuse the 16-atom cycle
    assert codes == [0] * 8 + [0, 0, 1, 1] + [0] * 4
    assert checked == []


def test_untraced_kk_wf_builds_no_rule(capsys, monkeypatch):
    # an untraced kk,wf request reads only the rule tables the parser fills;
    # the views that read rules build them from the tables when asked, and
    # answer as the program built from Rule objects does
    programs = random_programs(40, seed=36, min_atoms=1, max_atoms=6)
    texts = [p.to_text() for p in programs] + [negation_chain(20), CHAIN, EVEN_CYCLE]
    built = []
    rule = aft.lp.Rule
    monkeypatch.setattr("aft.lp.Rule", lambda *args: built.append(args) or rule(*args))
    for text in texts:
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, _ = run(capsys, "lp", "-", "--semantics", "kk,wf", "--format", "json")
        assert code == 0 and json.loads(out)["kk"]
    assert built == []
    for prog in programs:
        parsed = parse_program(prog.to_text())
        for view in (
            lambda p: kripke_kleene(ultimate(tp(p)), trace=False)[0],
            lambda p: convex_kripke_kleene(tp(p))[0],
            program_to_adf,
        ):
            assert view(parsed) == view(prog)
    # the count sees the rules that a parsed program builds when asked
    assert built


class TestWellFoundedSeededFromKripkeKleene:
    # an untraced wf starts from kk, which decides the negation chain; a
    # traced one still walks from all-unknown
    CHAIN_1 = "a0.\na1 :- a0, not b0.\nb0 :- not a0.\n"
    WALK = [
        ([], ["a0", "a1", "b0"]),
        (["a0"], ["a0", "a1", "b0"]),
        (["a0"], ["a0", "a1"]),
        (["a0", "a1"], ["a0", "a1"]),
    ]
    WALK_TEXT = """\
  step 0: a0: unknown, a1: unknown, b0: unknown
  step 1: a0: true, a1: unknown, b0: unknown
  step 2: a0: true, a1: unknown, b0: false
  step 3: a0: true, a1: true, b0: false
"""
    NAMES = ("kk", "wf", "ultimate-kk", "ultimate-wf")

    @staticmethod
    def pair(lower, upper):
        assignment = {
            a: "true" if a in lower else "unknown" if a in upper else "false"
            for a in ("a0", "a1", "b0")
        }
        return {"lower": lower, "upper": upper, "assignment": assignment}

    def test_traced_json_walks_from_all_unknown(self, tmp_path, capsys):
        path = write(tmp_path, "chain.lp", self.CHAIN_1)
        semantics = ",".join(self.NAMES)
        code, out, err = run(capsys, "lp", path, "--semantics", semantics, "--trace", "--format", "json")
        entry = {**self.pair(*self.WALK[-1]), "trace": [self.pair(*p) for p in self.WALK]}
        doc = {"schema": "aft/1", "frontend": "lp", "atoms": ["a0", "a1", "b0"]}
        doc.update((name, entry) for name in self.NAMES)
        assert (code, err) == (0, "")
        assert out == json.dumps(doc, indent=2) + "\n"

    def test_traced_text_walks_from_all_unknown(self, tmp_path, capsys):
        path = write(tmp_path, "chain.lp", self.CHAIN_1)
        code, out, err = run(capsys, "lp", path, "--semantics", ",".join(self.NAMES), "--trace")
        result = "a0: true, a1: true, b0: false\n"
        assert (code, err) == (0, "")
        assert out == "".join(f"{name}: {result}{self.WALK_TEXT}" for name in self.NAMES)

    @pytest.mark.parametrize("frontend", ["lp", "adf"])
    def test_untraced_wf_and_stable_on_the_chain_apply_the_stable_operator_twice(
        self, tmp_path, capsys, monkeypatch, frontend
    ):
        # one application confirms kk as the well-founded fixpoint, and one
        # accepts it as the one stable model; from bottom wf took one per layer
        text = negation_chain(165)
        if frontend == "adf":
            text = program_to_adf(parse_program(text)).to_text()
        path = write(tmp_path, f"chain.{frontend}", text)
        calls = []
        stable_raw = aft.fixpoints._stable_raw
        monkeypatch.setattr(
            aft.fixpoints, "_stable_raw", lambda *args: calls.append(args) or stable_raw(*args)
        )
        code, out, err = run(capsys, frontend, path, "--semantics", "wf,stable", "--format", "json")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["stable"] == [doc["wf"]["lower"]] and len(doc["wf"]["lower"]) == 166
        assert len(calls) == 2

    def test_untraced_ultimate_wf_on_the_331_atom_chain_shares_ultimate_kk(
        self, tmp_path, capsys, monkeypatch
    ):
        path = write(tmp_path, "chain.lp", negation_chain(165))
        built, applied = [], []
        make = aft.cli.ultimate

        def counted(op):
            a = make(op)
            step = a._fn
            a._fn = lambda lo, hi: applied.append((lo, hi)) or step(lo, hi)
            built.append(a)
            return a

        monkeypatch.setattr(aft.cli, "ultimate", counted)
        start = time.process_time()
        code, out, err = run(
            capsys, "lp", path, "--semantics", "kk,ultimate-kk,ultimate-wf", "--format", "json"
        )
        assert time.process_time() - start < 3.0
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["ultimate-wf"] == doc["ultimate-kk"] == doc["kk"]
        # one ultimate approximator for both; from bottom its wf applies it
        # 28,055 times
        assert len(built) == 1 and len(applied) < 1000


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


# strings that JSON escapes: quotes, backslashes, control characters and
# text outside ASCII
ESCAPED = st.text(st.sampled_from('a"\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u20ac\u2028\U0001f600'))
STRINGS = ESCAPED | st.text()
DOCUMENTS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | STRINGS,
    lambda inner: st.lists(inner) | st.lists(STRINGS) | st.dictionaries(STRINGS, inner),
    max_leaves=30,
)


@settings(max_examples=150, deadline=None)
@given(DOCUMENTS)
@example({})
@example([])
@example({"a": [], "b": {}, "c": [[], {}], "d": [True, None, 0, -1]})
@example(["a", 1])
@example(["a", ["b"], {"c": "d"}])
@example([1, "a"])
@example([("a", "b"), [], ["c"], ()])
@example([["a"], "b"])
@example([["a"], {"b": "c"}])
@example([[], [["a"]]])
@example([["a"], [1]])
@example([[f"a{i}", "b"] if i % 3 else [] for i in range(2500)])
def test_json_writer_equals_the_standard_encoder(doc):
    assert _json_text(doc) == json.dumps(doc, indent=2)


# every --format json path, the files named by their kind
JSON_PATHS = [
    ["lp", "{lp}", "--semantics", "all"],
    ["lp", "{lp}", "--semantics", "all", "--trace"],
    ["adf", "{adf}", "--semantics", "all"],
    ["adf", "{adf}", "--semantics", "all", "--trace"],
    ["check", "lp", "{lp}"],
    ["check", "adf", "{adf}"],
    # a condition nested as deep as the parser admits
    ["adf", "{deep}", "--semantics", "all", "--trace", "--validate"],
    ["check", "adf", "{deep}"],
    ["check", "tab", "{tab}"],
    ["compare", "{lp}"],
    ["compare", "--corpus", "5"],
]


def json_path_argv(tmp_path, argv):
    """``argv``, a row of JSON_PATHS, with its files written under tmp_path."""
    files = {
        "lp": write(tmp_path, "sep.lp", SEPARATOR),
        "adf": write(tmp_path, "abc.adf", ABC_ADF),
        "deep": write(tmp_path, "deep.adf", nested_adf(FORMULA_DEPTH_LIMIT)),
        "tab": write(tmp_path, "swap.json", json.dumps(SWAP_TABLE)),
    }
    return [a.format(**files) for a in argv]


@pytest.mark.parametrize("argv", JSON_PATHS, ids=" ".join)
def test_json_output_is_the_standard_encoding(tmp_path, capsys, argv):
    code, out, _ = run(capsys, *json_path_argv(tmp_path, argv), "--format", "json")
    # the swap table fails a law, and its witness is printed
    assert code == (2 if "{tab}" in argv else 0)
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    if "{tab}" in argv:
        assert json.loads(out)["checks"][0]["witness"] is not None


@pytest.mark.parametrize("argv", JSON_PATHS, ids=" ".join)
def test_text_output_is_the_view_of_the_json_document(tmp_path, capsys, argv):
    argv = json_path_argv(tmp_path, argv)
    json_code, json_out, json_err = run(capsys, *argv, "--format", "json")
    text_code, text_out, text_err = run(capsys, *argv, "--format", "text")
    assert (text_code, text_err) == (json_code, json_err)
    assert text_out == _text(json.loads(json_out)) + "\n"


# the text of a failed check and of a corpus comparison, line for line:
# argv, exit code and output
PINNED_COMMAND_TEXT = {
    "check-tab-swap": (
        ["check", "tab", "{tab}"],
        2,
        """\
precision-monotone: FAIL  witness: ((frozenset(), frozenset()), (frozenset({'p'}), frozenset()))
approximates-operator: skipped (no base operator)
exact-on-diagonal: skipped (no base operator)
symmetric: ok
""",
    ),
    "compare-corpus-5-seed-7": (
        ["compare", "--corpus", "5", "--seed", "7"],
        0,
        """\
programs: 5 (seed 7)
ultimate-kk strictly more precise than fitting-kk: 0
convex-kk strictly smaller than ultimate-kk interval: 2
""",
    ),
}


@pytest.mark.parametrize("name", PINNED_COMMAND_TEXT)
def test_command_text_is_pinned(tmp_path, capsys, name):
    argv, code, text = PINNED_COMMAND_TEXT[name]
    assert run(capsys, *json_path_argv(tmp_path, argv)) == (code, text, "")


CONVEX_FORMATS = [("json", False), ("json", True), ("text", False), ("text", True)]


def check_convex_output(tmp_path, capsys, frontend, text, formats=CONVEX_FORMATS):
    """``--semantics convex-kk`` in each (format, traced) of ``formats``
    against ``convex_output_oracle`` over the frozensets of the members."""
    path = write(tmp_path, f"input.{frontend}", text)
    if frontend == "lp":
        op = tp(parse_program(text))
    else:
        op = classical_operator(parse_adf(text))
    result, trace = convex_kripke_kleene(op)
    result, trace = frozenset(result), [frozenset(s) for s in trace]
    atoms = sorted(op.lattice.universe)
    for fmt, traced in formats:
        argv = [frontend, path, "--semantics", "convex-kk", "--format", fmt]
        code, out, err = run(capsys, *argv, *["--trace"] * traced)
        assert (code, err) == (0, "")
        assert out == convex_output_oracle(frontend, atoms, result, trace if traced else None, fmt)


@pytest.mark.parametrize("seed", range(26))
def test_convex_kk_output_lists_the_members_as_before(tmp_path, capsys, seed):
    # seeded programs and frameworks of 0-12 atoms, each size once of each
    rng = random.Random(seed)
    n = seed % 13
    if seed < 13:
        check_convex_output(tmp_path, capsys, "lp", random_program(rng, n).to_text())
    else:
        check_convex_output(tmp_path, capsys, "adf", random_adf(rng, n).to_text())


@pytest.mark.parametrize("n", [0, 1, 8, 9, 16])
def test_convex_kk_output_at_the_byte_boundaries_of_a_mask(tmp_path, capsys, n):
    # masks of one byte, one bit past it and two whole bytes: a random
    # program, and the even cycle whose result, its one iterate, holds every
    # element; at 16 atoms, 65,536 of them, in two of the formats
    check_convex_output(tmp_path, capsys, "lp", random_program(random.Random(n), n).to_text())
    cycle = "".join(f"a{i} :- not a{(i + 1) % n}.\n" for i in range(n))
    formats = CONVEX_FORMATS if n < 16 else [("json", False), ("text", True)]
    check_convex_output(tmp_path, capsys, "lp", cycle, formats)


# the modules that importing aft.cli adds beyond the interpreter's own
# start-up, which ``site`` may widen, other than aft's and the standard
# library's; the CI workflow runs the same probe on the installed package
STDLIB_ONLY_PROBE = (
    "import sys; before = set(sys.modules); import aft.cli; "
    "extra = {m.partition('.')[0] for m in set(sys.modules) - before}; "
    "print(sorted(extra - {'aft'} - sys.stdlib_module_names))"
)


def test_cli_imports_only_the_standard_library():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(aft.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", STDLIB_ONLY_PROBE],
        capture_output=True, text=True, check=True, env=env,
    ).stdout
    assert out == "[]\n"


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
        path = write(tmp_path, "broken.json", json.dumps(SWAP_TABLE))
        code, out, _ = run(capsys, "check", "tab", path)
        assert code == 2
        assert "precision-monotone: FAIL" in out
        assert "witness" in out

    def test_witness_does_not_depend_on_the_hash_seed(self, tmp_path):
        # fitting's table of the two-cycle with each output's bounds swapped
        # fails precision-monotonicity at (empty, empty) towards both of its
        # covers; the one reported is the least, not the first in set order
        a = fitting(parse_program(TWO_CYCLE))
        pairs = []
        for lo, hi in sorted(a.domain(), key=lambda p: (sorted(p[0]), sorted(p[1]))):
            out_lo, out_hi = a.apply(lo, hi)
            pairs.append({"in": [sorted(lo), sorted(hi)], "out": [sorted(out_hi), sorted(out_lo)]})
        path = write(tmp_path, "swap2.json", json.dumps({"universe": ["p", "q"], "pairs": pairs}))
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(aft.__file__)))
        outs = {
            subprocess.run(
                [sys.executable, "-m", "aft.cli", "check", "tab", path],
                capture_output=True, text=True, timeout=60, env=dict(env, PYTHONHASHSEED=str(seed)),
            ).stdout
            for seed in range(5)
        }
        assert len(outs) == 1
        witness = "((frozenset(), frozenset()), (frozenset({'p'}), frozenset()))"
        assert outs.pop().splitlines()[0] == f"precision-monotone: FAIL  witness: {witness}"

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
            pytest.param(
                None,
                '{"universe": ["p"], "pairs": [1]}',
                "pair is not an object with in and out: 1",
                id="pair-not-object",
            ),
            pytest.param(
                None,
                '{"universe": ["p"], "pairs": [{"in": [[], []]}]}',
                'pair is not an object with in and out: {"in": [[], []]}',
                id="pair-without-out",
            ),
            pytest.param(
                None,
                '{"universe": ["p"], "pairs": {"a": 1}}',
                'pairs is not a list: {"a": 1}',
                id="pairs-not-list",
            ),
            pytest.param(
                None,
                '{"universe": ["p"]}',
                'not an object with universe and pairs: {"universe": ["p"]}',
                id="document-without-pairs",
            ),
            pytest.param(
                None, "[]", "not an object with universe and pairs: []", id="document-not-object"
            ),
            pytest.param(
                None,
                "p.",
                "not JSON: Expecting value: line 1 column 1 (char 0)",
                id="document-not-json",
            ),
        ],
    )
    def test_tab_atoms_must_be_lists_of_strings(self, tmp_path, capsys, universe, bound, message):
        # a total identity table over the declared universe, with at most one
        # bound of its last entry, ({p, q}, {p, q}), replaced, or else the
        # whole text of the file when ``bound`` is a string; a string would
        # otherwise be read as its characters, an atom outside the universe
        # reported as a broken law, a repeated pair read last-wins, and a
        # table of the wrong shape reported with Python's own message
        if isinstance(bound, str):
            text = bound
        else:
            atoms = universe if isinstance(universe, list) else ["p", "q"]
            subsets = [[], atoms[:1], atoms[1:], atoms]
            pairs = [{"in": [lo, hi], "out": [lo, hi]} for lo in subsets for hi in subsets]
            if bound is not None:
                key, value = bound
                pairs[-1][key] = value
            text = json.dumps({"universe": universe, "pairs": pairs})
        path = write(tmp_path, "table.json", text)
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

    def test_file_and_corpus_together_are_refused(self, tmp_path, capsys):
        path = write(tmp_path, "two-cycle.lp", TWO_CYCLE)
        code, out, err = run(capsys, "compare", path, "--corpus", "3")
        assert (code, out) == (1, "")
        assert err == "error: compare takes a file or --corpus N, not both\n"


def test_output_closed_by_its_reader_ends_quietly(tmp_path):
    # the trace of a 60-layer chain is far larger than a pipe's buffer, so
    # the command is still writing when the pipe closes after one line
    path = write(tmp_path, "chain.lp", negation_chain(60))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(aft.__file__)))
    argv = [sys.executable, "-m", "aft.cli", "lp", path, "--semantics", "kk"]
    argv += ["--trace", "--format", "json"]
    pipe = subprocess.PIPE
    with subprocess.Popen(argv, stdout=pipe, stderr=pipe, env=env) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        try:
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
    assert proc.returncode == 1
    assert err == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
def test_output_that_cannot_be_written_is_an_error(tmp_path):
    path = write(tmp_path, "two-cycle.lp", TWO_CYCLE)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(aft.__file__)))
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "aft.cli", "lp", path],
            stdout=full,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    assert proc.returncode == 1
    assert proc.stderr == b"error: cannot write the output: [Errno 28] No space left on device\n"
