import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aft.adf import (
    FORMULA_DEPTH_LIMIT,
    Adf,
    And,
    Const,
    Not,
    Or,
    Var,
    adf_approximator,
    attack_network,
    classical_operator,
    parse_adf,
    program_to_adf,
)
from aft.approx import (
    ApproxPair,
    is_exact_approximator,
    is_symmetric,
    ultimate,
    verify_approximator,
)
from aft.errors import (
    AftError,
    LatticeMismatch,
    MissingCondition,
    ParseError,
    UndeclaredStatement,
)
from aft.fixpoints import (
    fixpoints_of,
    kripke_kleene,
    stable_models,
    supported_fixpoints,
    well_founded,
)
from aft.lattice import PowersetLattice
from aft.lp import fitting, parse_program
from conftest import Truth, eval3, fs, nested_adf, parse_adf_oracle, random_adf, support_oracle

ABC = "s(a). s(b). s(c). ac(a, true). ac(b, a). ac(c, neg(b))."


# (text, line, column, message) of the first ParseError, as for programs
ADF_PARSE_ERRORS = [
    ("s(a). ac(a, and(a)).", 1, 18, "expected ','"),
    ("s(a)\nac(a, true).", 2, 1, "expected '.'"),
    ("x(a).", 1, 1, "expected 's' or 'ac'"),
    ("s(a). ac(a, neg(a)", 1, 19, "expected ')'"),
    ("s(a).\r\nac(a, or(a, ).\r\n", 2, 13, "expected a formula"),
    ("s(a).\n\tac(a,\ttrue))", 2, 13, "expected '.'"),
    ("% c\ns(a). % d\nac(a, true). ac(a, false).", 3, 14, "duplicate condition for 'a'"),
    ("s(and).", 1, 3, "'and' is reserved and cannot name a statement"),
    ("s(not). ac(not, true).\nac(neg, true).", 2, 4, "'neg' is reserved and cannot name a statement"),
    ("s(a). ac(a, true). ac(a, false).", 1, 20, "duplicate condition for 'a'"),
    ("s(a). ac(a, b,).\ns(?)", 2, 3, "unexpected character '?'"),
    ("s(a). ac(a, true", 1, 17, "expected ')'"),
    ("s(a). ac(", 1, 10, "expected a statement name"),
    ("s(a). ac(a, A).", 1, 13, "unexpected character 'A'"),
    ("s(a). ac(a, true). s(b). ac(b, :-).", 1, 32, "expected a formula"),
    # one connective past the limit: the error is at the innermost
    pytest.param(
        "s(a). ac(a, " + "neg(" * (FORMULA_DEPTH_LIMIT + 1) + "a" + ")" * (FORMULA_DEPTH_LIMIT + 1) + ").",
        1,
        13 + 4 * FORMULA_DEPTH_LIMIT,
        f"formula nested more than {FORMULA_DEPTH_LIMIT} deep",
        id="neg-past-the-depth-limit",
    ),
    pytest.param(
        nested_adf(FORMULA_DEPTH_LIMIT + 1),
        2,
        nested_adf(FORMULA_DEPTH_LIMIT + 1).split("\n")[1].index("neg(a)") + 1,
        f"formula nested more than {FORMULA_DEPTH_LIMIT} deep",
        id="mixed-past-the-depth-limit",
    ),
]


class TestParser:
    @pytest.mark.parametrize("text,line,column,message", ADF_PARSE_ERRORS)
    def test_error_positions(self, text, line, column, message):
        with pytest.raises(ParseError) as exc:
            parse_adf(text)
        assert (exc.value.line, exc.value.column) == (line, column)
        assert str(exc.value) == f"{message} (line {line}, column {column})"

    def test_single_statement(self):
        framework = parse_adf("s(a). ac(a, true).")
        assert framework.statements == fs("a")
        assert framework.conditions["a"] == Const(True)

    def test_two_statements(self):
        framework = parse_adf("s(a). s(b). ac(a,true). ac(b, neg(a)).")
        assert framework.statements == fs("a", "b")
        assert framework.conditions["b"] == Not(Var("a"))

    def test_condition_for_undeclared_statement(self):
        with pytest.raises(UndeclaredStatement) as exc:
            parse_adf("ac(a, true).")
        assert exc.value.name == "a"

    def test_undeclared_variable_in_condition(self):
        with pytest.raises(UndeclaredStatement) as exc:
            parse_adf("s(a). ac(a, and(a, b)).")
        assert exc.value.name == "b"

    def test_statement_without_condition(self):
        with pytest.raises(MissingCondition):
            parse_adf("s(a).")

    def test_duplicate_condition(self):
        with pytest.raises(ParseError):
            parse_adf("s(a). ac(a, true). ac(a, false).")

    def test_reserved_statement_name(self):
        with pytest.raises(ParseError):
            parse_adf("s(neg). ac(neg, true).")

    def test_nested_formula(self):
        framework = parse_adf("s(a). s(b). ac(a, or(and(a, neg(b)), false)). ac(b, true).")
        assert framework.conditions["a"] == Or(And(Var("a"), Not(Var("b"))), Const(False))

    def test_declarations_in_any_order(self):
        framework = parse_adf("ac(a, b). s(b). s(a). ac(b, true).")
        assert framework.statements == fs("a", "b")

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse_adf("s(a). ac(a true).")
        assert exc.value.line == 1

    def test_round_trip(self):
        framework = parse_adf(ABC)
        assert parse_adf(framework.to_text()) == framework


# pieces of framework text, valid and not: statement names that look like
# keywords, keywords, comments (a stray % among them), every whitespace the
# grammar admits and some it does not
ADF_PIECES = (
    ["a", "s", "ac", "not", "neg", "true", "x_Y", "(", ")", ",", "."] * 2
    + [" ", "\n", "\t", "\r\n", "\r", "% note\n", "%", "\v", "é", ":-", "?", "A", "1", "_"]
)
ADF_NAMES = ["a", "b", "s", "ac", "not", "x_Y"]


def random_formula(rng, names, depth):
    pick = rng.random()
    if depth == 0 or pick < 0.3:
        return rng.choice(names + ["true", "false"])
    if pick < 0.5:
        return f"neg({random_formula(rng, names, depth - 1)})"
    sep = rng.choice([", ", ",", " ,\n", ",% c\n", ",\t"])
    first, second = (random_formula(rng, names, depth - 1) for _ in range(2))
    return f"{rng.choice(['and', 'or'])}({first}{sep}{second})"


def random_adf_text(rng):
    """A framework whose declarations are mostly well formed, in random
    order, sometimes one declared twice or a keyword declared, then a few
    random pieces put in or taken out, a suffix cut off, or a comment at end
    of file."""
    names = rng.sample(ADF_NAMES, rng.randint(1, 4))
    decls = [f"s({n})." for n in names]
    decls += [f"ac({n}, {random_formula(rng, names, rng.randint(0, 3))})." for n in names]
    if rng.random() < 0.15:
        decls.append(rng.choice(decls))
    if rng.random() < 0.05:
        decls.append(f"s({rng.choice(['neg', 'and', 'or', 'true', 'false'])}).")
    rng.shuffle(decls)
    out = []
    for decl in decls:
        out.append(decl)
        out.append(rng.choice(["\n", " ", "\r\n", "\t", "", " % c\n"]))
    pieces = list("".join(out))
    for _ in range(rng.choice([0, 0, 0, 1, 2, 4])):
        at = rng.randint(0, len(pieces))
        if rng.random() < 0.7 or not pieces:
            pieces.insert(at, rng.choice(ADF_PIECES))
        else:
            del pieces[min(at, len(pieces) - 1)]
    if rng.random() < 0.1:
        del pieces[rng.randint(0, len(pieces)) :]
    if rng.random() < 0.1:
        pieces.append("% at end of file")
    return "".join(pieces)


def adf_parse_outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return (str(exc), exc.line, exc.column)
    except AftError as exc:
        return (type(exc), str(exc))


@pytest.mark.parametrize(
    "text",
    [
        "s(s). s(ac). s(not). ac(s, ac). ac(ac, not). ac(not, neg(s)).",
        "s(a). ac(a, or(and(neg(a), true), neg(neg(false)))).",
        "s(a). ac(a, true).% comment at end of file",
        "s(a). ac(a, true). %",
        "s(a).%c\nac(a,%c\ntrue).",
        "s(a).\r\nac(a,\ttrue).",
        "s(a). s(a). ac(a, a).",
        "s(a). ac(a, a). ac(a, a).",
        "s(true). ac(true, true).",
        "s(a). ac(a, neg a).",
        "s(a). ac(a, true)\v.",
        "s(a). ac(a, é).",
        "s(a). ac(a, aé).",
        "s(a). ac(a, 1a).",
        "s(a). ac(a, Ab).",
        "s(a). ac(a, _a).",
        "s(a). ac(a, tru",
        "s(a). ac(a, and(a, a)",
        "s (a) . ac ( a , a ) .",
        "sa(a).",
        "s(a). ac(b, a).",
        "s(a).",
        "",
        "% only a comment",
        pytest.param(nested_adf(FORMULA_DEPTH_LIMIT), id="at-the-depth-limit"),
    ],
)
def test_fast_parse_equals_the_token_parse_on_examples(text):
    assert adf_parse_outcome(parse_adf, text) == adf_parse_outcome(parse_adf_oracle, text)


def test_fast_parse_equals_the_token_parse_on_random_texts():
    rng = random.Random(2025)
    parsed = failed = 0
    for _ in range(4000):
        text = random_adf_text(rng)
        expected = adf_parse_outcome(parse_adf_oracle, text)
        assert adf_parse_outcome(parse_adf, text) == expected, text
        if isinstance(expected, Adf):
            parsed += 1
        elif isinstance(expected[0], str):
            failed += 1
    # both paths are exercised: well-formed texts and parse errors
    assert parsed > 1000 and failed > 1000


@pytest.mark.parametrize(
    "text",
    [
        "s(a). ac(a, " + "x" * 100_000 + "é",
        "s(a). ac(a, " + "x " * 50_000 + ").",
        " " * 100_000 + "?",
        "s(a). " * 16_667 + "s(",
        "s(a). ac(a, and(a, neg(a))). " * 3_500 + "ac(a,",
        "%" + "x" * 100_000 + "\n?",
        "s(a). ac(a, " + "neg(" * 25_000,
    ],
    ids=["bad-character", "two-names", "spaces", "cut", "duplicate", "comment", "deep"],
)
def test_malformed_text_fails_in_linear_time(text):
    # 100,000 characters, wrong only at the end or from within the first
    # declaration on; every check before the error is linear in the text
    assert len(text) >= 100_000
    start = time.process_time()
    with pytest.raises((ParseError, MissingCondition)):
        parse_adf(text)
    assert time.process_time() - start < 0.5


class TestEval3:
    # eval3 reads conftest's support_oracle, so these pin the oracle's strong
    # Kleene tables, which the operator tests compare the engine with
    LAT = PowersetLattice(parse_adf("s(a). ac(a, true).").statements)

    def tv(self, formula, lower, upper, universe=("a",)):
        from aft.lattice import PowersetLattice

        lat = PowersetLattice(universe)
        return eval3(formula, ApproxPair(lat, frozenset(lower), frozenset(upper)))

    def test_variable_cases(self):
        assert self.tv(Var("a"), ["a"], ["a"]) is Truth.TRUE
        assert self.tv(Var("a"), [], []) is Truth.FALSE
        assert self.tv(Var("a"), [], ["a"]) is Truth.UNKNOWN

    def test_negation_of_unknown(self):
        assert self.tv(Not(Var("a")), [], ["a"]) is Truth.UNKNOWN

    def test_excluded_middle_fails(self):
        assert self.tv(Or(Var("a"), Not(Var("a"))), [], ["a"]) is Truth.UNKNOWN

    def test_strong_kleene_tables(self):
        args = {
            Truth.TRUE: (["a"], ["a"]),
            Truth.FALSE: ([], []),
            Truth.UNKNOWN: ([], ["a"]),
        }
        both = {
            Truth.TRUE: (["a", "b"], ["a", "b"]),
            Truth.FALSE: ([], []),
            Truth.UNKNOWN: ([], ["a", "b"]),
        }
        for va in Truth:
            assert self.tv(Not(Var("a")), *args[va]) is Truth(1.0 - va.value)
            for vb in Truth:
                lower = [n for n, v in (("a", va), ("b", vb)) if v is Truth.TRUE]
                upper = [n for n, v in (("a", va), ("b", vb)) if v is not Truth.FALSE]
                pair = (lower, upper, ("a", "b"))
                assert self.tv(And(Var("a"), Var("b")), *pair) is Truth(min(va.value, vb.value))
                assert self.tv(Or(Var("a"), Var("b")), *pair) is Truth(max(va.value, vb.value))

    def test_exact_pairs_evaluate_classically(self):
        formula = Or(And(Var("a"), Not(Var("b"))), Var("b"))
        for x in map(frozenset, [[], ["a"], ["b"], ["a", "b"]]):
            classical = ("a" in x and "b" not in x) or "b" in x
            got = self.tv(formula, x, x, universe=("a", "b"))
            assert got is (Truth.TRUE if classical else Truth.FALSE)


class TestApproximator:
    def test_abc_steps(self):
        a = adf_approximator(parse_adf(ABC))
        assert a.apply(fs(), fs("a", "b", "c")) == (fs("a"), fs("a", "b", "c"))
        assert a.apply(fs("a"), fs("a", "b", "c")) == (fs("a", "b"), fs("a", "b", "c"))

    def test_exact_pairs_match_classical_operator(self):
        framework = parse_adf(ABC)
        lat = PowersetLattice(framework.statements)
        a = adf_approximator(framework, lat)
        op = classical_operator(framework, lat)
        for x in lat.elements:
            assert a.apply(x, x) == (op(x), op(x))

    def test_laws(self):
        framework = parse_adf(ABC)
        a = adf_approximator(framework)
        assert verify_approximator(a) is a
        assert is_symmetric(a)
        assert is_exact_approximator(a)

    @pytest.mark.parametrize("universe", [set(), {"q"}, {"a", "q"}])
    def test_classical_operator_refuses_a_lattice_of_other_statements(self, universe):
        with pytest.raises(LatticeMismatch):
            classical_operator(parse_adf("s(a). ac(a, true)."), PowersetLattice(universe))

    @pytest.mark.parametrize("universe", [set(), {"q"}, {"a", "q"}])
    def test_approximator_refuses_a_lattice_of_other_statements(self, universe):
        with pytest.raises(LatticeMismatch):
            adf_approximator(parse_adf("s(a). ac(a, true)."), PowersetLattice(universe))

    def test_self_attack_is_precision_monotone_on_inconsistent_pairs(self):
        a = adf_approximator(parse_adf("s(a). ac(a, neg(a))."))
        assert verify_approximator(a) is a
        assert is_symmetric(a)


class TestSemantics:
    def test_abc_report(self):
        a = adf_approximator(parse_adf(ABC))
        assert kripke_kleene(a)[0].raw() == (fs("a", "b"), fs("a", "b"))
        assert well_founded(a)[0].raw() == (fs("a", "b"), fs("a", "b"))
        assert stable_models(a) == {fs("a", "b")}
        assert supported_fixpoints(a) == {fs("a", "b")}
        complete = {p.raw() for p in fixpoints_of(a) if p.consistent}
        assert complete == {(fs("a", "b"), fs("a", "b"))}

    def test_self_attack(self):
        a = adf_approximator(parse_adf("s(a). ac(a, neg(a))."))
        assert kripke_kleene(a)[0].raw() == (fs(), fs("a"))
        assert stable_models(a) == set()
        assert supported_fixpoints(a) == set()

    def test_empty_framework(self):
        a = adf_approximator(parse_adf(""))
        assert kripke_kleene(a)[0].raw() == (fs(), fs())

    def test_grounded_is_the_ultimate_kripke_kleene_fixpoint(self):
        # b or not b is true under every completion, which strong Kleene
        # does not see while b is unknown
        a = adf_approximator(parse_adf("s(a). s(b). ac(a, or(b, neg(b))). ac(b, b)."))
        grounded, _ = kripke_kleene(ultimate(a.operator))
        assert grounded.raw() == (fs("a"), fs("a", "b"))
        assert kripke_kleene(a)[0].raw() == (fs(), fs("a", "b"))

    def test_grounded_trace_matches_iteration(self):
        _, trace = kripke_kleene(adf_approximator(parse_adf(ABC)))
        steps = [p.raw() for p in trace]
        assert steps == [
            (fs(), fs("a", "b", "c")),
            (fs("a"), fs("a", "b", "c")),
            (fs("a", "b"), fs("a", "b", "c")),
            (fs("a", "b"), fs("a", "b")),
        ]


class TestProgramEncoding:
    @pytest.mark.parametrize(
        "text",
        [
            "p :- not q.\nq :- not p.",
            "p :- p.",
            "p :- not p.",
            "p.\nq :- p.",
            "p :- q, not r.\nq.\nr :- not p.",
        ],
    )
    def test_encoding_agrees_with_program_semantics(self, text):
        prog = parse_program(text)
        encoded = program_to_adf(prog)
        fit, enc = fitting(prog), adf_approximator(encoded)
        assert kripke_kleene(enc)[0] == kripke_kleene(fit)[0]
        assert stable_models(enc) == stable_models(fit)
        assert well_founded(enc)[0] == well_founded(fit)[0]

    def test_encoding_matches_fitting_pointwise(self, two_cycle):
        encoded = program_to_adf(two_cycle)
        fit = fitting(two_cycle)
        enc = adf_approximator(encoded)
        for key in fit.domain():
            assert enc.apply(*key) == fit.apply(*key)

    def test_ruleless_atom_is_false(self):
        prog = parse_program("p :- not q.")
        encoded = program_to_adf(prog)
        assert encoded.conditions["q"] == Const(False)

    @pytest.mark.parametrize("rules", [300, 5000])
    def test_many_rules_of_one_head_nest_logarithmically(self, rules):
        # the rules are joined as a balanced tree, so the image reads back
        # within the parser's depth limit and compares without recursing deep
        text = "".join(f"p :- q{i}, not r{i}.\n" for i in range(rules))
        prog = parse_program(text + "".join(f"q{i} :- not s{i}.\n" for i in range(0, rules, 2)))
        encoded = program_to_adf(prog)
        assert parse_adf(encoded.to_text()) == encoded
        fit, enc = fitting(prog), adf_approximator(encoded)
        assert kripke_kleene(enc)[0] == kripke_kleene(fit)[0]
        assert well_founded(enc)[0] == well_founded(fit)[0]

    def test_parts_keep_their_order(self):
        encoded = program_to_adf(parse_program("p :- a.\np :- b.\np :- c.\np :- d.\np :- e."))
        assert encoded.conditions["p"].to_text() == "or(or(or(a, b), or(c, d)), e)"
        framework = attack_network(["x", "a", "b", "c"], [("c", "x"), ("a", "x"), ("b", "x")])
        assert framework.conditions["x"].to_text() == "and(and(neg(a), neg(b)), neg(c))"


class TestAttackNetwork:
    def test_chain_of_attacks(self):
        framework = attack_network(["a", "b", "c"], [("a", "b"), ("b", "c")])
        a = adf_approximator(framework)
        assert kripke_kleene(a)[0].raw() == (fs("a", "c"), fs("a", "c"))
        assert stable_models(a) == {fs("a", "c")}

    def test_mutual_attack_stays_open(self):
        framework = attack_network(["a", "b"], [("a", "b"), ("b", "a")])
        a = adf_approximator(framework)
        assert kripke_kleene(a)[0].raw() == (fs(), fs("a", "b"))
        assert stable_models(a) == {fs("a"), fs("b")}


formulas = st.deferred(
    lambda: st.one_of(
        st.sampled_from([Const(True), Const(False), Var("a"), Var("b")]),
        st.builds(Not, formulas),
        st.builds(And, formulas, formulas),
        st.builds(Or, formulas, formulas),
    )
)


@given(st.dictionaries(st.sampled_from(["a", "b"]), formulas, min_size=2, max_size=2))
# conditions nested as deep as the parser admits: neg, and, or in turn, and
# neg alone
@example(parse_adf(nested_adf(FORMULA_DEPTH_LIMIT)).conditions)
@example(
    parse_adf(
        "s(a). s(b). ac(a, b). ac(b, " + "neg(" * FORMULA_DEPTH_LIMIT + "a" + ")" * FORMULA_DEPTH_LIMIT + ")."
    ).conditions
)
def test_generated_frameworks_round_trip_and_verify(conditions):
    framework = Adf(["a", "b"], conditions)
    assert parse_adf(framework.to_text()) == framework
    a = adf_approximator(framework)
    assert verify_approximator(a) is a
    assert is_symmetric(a)
    assert is_exact_approximator(a)


def nested_condition(depth, mixed):
    """A condition built in code, ``depth`` connectives deep over a: neg
    alone, or neg, and, or in turn as in ``nested_adf``."""
    f = Var("a")
    for k in range(depth):
        if not mixed or k % 3 == 0:
            f = Not(f)
        else:
            f = And(f, Var("b")) if k % 3 == 1 else Or(Var("b"), f)
    return f


@pytest.mark.parametrize("mixed", [False, True], ids=["neg", "mixed"])
def test_a_condition_built_in_code_as_deep_as_the_limit_is_kept(mixed):
    framework = Adf(["a", "b"], {"a": nested_condition(FORMULA_DEPTH_LIMIT, mixed), "b": Not(Var("a"))})
    if mixed:
        assert framework == parse_adf(nested_adf(FORMULA_DEPTH_LIMIT))
    assert parse_adf(framework.to_text()) == framework
    a = adf_approximator(framework)
    pair, _ = well_founded(a)
    assert a.apply(pair.lower, pair.upper) == (pair.lower, pair.upper)


@pytest.mark.parametrize("depth", [FORMULA_DEPTH_LIMIT + 1, 2000])
@pytest.mark.parametrize("mixed", [False, True], ids=["neg", "mixed"])
def test_a_condition_built_in_code_past_the_limit_is_refused(mixed, depth):
    # refused on construction, before any walk that recurses could fail
    with pytest.raises(ValueError, match=f"^condition of 'a' nested more than {FORMULA_DEPTH_LIMIT} deep$"):
        Adf(["a", "b"], {"a": nested_condition(depth, mixed), "b": Not(Var("a"))})


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(0, 4))
def test_truth_support_agrees_with_the_two_bit_reading(seed, n, depth):
    # seeded frameworks at random pairs of subsets, consistent or not
    rng = random.Random(seed)
    framework = random_adf(rng, n, depth)
    lat = PowersetLattice(framework.statements)
    a = adf_approximator(framework, lat)
    op = classical_operator(framework, lat)
    names = sorted(framework.statements)
    for _ in range(20):
        lower, upper = (frozenset(x for x in names if rng.random() < 0.5) for _ in range(2))
        bits = {s: support_oracle(c, lower, upper) for s, c in framework.conditions.items()}
        assert a.apply(lower, upper) == (
            frozenset(s for s, (t, _) in bits.items() if t),
            frozenset(s for s, (_, fa) in bits.items() if not fa),
        )
        for s, (t, fa) in bits.items():
            truth = Truth.TRUE if t else Truth.FALSE if fa else Truth.UNKNOWN
            assert eval3(framework.conditions[s], ApproxPair(lat, lower, upper)) is truth
        assert op(lower) == frozenset(
            s for s, c in framework.conditions.items() if support_oracle(c, lower, lower)[0]
        )
