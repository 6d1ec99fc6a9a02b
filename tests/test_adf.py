import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aft.adf import (
    Adf,
    And,
    Const,
    Not,
    Or,
    Truth,
    Var,
    adf_approximator,
    adf_lattice,
    attack_network,
    classical_operator,
    eval3,
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
from aft.corpus import random_adf
from aft.errors import MissingCondition, ParseError, UndeclaredStatement
from aft.fixpoints import (
    fixpoints_of,
    kripke_kleene,
    stable_models,
    supported_fixpoints,
    well_founded,
)
from aft.lp import fitting, parse_program
from conftest import fs, support_oracle

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


class TestEval3:
    LAT = adf_lattice(parse_adf("s(a). ac(a, true)."))

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
        lat = adf_lattice(framework)
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
        grounded, _ = kripke_kleene(ultimate(a.lattice, a.operator))
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
def test_generated_frameworks_round_trip_and_verify(conditions):
    framework = Adf(["a", "b"], conditions)
    assert parse_adf(framework.to_text()) == framework
    a = adf_approximator(framework)
    assert verify_approximator(a) is a
    assert is_symmetric(a)
    assert is_exact_approximator(a)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(0, 4))
def test_truth_support_agrees_with_the_two_bit_reading(seed, n, depth):
    # seeded frameworks at random pairs of subsets, consistent or not
    rng = random.Random(seed)
    framework = random_adf(rng, n, depth)
    lat = adf_lattice(framework)
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
