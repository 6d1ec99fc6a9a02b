import pytest
from hypothesis import given
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
from aft.errors import MissingCondition, ParseError, UndeclaredStatement
from aft.fixpoints import (
    fixpoints_of,
    kripke_kleene,
    stable_models,
    supported_fixpoints,
    well_founded,
)
from aft.lp import fitting, parse_program
from conftest import fs

ABC = "s(a). s(b). s(c). ac(a, true). ac(b, a). ac(c, neg(b))."


class TestParser:
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
