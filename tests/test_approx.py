import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aft.adf import Truth, adf_approximator, classical_operator, eval3, parse_adf, program_to_adf

from aft.approx import (
    LAW_ATOM_LIMIT,
    Approximator,
    ApproxPair,
    approximates,
    brackets_operator,
    dual,
    is_exact_approximator,
    is_precision_monotone,
    is_symmetric,
    precision_leq,
    ultimate,
    verify_approximator,
)
from aft.errors import (
    DoesNotApproximateO,
    ForeignElement,
    InconsistentPair,
    LatticeMismatch,
    NotPrecisionMonotone,
    TooManyAtoms,
)
from aft.corpus import random_adf, random_program
from aft.fixpoints import _revision, fixpoints_of, kripke_kleene, well_founded
from aft.lattice import (
    SCAN_ATOM_LIMIT,
    FiniteLattice,
    LatticeOperator,
    PowersetLattice,
    is_monotone,
)
from aft.lp import fitting, parse_program, program_lattice, tp
from conftest import fs, ultimate_oracle

PQ = PowersetLattice({"p", "q"})


def pair(lo, hi, lat=PQ):
    return ApproxPair(lat, frozenset(lo), frozenset(hi))


def all_pairs(lat):
    return [ApproxPair(lat, lo, hi) for lo, hi in itertools.product(lat.elements, repeat=2)]


class TestPrecisionOrder:
    def test_widening_below_exact(self):
        assert precision_leq(pair([], ["p", "q"]), pair(["p"], ["p"]))
        assert not precision_leq(pair(["p"], ["p"]), pair([], ["p", "q"]))

    def test_reflexive_on_every_pair(self):
        for p in all_pairs(PQ):
            assert precision_leq(p, p)

    def test_pairs_form_complete_lattice_with_least_element(self):
        raw = list(itertools.product(PQ.elements, repeat=2))
        rel = [
            (a, b)
            for a in raw
            for b in raw
            if PQ.leq(a[0], b[0]) and PQ.leq(b[1], a[1])
        ]
        space = FiniteLattice(raw, rel)
        assert space.bottom == (fs(), fs("p", "q"))

    def test_mismatched_lattices_rejected(self):
        other = PowersetLattice({"p"})
        with pytest.raises(LatticeMismatch):
            precision_leq(pair([], ["p"]), pair([], ["p"], lat=other))

    def test_pairs_over_equal_powersets_compare_by_universe(self):
        atoms = [f"a{i}" for i in range(40)]
        lat, same, other = (
            PowersetLattice(atoms),
            PowersetLattice(reversed(atoms)),
            PowersetLattice(atoms[:39] + ["z"]),
        )
        lo, hi = frozenset(atoms[:3]), frozenset(atoms[:39])
        assert pair(lo, hi, lat) == pair(lo, hi, same)
        assert hash(lat) == hash(same)
        assert precision_leq(pair(lo, hi, lat), pair(lo, lo, same))
        assert pair(lo, hi, lat) != pair(lo, hi, other)
        for lattice in (lat, same, other):
            assert "elements" not in lattice.__dict__
            assert "_extension" not in lattice.__dict__

    def test_precision_is_interval_containment(self):
        consistent = [pair(lo, hi) for lo, hi in PQ.consistent_pairs()]
        for p in consistent:
            for q in consistent:
                interval_p = PQ.interval(p.lower, p.upper)
                interval_q = PQ.interval(q.lower, q.upper)
                assert precision_leq(p, q) == (interval_q <= interval_p)


class TestApproximates:
    def test_examples(self):
        assert approximates(pair([], ["p", "q"]), fs("p"))
        assert not approximates(pair(["p"], ["p"]), fs("q"))
        widest = pair([], ["p", "q"])
        for z in PQ.elements:
            assert approximates(widest, z)

    def test_matches_interval_membership(self):
        for lo, hi in PQ.consistent_pairs():
            p = pair(lo, hi)
            for z in PQ.elements:
                assert approximates(p, z) == (z in PQ.interval(lo, hi))

    def test_exact_pair_approximates_only_itself(self):
        p = pair(["p"], ["p"])
        assert [z for z in sorted(PQ.elements, key=sorted) if approximates(p, z)] == [fs("p")]

    def test_foreign_element(self):
        with pytest.raises(ForeignElement):
            approximates(pair([], ["p"]), fs("z"))

    def test_pair_consistency_flags(self):
        assert pair([], ["p"]).consistent and not pair([], ["p"]).exact
        assert pair(["p"], ["p"]).exact
        assert not pair(["p"], []).consistent


class TestVerifyApproximator:
    def test_fitting_of_normal_programs_verifies(self, two_cycle, neg_loop):
        for prog in (two_cycle, neg_loop):
            a = fitting(prog)
            assert verify_approximator(a) is a

    def test_swap_map_is_not_precision_monotone(self):
        chain = PowersetLattice({"p"})
        a = Approximator(chain, lambda lo, hi: (hi, lo), name="swap")
        with pytest.raises(NotPrecisionMonotone) as exc:
            verify_approximator(a)
        (p, q) = exc.value.witness
        assert precision_leq(ApproxPair(chain, *p), ApproxPair(chain, *q))

    def test_constant_widest_map_verifies_with_any_operator(self, two_cycle):
        lat = program_lattice(two_cycle)
        a = Approximator(
            lat,
            lambda lo, hi: (lat.bottom, lat.top),
            operator=tp(two_cycle, lat),
            name="widest",
        )
        assert verify_approximator(a) is a
        assert brackets_operator(a)

    def test_operator_over_another_lattice_is_refused(self):
        op = LatticeOperator(PowersetLattice({"p"}), lambda x: x, name="id")
        with pytest.raises(LatticeMismatch):
            Approximator(PQ, lambda lo, hi: (lo, hi), operator=op)

    def test_bracketing_violation(self):
        chain = PowersetLattice({"p"})
        op = LatticeOperator(chain, lambda x: x, name="id")
        a = Approximator(chain, lambda lo, hi: (fs("p"), fs("p")), operator=op)
        with pytest.raises(DoesNotApproximateO) as exc:
            verify_approximator(a)
        assert exc.value.witness == fs()

    @pytest.mark.parametrize(
        "law_check,limit,what",
        [
            (verify_approximator, LAW_ATOM_LIMIT, "law check"),
            (is_precision_monotone, LAW_ATOM_LIMIT, "law check"),
            (is_symmetric, LAW_ATOM_LIMIT, "law check"),
            (fixpoints_of, LAW_ATOM_LIMIT, "law check"),
            (Approximator.domain, LAW_ATOM_LIMIT, "law check"),
            (brackets_operator, SCAN_ATOM_LIMIT, "bracketing check"),
            (is_exact_approximator, SCAN_ATOM_LIMIT, "exactness check"),
            (lambda a: is_monotone(a.operator), SCAN_ATOM_LIMIT, "monotonicity check"),
        ],
        ids=[
            "verify",
            "precision-monotone",
            "symmetric",
            "fixpoints_of",
            "domain",
            "brackets",
            "exact",
            "monotone",
        ],
    )
    def test_law_checks_refuse_above_the_limit(self, law_check, limit, what):
        # the pair checks enumerate 4**|U| pairs, the element checks 2**|U|
        # elements: both 2**16 at their limits
        atoms = limit + 1
        a = fitting(parse_program("\n".join(f"a{i} :- not a{i + 1}." for i in range(atoms - 1))))
        # the operator and the mapping count their evaluations: none come
        # before the refusal
        evaluated = []
        op, step = a.operator, a._fn
        a.operator = LatticeOperator(op.lattice, lambda x: evaluated.append(x) or op(x))
        a._fn = lambda lo, hi: evaluated.append((lo, hi)) or step(lo, hi)
        start = time.process_time()
        with pytest.raises(TooManyAtoms, match=f"{atoms} atoms exceed the {what} limit of {limit}"):
            law_check(a)
        assert time.process_time() - start < 1.0
        assert evaluated == []

    def test_law_limit_admits_its_own_size(self):
        lat = PowersetLattice(f"a{i}" for i in range(LAW_ATOM_LIMIT))
        a = Approximator(lat, lambda lo, hi: (lo, hi))
        assert next(a.domain()) in itertools.product(lat.elements, repeat=2)

    def test_exactness_is_stricter_than_bracketing(self, two_cycle):
        lat = program_lattice(two_cycle)
        assert is_exact_approximator(fitting(two_cycle, lat))
        widest = Approximator(
            lat, lambda lo, hi: (lat.bottom, lat.top), operator=tp(two_cycle, lat)
        )
        assert brackets_operator(widest)
        assert not is_exact_approximator(widest)


class TestUltimate:
    def test_exact_pairs_reproduce_the_operator(self, two_cycle, neg_loop, definite):
        for prog in (two_cycle, neg_loop, definite):
            lat = program_lattice(prog)
            op = tp(prog, lat)
            a = ultimate(op)
            for x in lat.elements:
                assert a.apply(x, x) == (op(x), op(x))

    def test_negative_loop_stays_unknown(self, neg_loop):
        lat = program_lattice(neg_loop)
        a = ultimate(tp(neg_loop, lat))
        assert a.apply(fs(), fs("p")) == (fs(), fs("p"))

    def test_monotone_operator_collapses_to_endpoints(self, diamond):
        op = LatticeOperator(diamond, lambda x: diamond.lub([x, "a"]), name="join_a")
        a = ultimate(op)
        for lo, hi in diamond.consistent_pairs():
            assert a.apply(lo, hi) == (op(lo), op(hi))

    def test_rejects_inconsistent_pairs(self, neg_loop):
        lat = program_lattice(neg_loop)
        a = ultimate(tp(neg_loop, lat))
        with pytest.raises(InconsistentPair):
            a.apply(fs("p"), fs())

    def test_verifies_with_operator_attached(self, two_cycle):
        lat = program_lattice(two_cycle)
        a = ultimate(tp(two_cycle, lat))
        assert verify_approximator(a) is a

    def test_dominates_fitting(self, two_cycle, separator):
        for prog in (two_cycle, separator):
            lat = program_lattice(prog)
            fit = fitting(prog, lat)
            ult = ultimate(tp(prog, lat))
            for lo, hi in lat.consistent_pairs():
                assert precision_leq(
                    ApproxPair(lat, *fit.apply(lo, hi)),
                    ApproxPair(lat, *ult.apply(lo, hi)),
                )


def seeded_approximator(kind, seed, n):
    """The bracketing approximator of a seeded program of n atoms, of its
    ``program_to_adf`` image, or of a seeded framework of n statements."""
    rng = random.Random(seed)
    if kind == "framework":
        return adf_approximator(random_adf(rng, n))
    prog = random_program(rng, n)
    return fitting(prog) if kind == "program" else adf_approximator(program_to_adf(prog))


KINDS = st.sampled_from(["program", "image", "framework"])


@settings(max_examples=40, deadline=None)
@given(KINDS, st.integers(0, 2**32 - 1), st.integers(1, 8))
def test_atomwise_ultimate_equals_the_whole_interval_oracle(kind, seed, n):
    a = seeded_approximator(kind, seed, n)
    lat, op = a.lattice, a.operator
    ult, oracle = ultimate(op), ultimate_oracle(lat, op)
    for lo, hi in lat.consistent_pairs():
        assert ult.apply(lo, hi) == oracle.apply(lo, hi)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 8))
def test_atomwise_operators_equal_plain_evaluation(seed, n):
    rng = random.Random(seed)
    prog = random_program(rng, n)
    op = tp(prog)
    for x in op.lattice.elements:
        assert op(x) == frozenset(r.head for r in prog.rules if r.pos <= x and r.neg.isdisjoint(x))
    framework = random_adf(rng, max(n, 1))
    op = classical_operator(framework)
    for x in op.lattice.elements:
        exact = ApproxPair(op.lattice, x, x)
        assert op(x) == frozenset(
            s for s, cond in framework.conditions.items() if eval3(cond, exact) is Truth.TRUE
        )


class TestAtomwiseOperators:
    def test_dependencies_are_built_on_first_use(self, two_cycle):
        a = fitting(two_cycle)
        kripke_kleene(a)
        well_founded(a)
        assert "dependencies" not in vars(a.operator)
        assert a.operator.dependencies.parents == {"p": fs("q"), "q": fs("p")}

    def test_framework_parents_are_the_condition_variables(self):
        framework = parse_adf("s(a). s(b). s(c). ac(a, and(b, neg(c))). ac(b, true). ac(c, c).")
        assert classical_operator(framework).dependencies.parents == {
            "a": fs("b", "c"), "b": fs(), "c": fs("c")
        }

    def test_each_assignment_is_evaluated_once(self):
        calls = []
        parents = {"p": fs("q"), "q": fs()}
        lat = PowersetLattice({"p", "q"})
        # q always holds, p exactly when q does
        op = LatticeOperator(
            lat, dependencies=lambda: (parents, lambda p, z: calls.append((p, z)) or p == "q" or "q" in z)
        )
        for x in list(lat.elements) * 3:
            assert op(x) == (fs("p", "q") if "q" in x else fs("q"))
        assert sorted(calls, key=repr) == sorted(
            [("p", fs()), ("p", fs("q")), ("q", fs())], key=repr
        )

    def test_needs_a_mapping_or_dependencies(self):
        with pytest.raises(ValueError, match="mapping or its dependencies"):
            LatticeOperator(PQ)


class TestDuality:
    def test_involution(self, two_cycle, neg_loop):
        for prog in (two_cycle, neg_loop):
            a = fitting(prog)
            dd = dual(dual(a))
            for lo, hi in a.domain():
                assert dd.apply(lo, hi) == a.apply(lo, hi)

    def test_symmetric_implies_self_dual(self, two_cycle):
        a = fitting(two_cycle)
        assert is_symmetric(a)
        d = dual(a)
        for lo, hi in a.domain():
            assert d.apply(lo, hi) == a.apply(lo, hi)

    def test_widest_constant_dualizes_to_narrowest(self):
        # swapping the result of a constant map is not cancelled by swapping
        # its arguments, so this map is neither symmetric nor self-dual
        a = Approximator(PQ, lambda lo, hi: (PQ.bottom, PQ.top), name="widest")
        d = dual(a)
        for lo, hi in a.domain():
            assert d.apply(lo, hi) == (PQ.top, PQ.bottom)
        assert not is_symmetric(a)

    def test_dual_preserves_precision_monotonicity(self, two_cycle):
        assert is_precision_monotone(dual(fitting(two_cycle)))

    def test_perturbed_upper_component_breaks_symmetry(self, two_cycle):
        a = fitting(two_cycle)
        table = {key: a.apply(*key) for key in a.domain()}
        edited = (fs(), fs("p"))
        lo, hi = table[edited]
        table[edited] = (lo, hi ^ fs("q"))
        broken = Approximator(a.lattice, table, name="perturbed")
        check = is_symmetric(broken)
        assert not check
        witness = check.witness[0]
        assert witness in (edited, (edited[1], edited[0]))

    def test_single_element_lattice_always_symmetric(self):
        unit = PowersetLattice(set())
        a = Approximator(unit, lambda lo, hi: (fs(), fs()))
        assert is_symmetric(a)

    def test_symmetry_equals_pointwise_self_duality(self, two_cycle, pos_loop):
        for prog in (two_cycle, pos_loop):
            a = fitting(prog)
            d = dual(a)
            pointwise = all(d.apply(*k) == a.apply(*k) for k in a.domain())
            assert bool(is_symmetric(a)) == pointwise


@given(st.integers(0, 2 ** 16 - 1))
def test_fitting_and_dual_laws_on_generated_programs(mask):
    # every subset of a 16-rule pool over {p, q}
    heads = ["p", "q"]
    bodies = [
        (fs(), fs()),
        (fs("p"), fs()),
        (fs(), fs("q")),
        (fs("q"), fs("p")),
        (fs("p", "q"), fs()),
        (fs(), fs("p", "q")),
        (fs("q"), fs()),
        (fs(), fs("p")),
    ]
    pool = [(h, pos, neg) for h in heads for pos, neg in bodies]
    text = "\n".join(
        f"{h} :- {', '.join(sorted(pos) + ['not ' + n for n in sorted(neg)])}.".replace(" :- .", ".")
        for i, (h, pos, neg) in enumerate(pool)
        if mask >> i & 1
    )
    prog = parse_program(text)
    a = fitting(prog)
    assert is_precision_monotone(a)
    assert is_symmetric(a)
    assert is_exact_approximator(a)
    d = dual(dual(a))
    for key in a.domain():
        assert d.apply(*key) == a.apply(*key)


class TestChecksAtTheBoundary:
    # values are checked where they enter: the mapping's outputs by apply,
    # the hook's results when the revision is computed, user pairs on
    # creation
    def test_apply_refuses_a_foreign_output(self):
        a = Approximator(PQ, lambda lo, hi: (lo, fs("z")))
        with pytest.raises(ForeignElement):
            a.apply(fs(), fs("p"))
        with pytest.raises(ForeignElement):
            a(pair([], ["p"]))

    def test_hook_refuses_a_foreign_result_on_every_call(self):
        calls = []
        a = Approximator(
            PQ, lambda lo, hi: (lo, hi), revision=lambda y: calls.append(y) or fs("z")
        )
        for _ in range(3):
            with pytest.raises(ForeignElement):
                _revision(a, fs("p"), True)
        assert calls == [fs("p")] * 3 and a._revisions == {}

    def test_user_pairs_are_checked(self):
        with pytest.raises(ForeignElement):
            ApproxPair(PQ, fs("z"), fs("p"))
        with pytest.raises(ForeignElement):
            ApproxPair(PQ, fs(), fs("p", "z"))


class TestMemoization:
    # applications are not remembered; revisions are, the last four of them
    def test_a_repeated_revision_applies_once_and_four_are_kept(self):
        lat = PowersetLattice({"p", "q", "r"})
        a = Approximator(lat, lambda lo, hi: (lo, hi))
        apply, calls = a.apply, []
        a.apply = lambda lo, hi: calls.append((lo, hi)) or apply(lo, hi)
        assert _revision(a, lat.top, True) == lat.bottom
        assert calls == [(lat.bottom, lat.top)]
        assert _revision(a, lat.top, True) == lat.bottom
        assert len(calls) == 1
        for at in sorted(lat.elements, key=sorted):
            for lower in (True, False):
                _revision(a, at, lower)
                assert len(a._revisions) <= 4
        assert len(a._revisions) == 4

    @pytest.mark.parametrize("law_check", [is_precision_monotone, is_symmetric])
    def test_pair_law_checks_evaluate_each_pair_at_most_once(self, law_check):
        for a in (
            fitting(parse_program("p :- not q.\nq :- not r.\nr :- p, not r.")),
            ultimate(tp(parse_program("p :- not q.\nq :- q, not p."))),
        ):
            apply, calls = a.apply, []
            a.apply = lambda lo, hi: calls.append((lo, hi)) or apply(lo, hi)
            assert law_check(a)
            assert calls and len(calls) == len(set(calls))

    def test_call_checks_lattice(self):
        a = Approximator(PQ, lambda lo, hi: (lo, hi))
        foreign = ApproxPair(PowersetLattice({"z"}), fs(), fs("z"))
        with pytest.raises(LatticeMismatch):
            a(foreign)
