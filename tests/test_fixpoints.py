import time

import pytest

from aft.approx import Approximator, ApproxPair, dual, precision_leq, ultimate
from aft.cli import SEMANTICS
from aft.errors import (
    DivergenceGuard,
    NonMonotoneProjection,
    StableRevisionUndefined,
)
from aft.fixpoints import (
    fixpoints_of,
    kripke_kleene,
    partial_stable_fixpoints,
    stable_models,
    stable_operator,
    supported_fixpoints,
    well_founded,
)
from aft.lattice import PowersetLattice, lfp
from aft.lp import fitting, parse_program, program_lattice, stable_models_oracle, tp
from conftest import DEFINITE, NEG_LOOP, POS_LOOP, TWO_CYCLE, fs


def raw_pairs(pairs):
    return {(p.lower, p.upper) for p in pairs}


# expected values are hand-derived and double-checked against the reduct
# oracle where stable models are concerned
CLASSICS = [
    (
        TWO_CYCLE,
        {
            "kk": (fs(), fs("p", "q")),
            "wf": (fs(), fs("p", "q")),
            "supported": {fs("p"), fs("q")},
            "partial": {(fs(), fs("p", "q")), (fs("p"), fs("p")), (fs("q"), fs("q"))},
            "stable": {fs("p"), fs("q")},
        },
    ),
    (
        POS_LOOP,
        {
            "kk": (fs(), fs("p")),
            "wf": (fs(), fs()),
            "supported": {fs(), fs("p")},
            "partial": {(fs(), fs())},
            "stable": {fs()},
        },
    ),
    (
        NEG_LOOP,
        {
            "kk": (fs(), fs("p")),
            "wf": (fs(), fs("p")),
            "supported": set(),
            "partial": {(fs(), fs("p"))},
            "stable": set(),
        },
    ),
    (
        DEFINITE,
        {
            "kk": (fs("p", "q"), fs("p", "q")),
            "wf": (fs("p", "q"), fs("p", "q")),
            "supported": {fs("p", "q")},
            "partial": {(fs("p", "q"), fs("p", "q"))},
            "stable": {fs("p", "q")},
        },
    ),
    (
        "",
        {
            "kk": (fs(), fs()),
            "wf": (fs(), fs()),
            "supported": {fs()},
            "partial": {(fs(), fs())},
            "stable": {fs()},
        },
    ),
]


@pytest.mark.parametrize("source,expected", CLASSICS, ids=[c[0][:12] or "empty" for c in CLASSICS])
class TestClassicPrograms:
    def test_kripke_kleene(self, source, expected):
        kk, trace = kripke_kleene(fitting(parse_program(source)))
        assert kk.raw() == expected["kk"]
        for a, b in zip(trace, trace[1:]):
            assert precision_leq(a, b)

    def test_well_founded(self, source, expected):
        wf, trace = well_founded(fitting(parse_program(source)))
        assert wf.raw() == expected["wf"]
        for a, b in zip(trace, trace[1:]):
            assert precision_leq(a, b)

    def test_supported(self, source, expected):
        assert supported_fixpoints(fitting(parse_program(source))) == expected["supported"]

    def test_partial_stable(self, source, expected):
        got = partial_stable_fixpoints(fitting(parse_program(source)))
        assert raw_pairs(got) == expected["partial"]

    def test_stable_against_reduct_oracle(self, source, expected):
        prog = parse_program(source)
        got = stable_models(fitting(prog))
        assert got == expected["stable"]
        assert got == stable_models_oracle(prog)

    def test_taxonomy_laws(self, source, expected):
        a = fitting(parse_program(source))
        kk, _ = kripke_kleene(a)
        wf, _ = well_founded(a)
        for p in fixpoints_of(a):
            assert precision_leq(kk, p)
        assert kk in fixpoints_of(a)
        partial = partial_stable_fixpoints(a)
        for p in partial:
            assert precision_leq(wf, p)
        assert precision_leq(kk, wf)
        assert stable_models(a) <= supported_fixpoints(a)

    def test_report_collects_everything(self, source, expected):
        # every family through the command line's semantics table
        prog = parse_program(source)
        lat = program_lattice(prog)
        a = fitting(prog, lat)
        names = ("kk", "wf", "supported", "partial-stable", "stable")
        (kk, kk_trace), (wf, _), (supported, _), (partial, _), (stable, _) = (
            SEMANTICS[name][1](a, lat) for name in names
        )
        assert kk.raw() == expected["kk"]
        assert wf.raw() == expected["wf"]
        assert supported == expected["supported"]
        assert raw_pairs(partial) == expected["partial"]
        assert stable == expected["stable"]
        assert kk_trace[-1] == kk


class TestStableOperator:
    def test_two_cycle_revision_fixes_the_model(self, two_cycle):
        a = fitting(two_cycle)
        p = ApproxPair(a.lattice, fs("p"), fs("p"))
        assert stable_operator(a, p) == p

    def test_positive_loop_is_unfounded(self, pos_loop):
        a = fitting(pos_loop)
        p = ApproxPair(a.lattice, fs("p"), fs("p"))
        assert stable_operator(a, p).raw() == (fs(), fs())

    def test_definite_program_revision_at_least_model(self, definite):
        lat = program_lattice(definite)
        a = fitting(definite, lat)
        least = lfp(tp(definite, lat))
        p = ApproxPair(lat, least, least)
        assert stable_operator(a, p) == p

    def test_validation_catches_non_monotone_projection(self):
        lat = PowersetLattice({"p"})
        table = {
            (fs(), fs()): (fs("p"), fs()),
            (fs("p"), fs()): (fs(), fs()),
            (fs(), fs("p")): (fs(), fs()),
            (fs("p"), fs("p")): (fs(), fs()),
        }
        a = Approximator(lat, table, name="broken")
        p = ApproxPair(lat, fs(), fs())
        with pytest.raises(NonMonotoneProjection):
            stable_operator(a, p, validate=True)

    def test_divergence_guard_for_oscillating_operator(self):
        lat = PowersetLattice({"p"})
        a = Approximator(lat, lambda lo, hi: (hi, lo), name="swap")
        with pytest.raises(DivergenceGuard):
            kripke_kleene(a)

    def test_divergence_guard_is_bounded_by_height(self):
        lat = PowersetLattice(f"a{i}" for i in range(16))
        a = Approximator(lat, lambda lo, hi: (hi, lo), name="swap")
        start = time.process_time()
        with pytest.raises(DivergenceGuard) as exc:
            kripke_kleene(a)
        assert time.process_time() - start < 0.1
        assert exc.value.bound == 33


class TestUltimateSemantics:
    def test_separator_gains_precision(self, separator):
        lat = program_lattice(separator)
        op = tp(separator, lat)
        kk_fit, _ = kripke_kleene(fitting(separator, lat))
        kk_ult, _ = kripke_kleene(ultimate(lat, op))
        assert kk_fit.raw() == (fs(), fs("p", "q"))
        assert kk_ult.raw() == (fs("p"), fs("p", "q"))
        assert precision_leq(kk_fit, kk_ult) and kk_fit != kk_ult

    def test_well_founded_through_consistent_revisions(self, definite, separator):
        lat = program_lattice(definite)
        wf, _ = well_founded(ultimate(lat, tp(definite, lat)))
        assert wf.raw() == (fs("p", "q"), fs("p", "q"))
        lat = program_lattice(separator)
        wf, _ = well_founded(ultimate(lat, tp(separator, lat)))
        assert wf.raw() == (fs("p"), fs("p"))

    def test_stable_models_on_ultimate(self, neg_loop, definite):
        lat = program_lattice(neg_loop)
        assert stable_models(ultimate(lat, tp(neg_loop, lat))) == set()
        lat = program_lattice(definite)
        assert stable_models(ultimate(lat, tp(definite, lat))) == {fs("p", "q")}

    def test_escaped_revision_raises(self, neg_loop):
        lat = program_lattice(neg_loop)
        a = ultimate(lat, tp(neg_loop, lat))
        p = ApproxPair(lat, fs("p"), fs("p"))
        with pytest.raises(StableRevisionUndefined):
            stable_operator(a, p)


class TestDualityTransport:
    def test_kripke_kleene_transports_to_inverted_lattice(self, two_cycle, pos_loop, neg_loop):
        # the least-precise-first construction only uses the precision order,
        # so carrying the swapped formula to the inverted lattice swaps its
        # outcome; the stable construction does not transport this way since
        # inner least fixpoints invert into greatest ones
        for prog in (two_cycle, pos_loop, neg_loop):
            lat = program_lattice(prog)
            a = fitting(prog, lat)
            inverted = lat.inverted()
            transported = Approximator(inverted, dual(a).apply, name="transported")
            kk, _ = kripke_kleene(a)
            kk_inv, _ = kripke_kleene(transported)
            assert kk_inv.raw() == (kk.upper, kk.lower)
