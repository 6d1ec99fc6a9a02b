import itertools
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aft import fixpoints
from aft.adf import adf_approximator, adf_lattice, classical_operator, program_to_adf
from aft.approx import Approximator, ApproxPair, dual, precision_leq, ultimate
from aft.cli import SEMANTICS, Request
from aft.corpus import random_adf, random_adfs, random_program, random_programs
from aft.errors import (
    DivergenceGuard,
    StableRevisionUndefined,
    TooManyAtoms,
)
from aft.fixpoints import (
    _revision,
    _stable_raw,
    fixpoints_of,
    kripke_kleene,
    partial_stable_fixpoints,
    stable_models,
    stable_operator,
    supported_fixpoints,
    well_founded,
)
from aft.lattice import (
    SCAN_ATOM_LIMIT,
    Lattice,
    LatticeOperator,
    PowersetLattice,
    check_atoms,
    iterate,
    lfp,
)
from aft.lp import (
    LogicProgram,
    Rule,
    fitting,
    parse_program,
    program_lattice,
    stable_models_oracle,
    tp,
)
from conftest import (
    DEFINITE,
    FIVE_ELEMENT_LATTICES,
    NEG_LOOP,
    POS_LOOP,
    TWO_CYCLE,
    fs,
    partial_stable_oracle,
    revision_oracle,
    stable_oracle,
    supported_oracle,
)


def raw_pairs(pairs):
    return {(p.lower, p.upper) for p in pairs}


def chain_program(layers):
    """a0.  a{i+1} :- a{i}, not b{i}.  b{i} :- not a{i}.  (2 * layers + 1 atoms)"""
    return parse_program(
        "a0.\n" + "".join(f"a{i + 1} :- a{i}, not b{i}.\nb{i} :- not a{i}.\n" for i in range(layers))
    )


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
            SEMANTICS[name][1](Request(a)) for name in names
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


def _swap_cases(lat, calls):
    """Per construction: a run on an operator whose iteration from its start
    swaps two values for ever, that 2-cycle, and the guard's step bound. kk
    and wf swap the bounds of a pair; the generic inner revisions iterate
    the complement, as does ``iterate`` itself with lfp's bound (lfp proper
    refuses the complement as not monotone on lattices this small), so
    their projections swap bottom and top."""
    swap = Approximator(lat, lambda lo, hi: calls.append((lo, hi)) or (hi, lo), name="swap")
    flip = Approximator(
        lat, lambda lo, hi: calls.append((lo, hi)) or (lat.top - lo, lat.top - hi), name="swap"
    )
    complement = LatticeOperator(lat, lambda x: calls.append(x) or lat.top - x, name="swap")
    pairs, ends = ((lat.bottom, lat.top), (lat.top, lat.bottom)), (lat.bottom, lat.top)
    outer, inner = 2 * lat.height + 1, lat.height + 1
    return {
        "kk": (lambda: kripke_kleene(swap), pairs, outer),
        "wf": (lambda: well_founded(swap), pairs, outer),
        "iterate": (lambda: iterate(complement, lat.bottom, inner, "lfp of swap"), ends, inner),
        "lower revision": (lambda: _revision(flip, lat.top, True), ends, inner),
        "upper revision": (lambda: _revision(flip, lat.bottom, False), ends, inner),
    }


class TestCycleWitness:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 6),
        st.sampled_from(["kk", "wf", "iterate", "lower revision", "upper revision"]),
    )
    def test_swap_approximators_report_their_two_cycle(self, n, construction):
        # the guard fires after the two steps of the cycle, however large the
        # bound, which stays in the message: one evaluation each, or for wf
        # three, the revisions it iterates, which the second round finds kept
        lat = PowersetLattice(f"a{i}" for i in range(n))
        calls = []
        run, cycle, bound = _swap_cases(lat, calls)[construction]
        with pytest.raises(DivergenceGuard) as exc:
            run()
        assert len(calls) == (6 if construction == "wf" else 2)
        assert exc.value.cycle == cycle
        assert exc.value.bound == bound
        assert str(exc.value).endswith(f"of swap did not stabilize within {bound} steps")

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(sorted(FIVE_ELEMENT_LATTICES)),
        st.booleans(),
        st.randoms(use_true_random=False),
    )
    def test_permutation_tables_report_the_repeated_pairs(self, name, on_pairs, rnd):
        # kk walks the orbit of (bottom, top) under a permutation of the
        # pairs, iterate with lfp's bound the orbit of bottom under one of
        # the elements (lfp proper refuses a permutation that is not
        # monotone); each orbit closes where it began
        lat = FIVE_ELEMENT_LATTICES[name]
        calls = []
        if on_pairs:
            values = sorted(itertools.product(lat.elements, repeat=2), key=repr)
            start, bound = (lat.bottom, lat.top), 2 * lat.height + 1
        else:
            values = sorted(lat.elements, key=repr)
            start, bound = lat.bottom, lat.height + 1
        images = list(values)
        rnd.shuffle(images)
        table = dict(zip(values, images))

        def image(*value):
            calls.append(value)
            return table[value if on_pairs else value[0]]

        def run():
            if on_pairs:
                return kripke_kleene(Approximator(lat, image, name="permutation"))[0].raw()
            op = LatticeOperator(lat, image, name="permutation")
            return iterate(op, lat.bottom, bound, "lfp of permutation")[-1]

        orbit = [start]
        while table[orbit[-1]] != orbit[0]:
            orbit.append(table[orbit[-1]])
        if len(orbit) == 1:
            assert run() == start
            return
        with pytest.raises(DivergenceGuard) as exc:
            run()
        assert len(calls) == min(len(orbit), bound)
        assert exc.value.bound == bound
        # an orbit longer than the bound is cut off before it repeats
        assert exc.value.cycle == (tuple(orbit) if len(orbit) <= bound else None)


class TestUltimateSemantics:
    def test_separator_gains_precision(self, separator):
        lat = program_lattice(separator)
        op = tp(separator, lat)
        kk_fit, _ = kripke_kleene(fitting(separator, lat))
        kk_ult, _ = kripke_kleene(ultimate(op))
        assert kk_fit.raw() == (fs(), fs("p", "q"))
        assert kk_ult.raw() == (fs("p"), fs("p", "q"))
        assert precision_leq(kk_fit, kk_ult) and kk_fit != kk_ult

    def test_well_founded_through_consistent_revisions(self, definite, separator):
        lat = program_lattice(definite)
        wf, _ = well_founded(ultimate(tp(definite, lat)))
        assert wf.raw() == (fs("p", "q"), fs("p", "q"))
        lat = program_lattice(separator)
        wf, _ = well_founded(ultimate(tp(separator, lat)))
        assert wf.raw() == (fs("p"), fs("p"))

    def test_stable_models_on_ultimate(self, neg_loop, definite):
        lat = program_lattice(neg_loop)
        assert stable_models(ultimate(tp(neg_loop, lat))) == set()
        lat = program_lattice(definite)
        assert stable_models(ultimate(tp(definite, lat))) == {fs("p", "q")}

    def test_escaped_revision_raises(self, neg_loop):
        lat = program_lattice(neg_loop)
        a = ultimate(tp(neg_loop, lat))
        p = ApproxPair(lat, fs("p"), fs("p"))
        with pytest.raises(StableRevisionUndefined):
            stable_operator(a, p)
        # the lower revision at bottom climbs to {p} at once, above bottom
        assert _revision(a, lat.bottom, True) is None
        assert revision_oracle(a, lat.bottom, True) is None

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.booleans())
    def test_revisions_match_the_escape_oracle(self, seed, n_atoms, framework):
        # ultimate is consistency-restricted, so some revisions escape
        rng = random.Random(seed)
        if framework:
            adf = random_adf(rng, n_atoms)
            lat = adf_lattice(adf)
            op = classical_operator(adf, lat)
        else:
            prog = random_program(rng, n_atoms)
            lat = program_lattice(prog)
            op = tp(prog, lat)
        # the oracle gets its own approximator, so it never sees the
        # revisions _revision keeps
        a, ref = ultimate(op), ultimate(op)
        for lo, hi in lat.consistent_pairs():
            assert _revision(a, hi, True) == revision_oracle(ref, hi, True)
            assert _revision(a, lo, False) == revision_oracle(ref, lo, False)

    def test_escaping_revisions_stop_without_applying_again(self):
        # a consistency-restricted revision is None at the first iterate
        # outside the consistent region, which is never applied to
        lat = PowersetLattice({"p"})
        for image, lower, at in (
            (lat.top, True, lat.bottom),
            (lat.bottom, False, lat.top),
        ):
            calls = []
            a = Approximator(
                lat, lambda lo, hi: calls.append((lo, hi)) or (image, image), consistent_only=True
            )
            assert _revision(a, at, lower) is None
            assert calls == [(at, at)]


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


class TestRevisionHook:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    def test_hook_agrees_with_iteration_on_every_pair(self, seed, n_atoms):
        rng = random.Random(seed)
        prog, framework = random_program(rng, n_atoms), random_adf(rng, n_atoms)
        for build, source in ((fitting, prog), (adf_approximator, framework)):
            hooked = build(source)
            plain = build(source)
            plain.revision = None
            # every pair, inconsistent ones included
            for lo, hi in itertools.product(hooked.lattice.elements, repeat=2):
                assert _revision(hooked, hi, True) == _revision(plain, hi, True)
                assert _revision(hooked, lo, False) == _revision(plain, lo, False)
                assert _stable_raw(hooked, lo, hi) == _stable_raw(plain, lo, hi)

    def test_well_founded_on_a_long_chain_uses_only_the_hook(self):
        # the chain as a program of 165 layers and a framework image of 20
        for layers, a in (
            (165, fitting(chain_program(165))),
            (20, adf_approximator(program_to_adf(chain_program(20)))),
        ):
            calls, applied = [], []
            least_fixpoint, step = a.revision, a._fn
            a.revision = lambda y: calls.append(y) or least_fixpoint(y)
            a._fn = lambda lo, hi: applied.append((lo, hi)) or step(lo, hi)
            wf, trace = well_founded(a)
            assert wf.exact and wf.lower == frozenset(f"a{i}" for i in range(layers + 1))
            # one stable-operator application per trace entry, the last one
            # confirming the fixpoint; each asks for one revision per bound,
            # but a step on the chain moves one bound, and the other's
            # revision is kept from the step before
            assert len(calls) == len(trace)
            assert applied == []

    def test_hook_needs_a_total_approximator(self):
        lat = PowersetLattice({"p"})
        with pytest.raises(ValueError, match="total"):
            Approximator(lat, lambda lo, hi: (lo, hi), consistent_only=True, revision=lambda y: y)


class TestRememberedFixpoints:
    @pytest.mark.parametrize("construction", [kripke_kleene, well_founded])
    def test_second_call_iterates_no_more(self, construction):
        a = fitting(chain_program(3))
        first, trace = construction(a)
        assert len(trace) > 2
        calls = []
        apply, hook = a.apply, a.revision
        a.apply = lambda lo, hi: calls.append((lo, hi)) or apply(lo, hi)
        a.revision = lambda y: calls.append(y) or hook(y)
        again, again_trace = construction(a)
        assert calls == []
        assert again == first and again_trace == trace and again_trace is not trace
        again_trace.clear()
        assert construction(a)[1] == trace

    def test_supported_search_starts_from_the_remembered_fixpoint(self):
        a = fitting(chain_program(3))
        kk, _ = kripke_kleene(a)
        assert kk.exact
        calls = []
        apply = a.apply
        a.apply = lambda lo, hi: calls.append((lo, hi)) or apply(lo, hi)
        assert supported_fixpoints(a) == {kk.lower}
        # one application: the fixpoint check of the exact start
        assert calls == [(kk.lower, kk.upper)]

    def test_traced_ultimate_wf_on_a_weak_chain_keeps_no_applications(self):
        # kk leaves every atom but a0 unknown, so the walk from (bottom, top)
        # iterates the generic revisions at each of its 61 steps; what is
        # remembered is the fixpoints and four revisions, not the
        # applications (3.8 MB when every application was kept)
        prog = parse_program(
            "a0.\n"
            + "".join(
                f"a{i + 1} :- a{i}, not d{i}.\nd{i} :- not a{i}.\nd{i} :- d{i}.\n"
                for i in range(30)
            )
        )
        a = ultimate(tp(prog))
        tracemalloc.start()
        try:
            wf, trace = well_founded(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert wf.exact and len(wf.lower) == 31 and len(trace) == 62
        assert peak < 1_000_000


def with_positive_loops(prog, rng):
    """The program with a rule p :- q added for about a third of its atoms p,
    q drawn among them, p included: loops that kk leaves unknown and wf
    makes false, so that the two fixpoints differ."""
    atoms = sorted(prog.atoms)
    loops = [Rule(p, frozenset({rng.choice(atoms)})) for p in atoms if rng.random() < 1 / 3]
    return LogicProgram([*prog.rules, *loops])


class TestWellFoundedFromKripkeKleene:
    """Without a trace the well-founded iteration starts from the
    Kripke-Kleene fixpoint, and must end where the walk from (bottom, top)
    ends; the searches and scans that start from it must keep their results."""

    @staticmethod
    def check(make):
        # a fresh approximator per path, so that none reuses another's pair
        seeded = make()
        wf, trace = well_founded(seeded, trace=False)
        assert trace[0] == kripke_kleene(seeded)[0] and trace[-1] == wf
        assert wf == well_founded(make())[0]
        assert stable_models(make()) == stable_oracle(make())
        assert partial_stable_fixpoints(make()) == partial_stable_oracle(make())

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8))
    def test_on_programs_with_positive_loops(self, seed, n_atoms):
        rng = random.Random(seed)
        prog = with_positive_loops(random_program(rng, n_atoms), rng)
        lat = program_lattice(prog)
        self.check(lambda: fitting(prog, lat))
        self.check(lambda: ultimate(tp(prog, lat)))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8))
    def test_on_frameworks(self, seed, n_statements):
        framework = random_adf(random.Random(seed), n_statements)
        self.check(lambda: adf_approximator(framework))
        self.check(lambda: ultimate(adf_approximator(framework).operator))

    def test_positive_loop_takes_one_step_from_kk(self):
        a = fitting(parse_program(POS_LOOP))
        kk, _ = kripke_kleene(a)
        wf, trace = well_founded(a, trace=False)
        assert kk.raw() == (fs(), fs("p")) and wf.raw() == (fs(), fs())
        assert trace == [kk, wf]
        # the walk from bottom is remembered apart, and is the traced one
        assert well_founded(a)[1][0].raw() == (fs(), fs("p"))

    def test_a_decided_chain_takes_one_stable_step(self, monkeypatch):
        a = fitting(chain_program(165))
        calls = []
        stable_raw = fixpoints._stable_raw
        monkeypatch.setattr(
            fixpoints,
            "_stable_raw",
            lambda a, lo, hi: calls.append((lo, hi)) or stable_raw(a, lo, hi),
        )
        wf, trace = well_founded(a, trace=False)
        assert wf.exact and trace == [wf]
        assert calls == [wf.raw()]
        # remembered: a second untraced call iterates no more
        assert well_founded(a, trace=False) == (wf, [wf]) and len(calls) == 1

    def test_a_walk_from_bottom_already_made_is_returned(self, monkeypatch):
        a = fitting(chain_program(3))
        wf, walk = well_founded(a)
        calls = []
        monkeypatch.setattr(fixpoints, "_stable_raw", lambda *args: calls.append(args))
        assert well_founded(a, trace=False) == (wf, walk)
        assert calls == []


class TestPartialStableScan:
    def test_equals_the_pair_scan_on_programs(self):
        for prog in random_programs(120, seed=7, min_atoms=1, max_atoms=5):
            lat = program_lattice(prog)
            a = fitting(prog, lat)
            expected = partial_stable_oracle(a)
            assert partial_stable_fixpoints(a) == expected
            assert partial_stable_fixpoints(adf_approximator(program_to_adf(prog))) == expected
            ult = ultimate(a.operator)
            assert partial_stable_fixpoints(ult) == partial_stable_oracle(ult)

    def test_equals_the_pair_scan_on_frameworks(self):
        for framework in random_adfs(60, seed=7, max_statements=4):
            a = adf_approximator(framework)
            assert partial_stable_fixpoints(a) == partial_stable_oracle(a)


class TestBoundedScans:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8))
    def test_equal_the_whole_lattice_scans_on_programs(self, seed, n_atoms):
        prog = random_program(random.Random(seed), n_atoms)
        lat = program_lattice(prog)
        fit = fitting(prog, lat)
        for a in (fit, adf_approximator(program_to_adf(prog)), ultimate(fit.operator)):
            assert supported_fixpoints(a) == supported_oracle(a)
            assert stable_models(a) == stable_oracle(a)
            assert partial_stable_fixpoints(a) == partial_stable_oracle(a)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8))
    def test_equal_the_whole_lattice_scans_on_frameworks(self, seed, n_statements):
        a = adf_approximator(random_adf(random.Random(seed), n_statements))
        assert supported_fixpoints(a) == supported_oracle(a)
        assert stable_models(a) == stable_oracle(a)
        assert partial_stable_fixpoints(a) == partial_stable_oracle(a)

    def test_stable_scan_of_an_exact_well_founded_model_visits_one_candidate(self, monkeypatch):
        a = fitting(chain_program(7))
        wf, _ = well_founded(a)
        assert wf.exact
        calls = []
        stable_raw = fixpoints._stable_raw
        monkeypatch.setattr(
            fixpoints,
            "_stable_raw",
            lambda a, lo, hi: calls.append((lo, hi)) or stable_raw(a, lo, hi),
        )
        assert stable_models(a) == {wf.lower}
        # the well-founded fixpoint is remembered, so the search makes one
        # call, on its exact start
        assert calls == [(wf.lower, wf.upper)]


class TestSearch:
    def test_ultimate_keeps_the_model_its_upper_revision_misses(self):
        # ultimate iterates its upper revision at a lower l from l itself,
        # which stops below {a, b, d} at l = {b}; the search must not use it
        prog = parse_program("a :- b, d.\nd :- d, not c.\nc :- not d.\nd :- not d.\nb.\n")
        lat = program_lattice(prog)
        a = ultimate(tp(prog, lat))
        assert stable_models(a) == {fs("a", "b", "d")}
        assert stable_models(a) == stable_oracle(a)

    @pytest.mark.parametrize("semantics", ["supported", "stable"])
    def test_even_cycle_branches_once(self, semantics, monkeypatch):
        # a0 :- not a1. ... a15 :- not a0.: kk and wf leave all 16 atoms
        # unknown; deciding a0 propagates around the cycle, so each branch
        # is one chain of evaluations ending at a model
        n = SCAN_ATOM_LIMIT
        prog = parse_program("\n".join(f"a{i} :- not a{(i + 1) % n}." for i in range(n)))
        a = fitting(prog)
        calls = []
        if semantics == "stable":
            stable_raw = fixpoints._stable_raw
            monkeypatch.setattr(
                fixpoints,
                "_stable_raw",
                lambda a, lo, hi: calls.append((lo, hi)) or stable_raw(a, lo, hi),
            )
            found = stable_models(a)
        else:
            apply = Approximator.apply
            monkeypatch.setattr(
                Approximator,
                "apply",
                lambda self, lo, hi: calls.append((lo, hi)) or apply(self, lo, hi),
            )
            found = supported_fixpoints(a)
        evens = frozenset(f"a{i}" for i in range(0, n, 2))
        assert found == {evens, a.lattice.universe - evens}
        assert len(calls) <= 34

    def test_even_cycle_and_gadgets_prune_partial_stable(self, monkeypatch):
        # the lower of a partial stable pair is bounded by the lower
        # revision after the upper one, from each side, and by the upper
        # revision at the pair's lower; a scan over the lowers between the
        # well-founded bounds makes about 70,000 revisions on the even cycle
        # and 33,000 on the gadgets
        calls = []
        revision = fixpoints._revision
        monkeypatch.setattr(
            fixpoints,
            "_revision",
            lambda a, at, lower: calls.append(at) or revision(a, at, lower),
        )
        n = SCAN_ATOM_LIMIT
        cycle = fitting(parse_program("\n".join(f"a{i} :- not a{(i + 1) % n}." for i in range(n))))
        evens = frozenset(f"a{i}" for i in range(0, n, 2))
        odds = cycle.lattice.universe - evens
        assert raw_pairs(partial_stable_fixpoints(cycle)) == {
            (frozenset(), cycle.lattice.universe),
            (evens, evens),
            (odds, odds),
        }
        assert len(calls) <= 140

        # x :- not y. y :- not x. f :- x, not f.: disjoint copies combine
        # their pairs freely, so five copies have the oracle's pairs of one
        # copy to the fifth power
        gadget = "x{0} :- not y{0}.\ny{0} :- not x{0}.\nf{0} :- x{0}, not f{0}.\n"
        one = raw_pairs(partial_stable_oracle(fitting(parse_program(gadget.format("")))))
        assert len(one) == 3

        def copy(pair, i):
            return tuple(frozenset(v + str(i) for v in side) for side in pair)

        expected = {
            tuple(frozenset().union(*sides) for sides in zip(*choice))
            for choice in itertools.product(*([copy(p, i) for p in one] for i in range(5)))
        }
        calls.clear()
        five = fitting(parse_program("".join(gadget.format(i) for i in range(5))))
        assert raw_pairs(partial_stable_fixpoints(five)) == expected
        assert len(expected) == 243
        assert len(calls) <= 2_000

    @pytest.mark.parametrize(
        "search", [supported_fixpoints, stable_models, partial_stable_fixpoints]
    )
    def test_search_checks_only_what_the_revision_hook_computes(self, search, monkeypatch):
        # every value the search joins and meets comes from apply or the
        # revision hook, which check it once; a search node checks nothing
        # again, so the checks are the hook's cache misses, none without it
        checked = []
        check = Lattice.check_element
        monkeypatch.setattr(
            Lattice, "check_element", lambda self, x: checked.append(x) or check(self, x)
        )
        n = SCAN_ATOM_LIMIT
        a = fitting(parse_program("\n".join(f"a{i} :- not a{(i + 1) % n}." for i in range(n))))
        hook, computed = a.revision, []
        a.revision = lambda y: computed.append(y) or hook(y)
        assert len(search(a)) >= 2
        misses = len(computed)
        assert len(checked) == (0 if search is supported_fixpoints else misses)
        assert search is supported_fixpoints or misses > 0

    @pytest.mark.parametrize("name", ["chain5", "pentagon", "m3"])
    def test_explicit_lattices_fall_back_to_exact_pairs(self, name):
        lat = FIVE_ELEMENT_LATTICES[name]
        elements = sorted(lat.elements, key=str)
        rng = random.Random(11)
        for _ in range(200):
            table = {x: rng.choice(elements) for x in elements}
            a = ultimate(LatticeOperator(lat, table))
            assert supported_fixpoints(a) == supported_oracle(a)
            assert stable_models(a) == stable_oracle(a)
            assert partial_stable_fixpoints(a) == partial_stable_oracle(a)


class TestPartialStableBounds:
    # inside any (lo, hi) with lo <= x <= hi, the bounds the partial stable
    # search narrows with contain the lower x of every partial stable pair
    @staticmethod
    def check(a, rng):
        lat = a.lattice
        for pair in partial_stable_oracle(a):
            x = pair.lower
            for _ in range(4):
                lo = frozenset(v for v in x if rng.random() < 0.5)
                hi = x | frozenset(v for v in lat.universe if rng.random() < 0.5)
                out = fixpoints._partial_stable_bounds(a, lo, hi)
                assert lat.leq(out[0], x) and lat.leq(x, out[1]), (a.name, lo, hi, x, out)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8))
    def test_contain_every_lower_on_programs(self, seed, n_atoms):
        prog = random_program(random.Random(seed), n_atoms)
        fit = fitting(prog, program_lattice(prog))
        rng = random.Random(seed)
        for a in (fit, adf_approximator(program_to_adf(prog)), ultimate(fit.operator)):
            self.check(a, rng)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8))
    def test_contain_every_lower_on_frameworks(self, seed, n_statements):
        a = adf_approximator(random_adf(random.Random(seed), n_statements))
        rng = random.Random(seed)
        for b in (a, ultimate(a.operator)):
            self.check(b, rng)


class TestAtomLimits:
    # the scans count the atoms their kk or wf bounds leave unknown, which
    # the self-attacks leave all 17 of; ultimate counts the parents of each
    # atom, and the head of the wide rule has 17
    SELF_ATTACKS = "\n".join(f"a{i} :- not a{i}." for i in range(SCAN_ATOM_LIMIT + 1))
    WIDE = "a :- " + ", ".join(f"not b{i}" for i in range(SCAN_ATOM_LIMIT + 1)) + "."
    CHAIN = "\n".join(f"a{i} :- not a{i + 1}." for i in range(SCAN_ATOM_LIMIT))

    @pytest.mark.parametrize(
        "construction,what,source",
        [
            (supported_fixpoints, "supported scan", SELF_ATTACKS),
            (stable_models, "stable scan", SELF_ATTACKS),
            (partial_stable_fixpoints, "partial-stable scan", SELF_ATTACKS),
            (lambda a: ultimate(a.operator), "ultimate", WIDE),
        ],
        ids=["supported", "stable", "partial-stable", "ultimate"],
    )
    def test_refused_above_the_limit(self, construction, what, source):
        a = fitting(parse_program(source))
        start = time.process_time()
        with pytest.raises(TooManyAtoms, match=f"17 atoms exceed the {what} limit of 16") as exc:
            construction(a)
        assert time.process_time() - start < 0.1
        assert exc.value.witness == ("a" if what == "ultimate" else None)

    def test_ultimate_answers_a_universe_beyond_the_limit(self):
        # 17 atoms, none with more than one parent
        a = fitting(parse_program(self.CHAIN))
        ult = ultimate(a.operator)
        assert kripke_kleene(ult)[0] == kripke_kleene(a)[0]
        assert well_founded(ult)[0] == well_founded(a)[0]

    def test_scans_admit_a_large_universe_the_bounds_decide(self):
        layers = 10
        a = fitting(chain_program(layers))
        model = frozenset(f"a{i}" for i in range(layers + 1))
        assert len(a.lattice.universe) == 21
        assert supported_fixpoints(a) == stable_models(a) == {model}
        assert raw_pairs(partial_stable_fixpoints(a)) == {(model, model)}

    def test_limit_admits_its_own_size(self):
        lat = PowersetLattice(f"a{i}" for i in range(SCAN_ATOM_LIMIT))
        check_atoms(lat, SCAN_ATOM_LIMIT, "scan")
        with pytest.raises(TooManyAtoms):
            check_atoms(lat, SCAN_ATOM_LIMIT - 1, "scan")
