import itertools
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aft.adf import classical_operator, parse_adf
from aft.approx import ApproxPair, precision_leq, ultimate
from aft.bitmask import Codec, MaskSet
from aft.convex import (
    CONVEX_LATTICE_LIMIT,
    ConvexSpace,
    convex_kripke_kleene,
    embed_interval,
    hull,
    is_convex,
    lift_operator,
)
from aft.corpus import random_program
from aft.errors import ForeignElement, InconsistentPair, TooManyAtoms, TooManyElements
from aft.fixpoints import kripke_kleene
from aft.lattice import SCAN_ATOM_LIMIT, FiniteLattice, LatticeOperator, PowersetLattice
from aft.lp import parse_program, program_lattice, tp
from conftest import (
    FIVE_ELEMENT_LATTICES,
    convex_kk_oracle,
    fs,
    hull_oracle,
    random_adf,
    sets_json_oracle,
)


def join_a(diamond):
    return LatticeOperator(diamond, lambda x: diamond.lub([x, "a"]), name="join_a")


class TestIsConvex:
    def test_diamond_rim_has_holes(self, diamond):
        check = is_convex(diamond, fs("bot", "top"))
        assert not check
        x, y, z = check.witness
        assert (x, z) == ("bot", "top") and y in ("a", "b")

    def test_singletons_and_antichains(self, diamond):
        assert is_convex(diamond, fs("a"))
        assert is_convex(diamond, fs("a", "b"))
        assert is_convex(diamond, fs())

    def test_every_interval_is_convex(self, diamond):
        for x, y in diamond.consistent_pairs():
            assert is_convex(diamond, diamond.interval(x, y))

    def test_foreign_member(self, diamond):
        with pytest.raises(ForeignElement):
            is_convex(diamond, fs("nowhere"))


class TestHull:
    def test_incomparable_pair_stays_small(self, diamond):
        # strictly smaller than the enclosing interval [bot, top]
        assert hull(diamond, fs("a", "b")) == fs("a", "b")

    def test_singleton(self, diamond):
        assert hull(diamond, fs("b")) == fs("b")

    def test_interval_is_its_own_hull(self, diamond):
        for x, y in diamond.consistent_pairs():
            interval = diamond.interval(x, y)
            if interval:
                assert hull(diamond, interval) == interval

    def test_rim_fills_in(self, diamond):
        assert hull(diamond, fs("bot", "top")) == fs("bot", "a", "b", "top")

    def test_empty(self, diamond):
        assert hull(diamond, fs()) == fs()


@given(
    st.sampled_from(sorted(FIVE_ELEMENT_LATTICES)),
    st.data(),
)
def test_hull_is_a_closure_operator(name, data):
    lat = FIVE_ELEMENT_LATTICES[name]
    elems = sorted(lat.elements, key=repr)
    x = frozenset(data.draw(st.sets(st.sampled_from(elems), max_size=5)))
    y = frozenset(data.draw(st.sets(st.sampled_from(elems), max_size=5)))
    hx = hull(lat, x)
    assert x <= hx
    assert hull(lat, hx) == hx
    assert is_convex(lat, hx)
    if x <= y:
        assert hx <= hull(lat, y)
    # smallest convex superset: no convex proper subset of the hull holds x
    for drop in hx - x:
        smaller = hx - {drop}
        if x <= smaller and is_convex(lat, smaller):
            pytest.fail(f"hull not minimal: {smaller} is convex and contains {x}")


@st.composite
def closure_systems(draw):
    """A random finite lattice: an intersection-closed family of subsets of a
    small universe, holding the universe, ordered by inclusion."""
    universe = frozenset(range(draw(st.integers(1, 4))))
    subsets = st.frozensets(st.sampled_from(sorted(universe)))
    family = {universe} | draw(st.sets(subsets, max_size=6))
    while True:
        closed = family | {s & t for s in family for t in family}
        if closed == family:
            break
        family = closed
    return FiniteLattice(family, [(s, t) for s in family for t in family if s <= t])


@st.composite
def lattices_with_members(draw):
    kind = draw(st.sampled_from(["diamond", "five", "closure", "powerset"]))
    if kind == "diamond":
        lat = FiniteLattice.from_covers(
            ["bot", "a", "b", "top"],
            [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")],
        )
    elif kind == "five":
        lat = FIVE_ELEMENT_LATTICES[draw(st.sampled_from(sorted(FIVE_ELEMENT_LATTICES)))]
    elif kind == "closure":
        lat = draw(closure_systems())
    else:
        lat = PowersetLattice(range(draw(st.integers(0, 4))))
    members = draw(st.frozensets(st.sampled_from(sorted(lat.elements, key=repr))))
    return lat, members


@given(lattices_with_members())
def test_hull_equals_the_member_comparison_oracle(case):
    lat, members = case
    assert hull(lat, members) == hull_oracle(lat, members)


@st.composite
def powersets_with_members(draw):
    n = draw(st.integers(0, 8))
    masks = draw(st.sets(st.integers(0, 2**n - 1), max_size=12))
    members = frozenset(frozenset(i for i in range(n) if m >> i & 1) for m in masks)
    return PowersetLattice(range(n)), members


@given(powersets_with_members())
@example((PowersetLattice(()), frozenset()))
@example((PowersetLattice(range(8)), frozenset()))
@example((PowersetLattice(range(8)), frozenset({fs(1, 4)})))
@example((PowersetLattice(range(8)), frozenset({fs(), fs(*range(8))})))
def test_powerset_hull_over_bitmasks_equals_the_oracle(case):
    lat, members = case
    expected = hull_oracle(lat, members)
    assert hull(lat, members) == expected
    # the shift closure of a bitset over the whole universe, as
    # convex_kripke_kleene runs it
    codec = lat._codec
    closed = codec.close(sum(1 << codec.mask(x) for x in members))
    assert MaskSet(codec, closed) == expected


@pytest.mark.parametrize("foreign", [fs(3), fs(0, "x"), {0}, "0"], ids=repr)
def test_powerset_hull_rejects_a_foreign_member(foreign):
    with pytest.raises(ForeignElement):
        hull(PowersetLattice(range(3)), [fs(0), foreign])


def test_powerset_hull_refuses_a_wide_spread():
    # the limit counts the atoms the members leave free, not the universe's
    lat = PowersetLattice(range(40))
    assert hull(lat, [fs(*range(30)), fs(*range(31))]) == {fs(*range(30)), fs(*range(31))}
    start = time.process_time()
    with pytest.raises(TooManyAtoms, match="17 atoms exceed the hull limit of 16"):
        hull(lat, [fs(), fs(*range(17))])
    assert time.process_time() - start < 0.05


class TestImageMasks:
    @pytest.mark.parametrize(
        "frontend, text",
        [
            ("lp", "a :- a.\nb :- not a, b.\n"),
            ("lp", "a.\nb :- a.\nc.\nd :- not c.\n"),
            ("lp", "a :- b, not c.\nd :- not e.\n"),
            ("lp", ""),
            ("adf", "s(a). s(b). s(c).\nac(a, true). ac(b, false). ac(c, or(a, neg(b))).\n"),
            ("adf", "s(a). s(b).\nac(a, and(a, neg(b))). ac(b, or(b, true)).\n"),
        ],
        ids=["self-loops", "facts", "atoms-heading-no-rule", "empty", "true-false", "self-reference"],
    )
    def test_every_mask_has_the_image_of_its_element(self, frontend, text):
        if frontend == "lp":
            op = tp(parse_program(text))
        else:
            op = classical_operator(parse_adf(text))
        deps, codec = op.dependencies, op.lattice._codec
        elements = [codec.decode(m) for m in range(op.lattice.size)]
        masks = set(range(op.lattice.size))
        assert {codec.mask(x) for x in elements} == masks == set(map(codec.mask, op.lattice.elements))
        assert deps.image_masks() == [codec.mask(deps.image(z)) for z in elements]


def random_bits(seed, size, density):
    rng = random.Random(seed)
    return int("".join("1" if rng.random() < density else "0" for _ in range(size)) or "0", 2)


def mask_set(n, seed, density):
    """A MaskSet over n atoms, named so that their sorted order is not their
    numeric one, and the frozenset of its members."""
    codec = Codec(f"x{i}" for i in range(n))
    bits = random_bits(seed, 2**n, density)
    members = frozenset(codec.decode(m) for m in range(2**n) if bits >> m & 1)
    return MaskSet(codec, bits), members


class TestMaskSet:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 6), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.2, 0.5, 1.0]))
    def test_is_the_frozenset_of_its_members(self, n, seed, density):
        s, members = mask_set(n, seed, density)
        other, others = mask_set(n, seed + 1, density)
        assert s == members and members == s and not s != members
        assert hash(s) == hash(members) and len(s) == len(members)
        assert sorted(map(sorted, s)) == sorted(map(sorted, members))
        assert {s: "s"}[members] == "s" and {members: "m"}[s] == "m"
        assert (s == other) == (members == others)
        for x, y in ((s, other), (s, others), (members, other)):
            plain = (frozenset(x), frozenset(y))
            assert (x <= y, x < y, x >= y, x > y) == (
                plain[0] <= plain[1], plain[0] < plain[1], plain[0] >= plain[1], plain[0] > plain[1]
            )
        assert s | others == members | others and s & other == members & others
        for x in PowersetLattice(f"x{i}" for i in range(n)).elements:
            assert (x in s) == (x in members)
        for foreign in (fs("y"), "x0", 0, None):
            assert foreign not in s
        # equal across universes when the members are, and never to a list
        assert (s == MaskSet(Codec(["y"]), 1)) == (members == {fs()})
        assert s != MaskSet(Codec(["y"]), 2) and s != list(members)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 12), st.integers(0, 2**32 - 1), st.sampled_from([0.001, 0.1, 0.5, 1.0]))
    @example(16, 1, 0.01)
    @example(16, 2, 1.0)
    @example(17, 3, 0.001)
    def test_sorted_members_is_the_order_of_the_sorted_lists(self, n, seed, density):
        s, members = mask_set(n, seed, density)
        assert list(map(list, s.sorted_members())) == sets_json_oracle(members)


class TestEmbedInterval:
    def test_widest_pair_covers_everything(self, diamond):
        p = ApproxPair(diamond, "bot", "top")
        assert embed_interval(p) == diamond.elements

    def test_exact_pair_is_singleton(self, diamond):
        assert embed_interval(ApproxPair(diamond, "a", "a")) == fs("a")

    def test_powerset_interval(self):
        lat = PowersetLattice({"p", "q"})
        p = ApproxPair(lat, fs(), fs("p"))
        assert embed_interval(p) == fs(fs(), fs("p"))

    def test_inconsistent_pair_rejected(self, diamond):
        with pytest.raises(InconsistentPair):
            embed_interval(ApproxPair(diamond, "top", "bot"))

    @pytest.mark.parametrize("universe", [(), ("p",), ("p", "q"), ("p", "q", "r")])
    def test_order_embedding_exhaustive(self, universe):
        lat = PowersetLattice(universe)
        pairs = [ApproxPair(lat, lo, hi) for lo, hi in lat.consistent_pairs()]
        for p in pairs:
            for q in pairs:
                assert precision_leq(p, q) == (embed_interval(q) <= embed_interval(p))


class TestLiftOperator:
    def test_singletons_stay_exact(self, diamond):
        lifted = lift_operator(join_a(diamond))
        for x in diamond.elements:
            assert lifted(fs(x)) == fs(diamond.lub([x, "a"]))

    def test_negative_loop_fixed_set(self, neg_loop):
        lat = program_lattice(neg_loop)
        lifted = lift_operator(tp(neg_loop, lat))
        assert lifted(fs(fs(), fs("p"))) == fs(fs(), fs("p"))

    def test_constant_operator(self, diamond):
        op = LatticeOperator(diamond, lambda x: "b")
        lifted = lift_operator(op)
        for s in [fs("bot"), fs("a", "b"), frozenset(diamond.elements)]:
            assert lifted(s) == fs("b")

    def test_empty_set_is_fixed(self, diamond):
        lifted = lift_operator(join_a(diamond))
        assert lifted(fs()) == fs()

    def test_precision_monotone(self, diamond):
        rng = random.Random(7)
        elems = sorted(diamond.elements)
        for _ in range(50):
            table = {x: rng.choice(elems) for x in elems}
            lifted = lift_operator(LatticeOperator(diamond, table))
            subsets = [frozenset(s) for s in itertools.chain.from_iterable(
                itertools.combinations(elems, k) for k in range(5)
            )]
            for s in subsets:
                for t in subsets:
                    if s >= t:
                        assert lifted(s) >= lifted(t)


class TestConvexKripkeKleene:
    def test_diamond_join_matches_independent_oracle(self, diamond):
        op = join_a(diamond)
        got, trace = convex_kripke_kleene(op)
        # oracle: iterate plain images without hulling, then hull once
        cur = frozenset(diamond.elements)
        while True:
            nxt = frozenset(op(z) for z in cur)
            if nxt == cur:
                break
            cur = nxt
        assert got == hull(diamond, cur)
        assert got == fs("a", "top")
        for a, b in zip(trace, trace[1:]):
            assert a >= b

    def test_negative_loop_keeps_full_uncertainty(self, neg_loop):
        lat = program_lattice(neg_loop)
        got, _ = convex_kripke_kleene(tp(neg_loop, lat))
        assert got == fs(fs(), fs("p"))

    def test_constant_operator_collapses_in_one_step(self, diamond):
        op = LatticeOperator(diamond, lambda x: "b")
        got, trace = convex_kripke_kleene(op)
        assert got == fs("b")
        assert trace == [frozenset(diamond.elements), fs("b")]

    def test_at_least_as_precise_as_ultimate_interval(self, two_cycle, neg_loop, separator, definite):
        for prog in (two_cycle, neg_loop, separator, definite):
            lat = program_lattice(prog)
            op = tp(prog, lat)
            convex, _ = convex_kripke_kleene(op)
            kk_ult, _ = kripke_kleene(ultimate(op))
            assert convex <= embed_interval(kk_ult)

    def test_answers_universes_at_the_atom_limit(self):
        # 16 atoms: the chain keeps its one model, the even cycle all 2**16
        # elements, the image of the full set being the full set
        n = SCAN_ATOM_LIMIT
        chain = parse_program("\n".join(f"a{i} :- not a{i + 1}." for i in range(n - 1)))
        got, _ = convex_kripke_kleene(tp(chain))
        assert got == {frozenset(f"a{i}" for i in range(0, n, 2))}
        cycle = parse_program("\n".join(f"a{i} :- not a{(i + 1) % n}." for i in range(n)))
        got, trace = convex_kripke_kleene(tp(cycle))
        assert len(got) == 2**n and trace == [got]

    def test_iterates_on_a_powerset_without_listing_its_elements(self, two_cycle):
        for op in (tp(two_cycle), tp(parse_program("a :- not b.\nb :- c.\nc :- not a."))):
            got, trace = convex_kripke_kleene(op)
            assert all(type(s) is MaskSet for s in [got, *trace])
            assert "elements" not in op.lattice.__dict__
            assert (got, trace) == convex_kk_oracle(op)

    def test_refuses_universes_beyond_the_atom_limit(self):
        chain = "\n".join(f"a{i} :- not a{i + 1}." for i in range(SCAN_ATOM_LIMIT))
        prog = parse_program(chain)
        lat = program_lattice(prog)
        start = time.process_time()
        with pytest.raises(TooManyAtoms, match="17 atoms exceed the convex-kk limit of 16") as exc:
            convex_kripke_kleene(tp(prog, lat))
        assert time.process_time() - start < 0.05
        assert (exc.value.count, exc.value.limit) == (SCAN_ATOM_LIMIT + 1, SCAN_ATOM_LIMIT)


def seeded_operator(kind, seed, n):
    """The consequence operator of a seeded program of n atoms, the classical
    operator of a seeded framework of n statements, or the program's
    operator tabulated as a plain mapping, which carries no dependencies."""
    rng = random.Random(seed)
    if kind == "framework":
        return classical_operator(random_adf(rng, n))
    op = tp(random_program(rng, n))
    if kind == "program":
        return op
    return LatticeOperator(op.lattice, {x: op(x) for x in op.lattice.elements}, name="table")


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["program", "framework", "mapping"]), st.integers(0, 2**32 - 1), st.integers(0, 9))
def test_convex_kk_equals_the_frozenset_oracle(kind, seed, n):
    op = seeded_operator(kind, seed, n)
    assert (kind == "mapping") == (op.dependencies is None)
    assert convex_kripke_kleene(op) == convex_kk_oracle(op)


class TestConvexSpace:
    def test_empty_set_is_admitted_and_most_precise(self, diamond):
        space = ConvexSpace(diamond)
        assert fs() in space.elements
        assert space.most_precise == fs()
        for s in space.elements:
            assert space.precision_leq(s, space.most_precise)
            assert space.precision_leq(space.least_precise, s)

    def test_space_is_a_complete_lattice(self, diamond):
        space = ConvexSpace(diamond)
        lat = space.as_lattice()
        assert lat.bottom == space.least_precise
        assert lat.top == space.most_precise

    def test_bound_formulas_match_lattice_bounds(self, diamond):
        # oracle: bounds computed from the validated explicit lattice
        space = ConvexSpace(diamond)
        lat = space.as_lattice()
        members = sorted(space.elements, key=repr)
        rng = random.Random(3)
        for _ in range(40):
            s, t = rng.choice(members), rng.choice(members)
            assert space.precision_lub([s, t]) == lat.lub([s, t])
            assert space.precision_glb([s, t]) == lat.glb([s, t])

    def test_three_element_chain_space(self):
        chain = FiniteLattice.from_covers([0, 1, 2], [(0, 1), (1, 2)])
        space = ConvexSpace(chain)
        expected = {fs(), fs(0), fs(1), fs(2), fs(0, 1), fs(1, 2), fs(0, 1, 2)}
        assert space.elements == expected

    def test_refuses_bases_beyond_the_element_limit(self):
        n = SCAN_ATOM_LIMIT + 1
        chain = FiniteLattice.from_covers(range(n), [(i, i + 1) for i in range(n - 1)])
        space = ConvexSpace(chain)
        start = time.process_time()
        with pytest.raises(TooManyElements, match="17 elements exceed the convex space limit of 16") as exc:
            space.elements
        assert time.process_time() - start < 0.05
        assert (exc.value.count, exc.value.limit) == (n, SCAN_ATOM_LIMIT)
        with pytest.raises(TooManyAtoms):
            space.as_lattice()

    def test_lattice_refuses_spaces_beyond_the_set_limit(self):
        # bottom, k incomparable atoms, top: 3 * 2**k + 1 convex sets, so
        # 193 at k = 6 and 385 at k = 7, on either side of the limit
        def atoms_between(k):
            xs = [f"x{i}" for i in range(k)]
            return FiniteLattice.from_covers(
                ["0", *xs, "1"], [("0", x) for x in xs] + [(x, "1") for x in xs]
            )

        assert len(ConvexSpace(atoms_between(6)).elements) <= CONVEX_LATTICE_LIMIT
        assert ConvexSpace(atoms_between(6)).as_lattice().top == fs()
        space = ConvexSpace(atoms_between(7))
        assert len(space.elements) == 385
        start = time.process_time()
        with pytest.raises(TooManyElements, match="385 elements exceed the convex space lattice limit") as exc:
            space.as_lattice()
        assert time.process_time() - start < 0.05
        assert (exc.value.count, exc.value.limit) == (385, CONVEX_LATTICE_LIMIT)
