import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from aft.errors import (
    DivergenceGuard,
    ForeignElement,
    NonMonotoneOperator,
    NotALattice,
    NotAPartialOrder,
)
from aft.lattice import (
    VALIDATION_LIMIT,
    FiniteLattice,
    Lattice,
    LatticeOperator,
    PowersetLattice,
    is_monotone,
    lfp,
)
from aft.lp import parse_program, program_lattice, tp

from conftest import FIVE_ELEMENT_LATTICES, fs


def full_relation(ups):
    return [(a, b) for a, bs in ups.items() for b in bs]


class TestVerifyLattice:
    def test_diamond_is_valid(self, diamond):
        assert diamond.bottom == "bot"
        assert diamond.top == "top"
        assert diamond.leq("bot", "a") and diamond.leq("a", "top")
        assert not diamond.leq("a", "b")

    def test_antichain_misses_lub(self):
        with pytest.raises(NotALattice) as exc:
            FiniteLattice(["a", "b"], [("a", "a"), ("b", "b")])
        assert exc.value.missing == "lub"
        assert set(exc.value.witness) == {"a", "b"}

    def test_powerset_is_valid(self):
        lat = PowersetLattice({"p", "q"})
        assert lat.bottom == fs()
        assert lat.top == fs("p", "q")
        assert len(lat.elements) == 4

    def test_missing_reflexive_pair(self):
        with pytest.raises(NotAPartialOrder) as exc:
            FiniteLattice(["a", "b"], [("a", "a"), ("a", "b")])
        assert exc.value.law == "reflexivity"
        assert exc.value.witness == ("b",)

    def test_antisymmetry_violation(self):
        with pytest.raises(NotAPartialOrder) as exc:
            FiniteLattice(["a", "b"], [("a", "a"), ("b", "b"), ("a", "b"), ("b", "a")])
        assert exc.value.law == "antisymmetry"

    def test_transitivity_violation(self):
        rel = [("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c")]
        with pytest.raises(NotAPartialOrder) as exc:
            FiniteLattice(["a", "b", "c"], rel)
        assert exc.value.law == "transitivity"
        assert exc.value.witness == ("a", "b", "c")

    def test_foreign_element_in_relation(self):
        with pytest.raises(ForeignElement):
            FiniteLattice(["a"], [("a", "a"), ("a", "z")])

    def test_empty_carrier(self):
        with pytest.raises(NotALattice):
            FiniteLattice([], [])

    def test_powerset_equals_extensional_copy(self):
        lat = PowersetLattice({"p"})
        rel = [(a, b) for a in lat.elements for b in lat.elements if a <= b]
        assert FiniteLattice(lat.elements, rel) == lat


class TestProtocol:
    def test_kinds_are_siblings(self):
        assert not issubclass(PowersetLattice, FiniteLattice)
        assert issubclass(PowersetLattice, Lattice) and issubclass(FiniteLattice, Lattice)

    def test_powerset_repr_does_not_enumerate(self):
        lat = PowersetLattice(f"a{i}" for i in range(40))
        start = time.process_time()
        assert repr(lat) == f"<PowersetLattice with {2 ** 40} elements>"
        assert time.process_time() - start < 0.1
        assert "elements" not in lat.__dict__

    def test_height_is_the_longest_chain(self, diamond):
        assert diamond.height == 2
        assert FiniteLattice.from_covers(range(5), [(i, i + 1) for i in range(4)]).height == 4
        pentagon = FiniteLattice.from_covers(
            ["0", "a", "b", "c", "1"],
            [("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1")],
        )
        assert pentagon.height == 3
        assert FiniteLattice(["x"], [("x", "x")]).height == 0
        assert PowersetLattice("pqr").height == 3

    @given(st.sets(st.sampled_from("pqr")))
    def test_powerset_agrees_with_its_extensional_copy(self, universe):
        lat = PowersetLattice(universe)
        copy = FiniteLattice(lat.elements, lat.consistent_pairs())
        assert lat == copy and copy == lat
        assert hash(lat) == hash(copy)
        assert lat.height == copy.height
        assert set(lat.consistent_pairs()) == set(copy.consistent_pairs())
        assert lat.inverted() == copy.inverted()
        assert (lat.inverted() == lat) == (not universe)
        assert lat != PowersetLattice(set(universe) | {"z"})
        assert lat.lub([]) == copy.lub([]) and lat.glb([]) == copy.glb([])
        for x in lat.elements:
            assert lat.up_covers(x) == copy.up_covers(x)
            assert lat.down_covers(x) == copy.down_covers(x)
            for y in lat.elements:
                assert lat.leq(x, y) == copy.leq(x, y)
                assert lat.lub([x, y]) == copy.lub([x, y])
                assert lat.glb([x, y]) == copy.glb([x, y])
                assert lat.interval(x, y) == copy.interval(x, y)


class TestBounds:
    def test_powerset_lub_is_union(self):
        lat = PowersetLattice({"p", "q"})
        assert lat.lub([fs("p"), fs("q")]) == fs("p", "q")
        assert lat.glb([fs("p"), fs("p", "q")]) == fs("p")

    def test_empty_join_and_meet(self, diamond):
        assert diamond.lub([]) == "bot"
        assert diamond.glb([]) == "top"
        lat = PowersetLattice({"p", "q"})
        assert lat.lub([]) == fs()
        assert lat.glb([]) == fs("p", "q")

    def test_diamond_incomparable_pair(self, diamond):
        assert diamond.glb(["a", "b"]) == "bot"
        assert diamond.lub(["a", "b"]) == "top"

    @pytest.mark.parametrize("name", [*FIVE_ELEMENT_LATTICES, "diamond", "powerset"])
    def test_join_and_meet_are_the_binary_bounds(self, name, diamond):
        lattices = {**FIVE_ELEMENT_LATTICES, "diamond": diamond, "powerset": PowersetLattice("pqr")}
        lat = lattices[name]
        for x in lat.elements:
            assert lat.lub([x]) == x == lat.glb([x])
            for y in lat.elements:
                assert lat.join(x, y) == lat.lub([x, y]) == lat.join(y, x)
                assert lat.meet(x, y) == lat.glb([x, y]) == lat.meet(y, x)

    def test_foreign_member(self, diamond):
        with pytest.raises(ForeignElement):
            diamond.lub(["a", "z"])
        with pytest.raises(ForeignElement):
            PowersetLattice({"p"}).glb([fs("q")])

    @given(st.lists(st.sets(st.sampled_from("pqr")), max_size=4))
    def test_bounds_bound_on_powerset(self, sets):
        lat = PowersetLattice({"p", "q", "r"})
        members = [frozenset(s) for s in sets]
        up = lat.lub(members)
        dn = lat.glb(members)
        for m in members:
            assert lat.leq(m, up) and lat.leq(dn, m)
        # least / greatest among all bounds, by enumeration
        for cand in lat.elements:
            if all(lat.leq(m, cand) for m in members):
                assert lat.leq(up, cand)
            if all(lat.leq(cand, m) for m in members):
                assert lat.leq(cand, dn)

    def test_interval(self, diamond):
        assert diamond.interval("bot", "top") == fs("bot", "a", "b", "top")
        assert diamond.interval("a", "b") == fs()
        lat = PowersetLattice({"p", "q"})
        assert lat.interval(fs(), fs("p")) == fs(fs(), fs("p"))

    def test_covers(self, diamond):
        assert diamond.up_covers("bot") == fs("a", "b")
        assert diamond.down_covers("top") == fs("a", "b")
        lat = PowersetLattice({"p", "q"})
        assert lat.up_covers(fs()) == fs(fs("p"), fs("q"))
        assert lat.down_covers(fs("p")) == fs(fs())

    def test_split_covers_the_interval(self, diamond):
        assert sorted(diamond.split("bot", "top")) == [(x, x) for x in sorted(diamond.elements)]
        lat = PowersetLattice({"p", "q", "r"})
        assert lat.split(fs("q"), fs("p", "q", "r")) == [
            (fs("p", "q"), fs("p", "q", "r")),
            (fs("q"), fs("q", "r")),
        ]

    def test_atoms_between(self, diamond):
        assert diamond.atoms_between("bot", "top") == 2
        assert diamond.atoms_between("a", "top") == 1
        lat = PowersetLattice({"p", "q", "r"})
        assert lat.atoms_between(fs("q"), fs("p", "q", "r")) == 2
        assert lat.atoms_between(lat.bottom, lat.top) == 3


class TestIsMonotone:
    def test_add_atom_is_monotone(self):
        lat = PowersetLattice({"p", "q"})
        op = LatticeOperator(lat, lambda x: x | fs("p"))
        assert is_monotone(op)

    def test_explicit_violation_with_witness(self):
        lat = PowersetLattice({"p"})
        check = is_monotone(LatticeOperator(lat, {fs(): fs("p"), fs("p"): fs()}))
        assert not check
        assert check.witness == (fs(), fs("p"))

    def test_violation_witness_is_a_violation(self):
        lat = PowersetLattice({"p", "q"})

        def swap(x):
            if x == fs():
                return fs("p")
            if x == fs("p"):
                return fs()
            return x

        op = LatticeOperator(lat, swap)
        check = is_monotone(op)
        assert not check
        x, y = check.witness
        assert lat.leq(x, y) and not lat.leq(op(x), op(y))

    def test_definite_consequence_operator_monotone(self):
        prog = parse_program("p.\nq :- p.\nr :- p, q.")
        lat = program_lattice(prog)
        op = tp(prog, lat)
        assert is_monotone(op)
        # independent oracle: compare over every comparable pair of subsets
        for x in lat.elements:
            for y in lat.elements:
                if x <= y:
                    assert op(x) <= op(y)


class TestLfp:
    def test_identity_gives_bottom(self, diamond):
        assert lfp(LatticeOperator(diamond, lambda x: x)) == "bot"

    def test_one_step(self):
        lat = PowersetLattice({"p", "q"})
        assert lfp(LatticeOperator(lat, lambda x: x | fs("p"))) == fs("p")

    def test_definite_program_least_fixpoint(self, definite):
        lat = program_lattice(definite)
        op = tp(definite, lat)
        result = lfp(op)
        assert result == fs("p", "q")
        # brute force: the least among all fixpoints of the operator
        fixpoints = [x for x in lat.elements if op(x) == x]
        assert result in fixpoints
        assert all(lat.leq(result, x) for x in fixpoints)

    def test_validation_catches_non_monotone(self):
        lat = PowersetLattice({"p"})
        table = {fs(): fs("p"), fs("p"): fs()}
        with pytest.raises(NonMonotoneOperator) as exc:
            lfp(LatticeOperator(lat, table))
        assert exc.value.witness == (fs(), fs("p"))

    def test_divergence_guard_without_validation(self):
        # above VALIDATION_LIMIT elements lfp checks nothing first, and the
        # complement swaps bottom and top until the iteration revisits one
        lat = PowersetLattice(f"a{i}" for i in range(13))
        assert lat.size > VALIDATION_LIMIT
        with pytest.raises(DivergenceGuard) as exc:
            lfp(LatticeOperator(lat, lambda x: lat.top - x, name="complement"))
        assert exc.value.cycle == (lat.bottom, lat.top)

    def test_iteration_sequence_is_increasing(self, definite):
        lat = program_lattice(definite)
        op = tp(definite, lat)
        x = lat.bottom
        seen = [x]
        while op(x) != x:
            x = op(x)
            seen.append(x)
        for a, b in zip(seen, seen[1:]):
            assert lat.leq(a, b)

    @given(st.data())
    def test_lfp_is_least_for_generated_monotone_ops(self, data):
        universe = ["p", "q", "r"]
        lat = PowersetLattice(universe)
        elems = sorted(lat.elements, key=sorted)
        # union-driven operators are monotone by construction
        seed = data.draw(st.sampled_from(elems))
        per_atom = {a: data.draw(st.sampled_from(elems)) for a in universe}

        def step(x):
            out = set(seed)
            for a in x:
                out |= per_atom[a]
            return frozenset(out)

        op = LatticeOperator(lat, step)
        result = lfp(op)
        assert op(result) == result
        for x in elems:
            if op(x) == x:
                assert lat.leq(result, x)


class TestStructure:
    def test_inverted_flips_order(self, diamond):
        inv = diamond.inverted()
        assert inv.bottom == "top" and inv.top == "bot"
        assert inv.leq("top", "a") and not inv.leq("a", "top")
        assert inv.inverted() == diamond

    def test_operator_result_must_live_in_lattice(self, diamond):
        op = LatticeOperator(diamond, lambda x: "nowhere")
        with pytest.raises(ForeignElement):
            op("a")

