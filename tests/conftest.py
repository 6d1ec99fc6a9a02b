import pytest

from aft.approx import Approximator, ApproxPair
from aft.fixpoints import _stable_raw
from aft.lattice import FiniteLattice
from aft.lp import parse_program

TWO_CYCLE = "p :- not q.\nq :- not p.\n"
POS_LOOP = "p :- p.\n"
NEG_LOOP = "p :- not p.\n"
DEFINITE = "p.\nq :- p.\n"
SEPARATOR = "p :- q.\np :- not q.\nq :- q.\n"
ABC_ADF = "s(a). s(b). s(c).\nac(a, true). ac(b, a). ac(c, neg(b)).\n"


FIVE_ELEMENT_LATTICES = {
    "chain5": FiniteLattice.from_covers(
        range(5), [(i, i + 1) for i in range(4)]
    ),
    "pentagon": FiniteLattice.from_covers(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1")],
    ),
    "m3": FiniteLattice.from_covers(
        ["0", "x", "y", "z", "1"],
        [("0", "x"), ("0", "y"), ("0", "z"), ("x", "1"), ("y", "1"), ("z", "1")],
    ),
}


@pytest.fixture
def two_cycle():
    return parse_program(TWO_CYCLE)


@pytest.fixture
def pos_loop():
    return parse_program(POS_LOOP)


@pytest.fixture
def neg_loop():
    return parse_program(NEG_LOOP)


@pytest.fixture
def definite():
    return parse_program(DEFINITE)


@pytest.fixture
def separator():
    return parse_program(SEPARATOR)


@pytest.fixture
def diamond():
    return FiniteLattice.from_covers(
        ["bot", "a", "b", "top"],
        [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")],
    )


def fs(*atoms):
    return frozenset(atoms)


def partial_stable_oracle(a):
    """Reference for ``partial_stable_fixpoints``: every consistent pair the
    stable operator leaves fixed, by a scan over all of them (3**|U| pairs
    on a powerset)."""
    lat = a.lattice
    return frozenset(
        ApproxPair(lat, lo, hi)
        for lo, hi in lat.consistent_pairs()
        if _stable_raw(a, lo, hi) == (lo, hi)
    )


def ultimate_oracle(lattice, op):
    """Reference for ``ultimate``: on a consistent pair, the meet and the join
    of the operator's images of every element of the interval."""

    def step(lower, upper):
        images = [op(z) for z in lattice.interval(lower, upper)]
        return (lattice.glb(images), lattice.lub(images))

    return Approximator(lattice, step, operator=op, name="ultimate oracle", consistent_only=True)


def supported_oracle(a):
    """Reference for ``supported_fixpoints``: every element whose exact pair
    the approximator leaves fixed, by a scan over the whole lattice."""
    return frozenset(x for x in a.lattice.elements if a.apply(x, x) == (x, x))


def stable_oracle(a):
    """Reference for ``stable_models``: every element whose exact pair the
    stable operator leaves fixed, by a scan over the whole lattice."""
    return frozenset(x for x in a.lattice.elements if _stable_raw(a, x, x) == (x, x))


def hull_oracle(lattice, members):
    """Reference for ``hull``: every element with a member below it and a
    member above it, testing each element against each member."""
    s = frozenset(members)
    return frozenset(
        y
        for y in lattice.elements
        if any(lattice.leq(a, y) for a in s) and any(lattice.leq(y, b) for b in s)
    )
