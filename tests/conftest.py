import pytest

from aft.approx import ApproxPair
from aft.fixpoints import _stable_raw
from aft.lattice import FiniteLattice
from aft.lp import parse_program

TWO_CYCLE = "p :- not q.\nq :- not p.\n"
POS_LOOP = "p :- p.\n"
NEG_LOOP = "p :- not p.\n"
DEFINITE = "p.\nq :- p.\n"
SEPARATOR = "p :- q.\np :- not q.\nq :- q.\n"
ABC_ADF = "s(a). s(b). s(c).\nac(a, true). ac(b, a). ac(c, neg(b)).\n"


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
