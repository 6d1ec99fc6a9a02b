import pytest

from aft.adf import And, Const, Not, Or, Var
from aft.approx import Approximator, ApproxPair
from aft.fixpoints import _stable_raw
from aft.lattice import FiniteLattice, Lattice
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


def fitting_step_oracle(program):
    """Reference for the step of ``fitting``: every rule body tested at the
    pair, with no state between calls."""
    rules = [(r.head, r.pos, r.neg) for r in program.rules]

    def step(lower, upper):
        lo = frozenset(h for h, pos, neg in rules if pos <= lower and neg.isdisjoint(upper))
        hi = frozenset(h for h, pos, neg in rules if pos <= upper and neg.isdisjoint(lower))
        return (lo, hi)

    return step


def support_oracle(f, lower, upper):
    """Reference for the ADF formula evaluation: the independent
    truth-support and falsity-support bits of a formula at a pair. A
    variable is truth-supported when in the lower bound and falsity-supported
    when outside the upper bound; on inconsistent pairs both can hold."""
    if isinstance(f, Const):
        return (f.value, not f.value)
    if isinstance(f, Var):
        return (f.name in lower, f.name not in upper)
    if isinstance(f, Not):
        t, fa = support_oracle(f.child, lower, upper)
        return (fa, t)
    (lt, lf), (rt, rf) = (support_oracle(g, lower, upper) for g in (f.left, f.right))
    if isinstance(f, And):
        return (lt and rt, lf or rf)
    assert isinstance(f, Or)
    return (lt or rt, lf and rf)


def ultimate_oracle(lattice, op):
    """Reference for ``ultimate``: on a consistent pair, the meet and the join
    of the operator's images of every element of the interval."""

    def step(lower, upper):
        images = [op(z) for z in lattice.interval(lower, upper)]
        return (lattice.glb(images), lattice.lub(images))

    return Approximator(lattice, step, operator=op, name="ultimate oracle", consistent_only=True)


def revision_oracle(a, at, lower):
    """Reference for ``fixpoints._revision`` without a revision hook: the
    lower (z -> A(z, at).lower, from bottom) or upper (z -> A(at, z).upper,
    from bottom, or from ``at`` when consistency-restricted) projection
    iterated until it stops changing. A consistency-restricted revision is
    None as soon as an iterate leaves the interval it must stay in, which is
    never applied to."""
    lat = a.lattice
    if lower:
        project, start, lo, hi = (lambda z: a.apply(z, at)[0]), lat.bottom, lat.bottom, at
    else:
        start = at if a.consistent_only else lat.bottom
        project, lo, hi = (lambda z: a.apply(at, z)[1]), at, lat.top
    z = start
    for _ in range(lat.size):
        nz = project(z)
        if a.consistent_only and not (lat.leq(lo, nz) and lat.leq(nz, hi)):
            return None
        if nz == z:
            return z
        z = nz
    raise AssertionError(f"the revision at {at!r} did not stabilize")


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


def convex_kk_oracle(op):
    """Reference for ``convex_kripke_kleene``: the lifted operator on
    frozensets, the cover-walk hull of the base class ``Lattice.hull`` over
    the images of the members, iterated from the set of all elements until
    it leaves an iterate fixed; the result and the whole trace."""
    lat = op.lattice
    trace = [frozenset(lat.elements)]
    while True:
        nxt = Lattice.hull(lat, {op(z) for z in trace[-1]})
        if nxt == trace[-1]:
            return nxt, trace
        trace.append(nxt)
