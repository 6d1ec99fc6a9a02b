"""Convex subsets of a lattice as a generalized approximation space.

A subset is convex ("no holes") when it contains everything strictly between
any two of its members. Convex sets refine interval approximations: every
consistent pair embeds as the interval it denotes, but a convex set like the
two incomparable midpoints of a diamond is expressible with no interval
around it.

Precision compares by reverse inclusion: smaller sets say more. The empty set
is admitted as the maximally precise, inconsistent element, so the space is a
complete lattice and bottom-up iteration applies. Operators lift pointwise
followed by a convex hull, the most precise convex-valued extension.

Only the precision order exists here. No truth order is defined on convex
sets, and consequently no stable or well-founded construction: the space
exposes only the cautious least-fixpoint semantics, plus the embedding needed
to compare its precision against interval constructions.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Iterable

from .approx import ApproxPair
from .errors import InconsistentPair
from .lattice import FiniteLattice, Lattice, LatticeOperator, LawCheck, check_atoms, iterate

ConvexSet = frozenset

# convex_kripke_kleene starts from the set of all elements, and on a powerset
# each hull closes the members' bitmasks one atom at a time, a pass over up
# to 2**|U| masks per atom, so a step costs about 2**|U| * |U| mask
# operations; it refuses powersets of more atoms than this
CONVEX_ATOM_LIMIT = 12


def is_convex(lattice: Lattice, members: Iterable) -> LawCheck:
    """Exhaustive hole check; a failing witness is (x, y, z) with x, z inside
    and y strictly between them outside."""
    s = frozenset(lattice.check_element(x) for x in members)
    for x in s:
        for z in s:
            if lattice.lt(x, z):
                holes = lattice.interval(x, z) - s
                if holes:
                    return LawCheck(False, (x, next(iter(holes)), z))
    return LawCheck(True)


def hull(lattice: Lattice, members: Iterable) -> ConvexSet:
    """Smallest convex superset: everything bounded by members on both sides.
    Each kind of lattice computes it (``Lattice.hull``): an explicit lattice
    by walking covers, a powerset over bitmasks."""
    return lattice.hull(members)


def embed_interval(p: ApproxPair) -> ConvexSet:
    """The convex set a consistent pair denotes. An order-embedding: one pair
    is at most as precise as another exactly when its set contains the
    other's. Exact pairs map to singletons."""
    if not p.consistent:
        raise InconsistentPair(p.raw())
    return p.lattice.interval(p.lower, p.upper)


def lift_operator(lattice: Lattice, op: LatticeOperator) -> Callable[[ConvexSet], ConvexSet]:
    """Lift a base operator to convex sets: hull of the pointwise image.
    The empty (inconsistent) set is fixed. Monotone for precision: shrinking
    the argument shrinks image and hull."""

    def lifted(s: ConvexSet) -> ConvexSet:
        if not s:
            return frozenset()
        return hull(lattice, frozenset(op(z) for z in s))

    return lifted


def convex_kripke_kleene(
    lattice: Lattice, op: LatticeOperator
) -> tuple[ConvexSet, list[ConvexSet]]:
    """Precision-least fixpoint of the lifted operator, iterated from the
    full (least precise) set; the trace shrinks monotonically.

    Lattices of more than 2**CONVEX_ATOM_LIMIT elements are refused with
    TooManyAtoms, counting ceil(log2(size)) atoms.
    """
    check_atoms(lattice, CONVEX_ATOM_LIMIT, "convex-kk")
    start, bound = frozenset(lattice.elements), lattice.size + 2
    trace = iterate(lift_operator(lattice, op), start, bound, f"convex iteration of {op.name}")
    return trace[-1], trace


class ConvexSpace:
    """All convex subsets of a base lattice under the precision order.

    A complete lattice: the precision join of a family is its intersection,
    the precision meet the hull of its union. Enumerating the elements is
    exponential in the base; intended for tiny bases and law checks.
    """

    def __init__(self, base: Lattice):
        self.base = base

    @cached_property
    def elements(self) -> frozenset:
        out = []
        members = sorted(self.base.elements, key=repr)
        subsets = [frozenset()]
        for m in members:
            subsets += [s | {m} for s in subsets]
        for s in subsets:
            if is_convex(self.base, s):
                out.append(s)
        return frozenset(out)

    @property
    def least_precise(self) -> ConvexSet:
        return frozenset(self.base.elements)

    @property
    def most_precise(self) -> ConvexSet:
        return frozenset()

    def precision_leq(self, s: ConvexSet, t: ConvexSet) -> bool:
        return s >= t

    def precision_lub(self, sets: Iterable[ConvexSet]) -> ConvexSet:
        out = None
        for s in sets:
            out = s if out is None else out & s
        return self.least_precise if out is None else out

    def precision_glb(self, sets: Iterable[ConvexSet]) -> ConvexSet:
        out = frozenset()
        for s in sets:
            out |= s
        return hull(self.base, out)

    def as_lattice(self) -> FiniteLattice:
        """The space as an explicit lattice in the precision order, for
        exhaustive law checking."""
        elems = self.elements
        return FiniteLattice(elems, [(s, t) for s in elems for t in elems if s >= t])
