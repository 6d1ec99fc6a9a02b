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
from typing import AbstractSet, Callable, Iterable

from .approx import ApproxPair
from .errors import InconsistentPair, TooManyElements
from .bitmask import MaskSet, bitset, select
from .lattice import (
    SCAN_ATOM_LIMIT,
    FiniteLattice,
    Lattice,
    LatticeOperator,
    LawCheck,
    PowersetLattice,
    check_atoms,
    iterate,
)

ConvexSet = frozenset

# Most convex sets ``ConvexSpace.as_lattice`` builds a lattice over. The
# build validates every pair of sets, and grows faster than their square:
# measured, 193 sets took 0.11 s, 236 took 0.26 s, 385 took 0.45 s and 769
# took 2.9 s. The 3,938 sets of a 16-element powerset are refused.
CONVEX_LATTICE_LIMIT = 256


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
    ``Lattice.hull`` computes it by walking covers on every kind of lattice,
    and refuses members that leave more than SCAN_ATOM_LIMIT atoms between
    their meet and their join."""
    return lattice.hull(members)


def embed_interval(p: ApproxPair) -> ConvexSet:
    """The convex set a consistent pair denotes. An order-embedding: one pair
    is at most as precise as another exactly when its set contains the
    other's. Exact pairs map to singletons."""
    if not p.consistent:
        raise InconsistentPair(p.raw())
    return p.lattice.interval(p.lower, p.upper)


def lift_operator(op: LatticeOperator) -> Callable[[ConvexSet], ConvexSet]:
    """Lift a base operator to convex sets of its lattice: hull of the
    pointwise image. The empty (inconsistent) set is fixed. Monotone for
    precision: shrinking the argument shrinks image and hull.
    ``convex_kripke_kleene`` iterates it on lattices other than powersets."""

    def lifted(s: ConvexSet) -> ConvexSet:
        if not s:
            return frozenset()
        return hull(op.lattice, frozenset(op(z) for z in s))

    return lifted


def convex_kripke_kleene(op: LatticeOperator) -> tuple[AbstractSet, list[AbstractSet]]:
    """Precision-least fixpoint of the lifted operator, iterated from the
    full (least precise) set of its lattice; the trace shrinks monotonically.

    On a powerset the iterates are bitsets over the elements' masks, and a
    step ORs the image masks of the members, taken from the operator's
    dependencies or else from the operator itself, then closes the result
    (``Codec.close``). The result and each iterate are returned as a
    ``MaskSet`` over that bitset, equal to the frozenset of its members,
    which are decoded only when it is iterated. Other lattices iterate
    ``lift_operator`` on frozensets.

    Either way it computes the image of every element, so lattices of more
    than 2**SCAN_ATOM_LIMIT elements are refused with TooManyAtoms,
    counting ceil(log2(size)) atoms.
    """
    lattice = op.lattice
    check_atoms(lattice, SCAN_ATOM_LIMIT, "convex-kk")
    bound, what = lattice.size + 2, f"convex iteration of {op.name}"
    if not isinstance(lattice, PowersetLattice):
        trace = iterate(lift_operator(op), frozenset(lattice.elements), bound, what)
        return trace[-1], trace
    codec, size = lattice._codec, lattice.size
    deps = op.dependencies
    if deps is not None:
        images = deps.image_masks()
    else:
        images = [codec.mask(op(codec.decode(m))) for m in range(size)]

    def step(members: int) -> int:
        return codec.close(bitset(set(select(images, members)), size))

    trace = [MaskSet(codec, s) for s in iterate(step, (1 << size) - 1, bound, what)]
    return trace[-1], trace


class ConvexSpace:
    """All convex subsets of a base lattice under the precision order.

    A complete lattice: the precision join of a family is its intersection,
    the precision meet the hull of its union. Enumerating the elements tests
    every subset of the base, so a base of more than SCAN_ATOM_LIMIT elements
    is refused with TooManyElements; intended for tiny bases and law checks.
    """

    def __init__(self, base: Lattice):
        self.base = base

    @cached_property
    def elements(self) -> frozenset:
        if self.base.size > SCAN_ATOM_LIMIT:
            raise TooManyElements(self.base.size, SCAN_ATOM_LIMIT, "convex space")
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
        exhaustive law checking. A space of more than CONVEX_LATTICE_LIMIT
        sets is refused with TooManyElements before any pair is built."""
        elems = self.elements
        if len(elems) > CONVEX_LATTICE_LIMIT:
            raise TooManyElements(len(elems), CONVEX_LATTICE_LIMIT, "convex space lattice")
        return FiniteLattice(elems, [(s, t) for s in elems for t in elems if s >= t])
