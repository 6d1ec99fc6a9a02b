"""Finite complete lattices and least fixpoints of monotone operators.

Two kinds of lattice share one protocol, ``Lattice``: lattices given
extensionally (element set plus order relation) and powersets of a finite
universe. Everything is desk scale by design: laws are checked exhaustively,
and fixpoints are computed by plain Kleene iteration from the bottom element.
``iterate`` is that iteration for every least fixpoint of the engine
(``lfp``, Kripke-Kleene, well-founded, the inner revisions, convex), each
with its own step bound; it stops at a revisited value with the cycle.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Hashable, Iterable, Iterator, Mapping
from dataclasses import dataclass
from functools import cached_property, reduce

from .bitmask import Codec, Dependencies
from .errors import (
    DivergenceGuard,
    ForeignElement,
    LatticeMismatch,
    NonMonotoneOperator,
    NotALattice,
    NotAPartialOrder,
    TooManyAtoms,
)

Element = Hashable

# lfp checks its operator for monotonicity, one comparison along each cover of
# each element (0.07 s at 4,096 elements), on lattices of at most this many
# elements; on larger ones it relies on its step bound and revisit check.
VALIDATION_LIMIT = 4096

# Every exhaustive construction enumerates at most 2**SCAN_ATOM_LIMIT items:
# elements, pairs or assignments to an atom's parents. The partial stable scan
# visits each element between the well-founded bounds (0.6 s at 16 unknown
# atoms). The supported and stable searches, where propagation narrows
# nothing, evaluate a whole binary tree over the atoms the Kripke-Kleene or
# well-founded pair leaves unknown (3.5 s for 2**16 supported models).
# Ultimate decides each atom on up to 2**k assignments to its k parents, or,
# for an operator without dependencies, evaluates a whole interval (2 s at
# 16 atoms); convex-kk takes the image of every element (0.29-0.37 s at 16
# atoms). So the scans refuse more unknown atoms than this, ultimate an atom
# with more parents, and the rest a universe of more atoms; the pair law
# checks, with 4**|U| pairs, half as many (LAW_ATOM_LIMIT). ConvexSpace tests
# every subset of its base lattice's elements, so it refuses a base of more
# elements.
SCAN_ATOM_LIMIT = 16


@dataclass(frozen=True)
class LawCheck:
    """Outcome of an exhaustive law check: the law holds, or a witness."""

    holds: bool
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.holds


def check_atoms(lattice: "Lattice", limit: int, what: str, bounds: tuple | None = None) -> None:
    """Refuse with TooManyAtoms naming the construction ``what`` when more
    than ``limit`` atoms lie between the pair ``bounds``, by default the
    bottom and top of the lattice; see ``Lattice.atoms_between``."""
    lower, upper = bounds if bounds is not None else (lattice.bottom, lattice.top)
    atoms = lattice.atoms_between(lower, upper)
    if atoms > limit:
        raise TooManyAtoms(atoms, limit, what)


class Lattice:
    """A finite complete lattice.

    Each kind supplies its primitives: ``bottom``, ``top``, ``elements``,
    ``size``, ``height`` (the number of steps in a longest chain), ``has``,
    ``leq``, the binary ``join`` and ``meet``, ``interval``, ``up_covers``
    and ``down_covers``. Everything else is derived here from those, once.
    ``leq``, ``join``, ``meet`` and ``interval`` take elements already
    checked to be in the lattice and check nothing; the n-ary ``lub`` and
    ``glb`` check their members, for values that have not been.
    ``atoms_between`` and ``split`` are derived by enumerating an interval,
    which a kind may replace with something cheaper; ``hull`` walks covers
    for every kind.
    """

    def check_element(self, x: Element) -> Element:
        if not self.has(x):
            raise ForeignElement(x)
        return x

    def lub(self, xs: Iterable[Element]) -> Element:
        """Least upper bound; the empty join is the bottom element."""
        return reduce(self.join, map(self.check_element, xs), self.bottom)

    def glb(self, xs: Iterable[Element]) -> Element:
        """Greatest lower bound; the empty meet is the top element."""
        return reduce(self.meet, map(self.check_element, xs), self.top)

    def lt(self, a: Element, b: Element) -> bool:
        return a != b and self.leq(a, b)

    def atoms_between(self, x: Element, y: Element) -> int:
        """The atoms left open between x and y: ceil(log2) of the number of
        elements in the interval."""
        return (len(self.interval(x, y)) - 1).bit_length()

    def split(self, x: Element, y: Element) -> list[tuple[Element, Element]]:
        """Pairs more precise than (x, y), for x strictly below y, whose
        intervals together cover the interval between x and y; here its
        exact pairs."""
        return [(z, z) for z in self.interval(x, y)]

    def hull(self, members: Iterable[Element]) -> frozenset:
        """Smallest convex superset: everything bounded by members on both
        sides.

        In a finite lattice every a <= y is joined by a chain of covers, so
        the elements above some member are the members' closure under
        up-covers, and dually below; their intersection is the hull. Only
        elements below the members' join can lie below a member, and only
        those above their meet above one, which prunes each closure.
        Members that leave more than SCAN_ATOM_LIMIT atoms between their
        meet and their join are refused with TooManyAtoms before the walk.
        """
        s = frozenset(map(self.check_element, members))
        if not s:
            return frozenset()
        join, meet = reduce(self.join, s), reduce(self.meet, s)
        check_atoms(self, SCAN_ATOM_LIMIT, "hull", (meet, join))
        up = _cover_closure(s, self.up_covers, lambda y: self.leq(y, join))
        down = _cover_closure(s, self.down_covers, lambda y: self.leq(meet, y))
        return frozenset(up & down)

    def consistent_pairs(self) -> Iterator[tuple[Element, Element]]:
        """All pairs (x, y) with x <= y."""
        for x in self.elements:
            for y in self.interval(x, self.top):
                yield (x, y)

    def inverted(self) -> "FiniteLattice":
        """The same carrier with the order turned upside down."""
        return FiniteLattice(self.elements, [(b, a) for a, b in self.consistent_pairs()])

    def __eq__(self, other) -> bool:
        # extensional; the size test first keeps lattices of different
        # sizes from enumerating anything
        if self is other:
            return True
        if not isinstance(other, Lattice):
            return NotImplemented
        return (
            self.size == other.size
            and self.elements == other.elements
            and set(self.consistent_pairs()) == set(other.consistent_pairs())
        )

    def __hash__(self) -> int:
        # size and top are what every kind of lattice knows without
        # enumerating, and equal lattices agree on both
        return hash((self.size, self.top))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} with {self.size} elements>"


def _cover_closure(start, covers: Callable, keep: Callable) -> set:
    """Everything reachable from ``start`` through ``covers`` while ``keep``
    holds of each element reached."""
    seen = set(start)
    stack = list(start)
    while stack:
        for y in covers(stack.pop()):
            if y not in seen and keep(y):
                seen.add(y)
                stack.append(y)
    return seen


class FiniteLattice(Lattice):
    """Finite complete lattice given extensionally, validated eagerly at
    construction.

    ``leq`` must be the full order relation (reflexive pairs included).
    Construction checks the partial-order laws and the existence of all
    binary meets/joins plus global bounds; on a finite poset that is
    equivalent to completeness. Instances are immutable and shareable.
    """

    def __init__(self, elements: Iterable[Element], leq: Iterable[tuple[Element, Element]]):
        elems = frozenset(elements)
        if not elems:
            raise NotALattice("elements", "empty carrier")
        relation = set()
        for a, b in leq:
            if a not in elems:
                raise ForeignElement(a)
            if b not in elems:
                raise ForeignElement(b)
            relation.add((a, b))

        ups: dict[Element, set[Element]] = {a: set() for a in elems}
        downs: dict[Element, set[Element]] = {a: set() for a in elems}
        for a, b in relation:
            ups[a].add(b)
            downs[b].add(a)

        for a in elems:
            if a not in ups[a]:
                raise NotAPartialOrder("reflexivity", (a,))
        for a, b in relation:
            if a != b and (b, a) in relation:
                raise NotAPartialOrder("antisymmetry", (a, b))
        for a in elems:
            for b in ups[a]:
                if not ups[b] <= ups[a]:
                    c = next(iter(ups[b] - ups[a]))
                    raise NotAPartialOrder("transitivity", (a, b, c))

        self._elements = elems
        self._ups = {a: frozenset(s) for a, s in ups.items()}
        self._downs = {a: frozenset(s) for a, s in downs.items()}

        self._join: dict[tuple[Element, Element], Element] = {}
        self._meet: dict[tuple[Element, Element], Element] = {}
        for a, b in itertools.combinations_with_replacement(elems, 2):
            j = self._bound_of(self._ups[a] & self._ups[b], self._ups, "lub", (a, b))
            m = self._bound_of(self._downs[a] & self._downs[b], self._downs, "glb", (a, b))
            self._join[(a, b)] = self._join[(b, a)] = j
            self._meet[(a, b)] = self._meet[(b, a)] = m

        # binary bounds plus finiteness give the global ones by folding
        self.bottom = reduce(self.meet, elems)
        self.top = reduce(self.join, elems)

    @staticmethod
    def _bound_of(candidates, opposite, kind, witness):
        for c in candidates:
            if candidates <= opposite[c]:
                return c
        raise NotALattice(kind, witness)

    @classmethod
    def from_covers(cls, elements: Iterable[Element], covers: Iterable[tuple[Element, Element]]) -> "FiniteLattice":
        """Build a lattice from strict covering pairs, closing the order
        reflexively and transitively first."""
        elems = list(elements)
        ups = {a: {a} for a in elems}
        for a, b in covers:
            ups.setdefault(a, {a}).add(b)
        changed = True
        while changed:
            changed = False
            for a in elems:
                grown = set().union(*(ups[b] for b in ups[a]))
                if not grown <= ups[a]:
                    ups[a] |= grown
                    changed = True
        return cls(elems, [(a, b) for a in elems for b in ups[a]])

    # -- order interface ---------------------------------------------------

    @property
    def elements(self) -> frozenset:
        return self._elements

    @property
    def size(self) -> int:
        return len(self._elements)

    @cached_property
    def height(self) -> int:
        # whatever lies strictly below x has fewer elements below it, so in
        # this order every chain length is settled before it is read
        longest: dict[Element, int] = {}
        for x in sorted(self._elements, key=lambda e: len(self._downs[e])):
            longest[x] = max((longest[y] + 1 for y in self._downs[x] if y != x), default=0)
        return longest[self.top]

    def has(self, x: Element) -> bool:
        return x in self._elements

    def leq(self, a: Element, b: Element) -> bool:
        return b in self._ups[a]

    def join(self, a: Element, b: Element) -> Element:
        return self._join[(a, b)]

    def meet(self, a: Element, b: Element) -> Element:
        return self._meet[(a, b)]

    def interval(self, x: Element, y: Element) -> frozenset:
        """All elements z with x <= z <= y (empty when x is not below y)."""
        return self._ups[x] & self._downs[y]

    def up_covers(self, x: Element) -> frozenset:
        return self._cover_map[x]

    def down_covers(self, x: Element) -> frozenset:
        return self._cocover_map[x]

    @cached_property
    def _cover_map(self) -> dict:
        out = {}
        for x in self._elements:
            strict = self._ups[x] - {x}
            out[x] = frozenset(y for y in strict if not any(self.lt(w, y) for w in strict))
        return out

    @cached_property
    def _cocover_map(self) -> dict:
        out = {}
        for x in self._elements:
            strict = self._downs[x] - {x}
            out[x] = frozenset(y for y in strict if not any(self.lt(y, w) for w in strict))
        return out


class PowersetLattice(Lattice):
    """Lattice of all subsets of a finite universe, ordered by inclusion.

    Meets, joins and order tests are plain set operations, so nothing is
    materialized until something genuinely enumerates the elements (scans,
    exhaustive law checks). The per-atom evaluation of operators and convex
    iteration work on int bitmasks of the elements and bitsets of those,
    inside ``aft.bitmask``; the hull is the cover walk of ``Lattice``.
    """

    def __init__(self, universe: Iterable):
        self.universe = frozenset(universe)
        self.bottom = frozenset()
        self.top = self.universe

    @cached_property
    def elements(self) -> frozenset:
        return self.interval(self.bottom, self.top)

    @property
    def size(self) -> int:
        return 2 ** len(self.universe)

    @property
    def height(self) -> int:
        return len(self.universe)

    def has(self, x) -> bool:
        return isinstance(x, frozenset) and x <= self.universe

    def leq(self, a, b) -> bool:
        return a <= b

    def join(self, a, b) -> frozenset:
        return a | b

    def meet(self, a, b) -> frozenset:
        return a & b

    def interval(self, x, y) -> frozenset:
        if not x <= y:
            return frozenset()
        members = [x]
        for a in sorted(y - x):
            atom = frozenset((a,))
            members += [m | atom for m in members]
        return frozenset(members)

    def up_covers(self, x) -> frozenset:
        return frozenset(x | {a} for a in self.universe - x)

    def down_covers(self, x) -> frozenset:
        return frozenset(x - {a} for a in x)

    def atoms_between(self, x, y) -> int:
        return len(y - x)

    def split(self, x, y) -> list[tuple[frozenset, frozenset]]:
        """The least atom left open between x and y, once true and once
        false."""
        p = min(y - x)
        return [(x | {p}, y), (x, y - {p})]

    @cached_property
    def _codec(self) -> Codec:
        return Codec(self.universe)

    def __eq__(self, other) -> bool:
        if isinstance(other, PowersetLattice):
            return self is other or self.universe == other.universe
        return super().__eq__(other)

    # defining __eq__ drops the inherited hash; take it back unchanged
    __hash__ = Lattice.__hash__


def powerset_of(universe: frozenset, lattice: Lattice | None, what: str) -> PowersetLattice:
    """The powerset of ``universe``, the ``what`` of an input: ``lattice`` when
    it is that lattice, a new one when it is None, else LatticeMismatch."""
    if lattice is None:
        return PowersetLattice(universe)
    if not (isinstance(lattice, PowersetLattice) and lattice.universe == universe):
        raise LatticeMismatch(f"{lattice!r} is not the powerset of the {what}")
    return lattice


class LatticeOperator:
    """Total map from lattice elements to lattice elements.

    The mapping may be a callable or an extensional table. Each image is
    checked to be in the lattice and none is memoized: a table is looked up,
    an operator with dependencies looks its conditions up in their table,
    and ``is_monotone``, the one check that revisits elements, tabulates the
    images itself.

    An operator on a powerset may instead carry its ``dependencies``: a
    function returning the ``parents`` map and the ``condition`` of
    ``aft.bitmask.Dependencies``, called the first time anything asks for
    them, so that building the operator costs nothing. Without a mapping it
    is then evaluated atom by atom through them.
    """

    def __init__(
        self,
        lattice: Lattice,
        mapping: Callable[[Element], Element] | Mapping | None = None,
        name: str = "O",
        *,
        dependencies: Callable[[], tuple[Mapping, Callable]] | None = None,
    ):
        self.lattice = lattice
        self.name = name
        self._dependencies = dependencies
        if isinstance(mapping, Mapping):
            table = dict(mapping)
            self._fn = table.__getitem__
        elif mapping is not None:
            self._fn = mapping
        elif dependencies is None:
            raise ValueError("an operator needs a mapping or its dependencies")

    @cached_property
    def dependencies(self) -> Dependencies | None:
        """The operator's ``aft.bitmask.Dependencies``, or None when it
        carries none."""
        if self._dependencies is None:
            return None
        return Dependencies(self.lattice._codec, *self._dependencies())

    @cached_property
    def _fn(self) -> Callable[[Element], Element]:
        # without a mapping, evaluated through the dependencies; a bound
        # method of those, unlike a closure over self, frees the operator
        # as soon as the last reference goes
        return self.dependencies.image

    def __call__(self, x: Element) -> Element:
        y = self._fn(x)
        if not self.lattice.has(y):
            raise ForeignElement(y)
        return y

    def __repr__(self) -> str:
        return f"<LatticeOperator {self.name} on {self.lattice!r}>"


def is_monotone(op: LatticeOperator) -> LawCheck:
    """Exhaustive monotonicity check.

    It suffices to compare along covering pairs: any x <= y decomposes into
    a chain of covers, and the pointwise comparisons compose transitively.
    A failing witness is such a covering pair. Each image is computed once,
    up front. Lattices of more than 2**SCAN_ATOM_LIMIT elements are refused
    with TooManyAtoms.
    """
    lat = op.lattice
    check_atoms(lat, SCAN_ATOM_LIMIT, "monotonicity check")
    images = {x: op(x) for x in lat.elements}
    for x, ox in images.items():
        for y in lat.up_covers(x):
            if not lat.leq(ox, images[y]):
                return LawCheck(False, (x, y))
    return LawCheck(True)


def iterate(step: Callable[[Element], Element], start: Element, bound: int, what: str) -> list:
    """The Kleene iterates of ``step`` from ``start`` up to the first one it
    leaves fixed. A strictly increasing chain never revisits a value, so a
    revisit raises DivergenceGuard (naming the iteration ``what``) at once,
    with the cycle it closes, as does taking ``bound`` steps."""
    trace = [start]
    seen = {start}
    cur = start
    for _ in range(bound):
        nxt = step(cur)
        if nxt == cur:
            return trace
        if nxt in seen:
            raise DivergenceGuard(what, bound, tuple(trace[trace.index(nxt):]))
        seen.add(nxt)
        trace.append(nxt)
        cur = nxt
    raise DivergenceGuard(what, bound)


def lfp(op: LatticeOperator) -> Element:
    """Least fixpoint of a monotone operator by Kleene iteration from bottom.

    On lattices of at most VALIDATION_LIMIT elements the operator is first
    checked for monotonicity (``is_monotone``), raising NonMonotoneOperator
    with a covering pair as witness. A monotone operator climbs a strictly
    increasing chain from bottom, so the iteration is bounded by the lattice
    height; exceeding the bound, or revisiting an element, raises
    DivergenceGuard.
    """
    lat = op.lattice
    if lat.size <= VALIDATION_LIMIT:
        check = is_monotone(op)
        if not check:
            raise NonMonotoneOperator(check.witness)
    return iterate(op, lat.bottom, lat.height + 1, f"lfp of {op.name}")[-1]
