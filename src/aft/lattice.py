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
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Hashable, Iterable, Iterator, Mapping

from .bitmask import Codec, Dependencies
from .errors import (
    DivergenceGuard,
    ForeignElement,
    NonMonotoneOperator,
    NotALattice,
    NotAPartialOrder,
    TooManyAtoms,
)

Element = Hashable

# Exhaustive monotonicity re-checks are quadratic in the lattice; above this
# size they are skipped unless explicitly requested.
VALIDATION_LIMIT = 4096

# The partial stable scan visits each element between the well-founded bounds
# (0.6 s at 16 unknown atoms). The supported and stable searches branch on
# the atoms the Kripke-Kleene or well-founded pair leaves unknown;
# propagation usually prunes most branches, but where it narrows nothing they
# evaluate a whole binary tree (3.5 s for 2**16 supported models). The
# ultimate approximator of an operator that carries its dependencies decides
# each atom on the assignments to its parents a pair leaves open, up to
# 2**k condition evaluations for k parents; of any other operator it
# evaluates every element of an interval (2 s at 16 atoms). So the scan and
# searches refuse more than this many unknown atoms, ultimate an atom with
# more parents than this, or else a universe of more atoms.
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
    ``leq``, ``lub``, ``glb``, ``interval``, ``up_covers`` and
    ``down_covers``. Everything else is derived here from those, once;
    ``atoms_between`` and ``split`` are derived by enumerating an interval,
    and ``hull`` by walking covers, which a kind may replace with something
    cheaper.
    """

    def check_element(self, x: Element) -> Element:
        if not self.has(x):
            raise ForeignElement(x)
        return x

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
        """
        s = frozenset(self.check_element(x) for x in members)
        if not s:
            return frozenset()
        join, meet = self.lub(s), self.glb(s)
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
        it = iter(elems)
        first = next(it)
        bottom = top = first
        for x in it:
            bottom = self._meet[(bottom, x)]
            top = self._join[(top, x)]
        self.bottom = bottom
        self.top = top

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

    def lub(self, xs: Iterable[Element]) -> Element:
        """Least upper bound; the empty join is the bottom element."""
        out = None
        for x in xs:
            self.check_element(x)
            out = x if out is None else self._join[(out, x)]
        return self.bottom if out is None else out

    def glb(self, xs: Iterable[Element]) -> Element:
        """Greatest lower bound; the empty meet is the top element."""
        out = None
        for x in xs:
            self.check_element(x)
            out = x if out is None else self._meet[(out, x)]
        return self.top if out is None else out

    def interval(self, x: Element, y: Element) -> frozenset:
        """All elements z with x <= z <= y (empty when x is not below y)."""
        self.check_element(x)
        self.check_element(y)
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
    exhaustive law checks). The hull and the per-atom evaluation of
    operators work on int bitmasks of the elements inside ``aft.bitmask``.
    """

    def __init__(self, universe: Iterable):
        self.universe = frozenset(universe)
        self.bottom = frozenset()
        self.top = self.universe

    @cached_property
    def _all_subsets(self) -> frozenset:
        members = [frozenset()]
        for a in sorted(self.universe):
            members += [m | {a} for m in members]
        return frozenset(members)

    @property
    def elements(self) -> frozenset:
        return self._all_subsets

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

    def lub(self, xs) -> frozenset:
        out = frozenset()
        for x in xs:
            self.check_element(x)
            out |= x
        return out

    def glb(self, xs) -> frozenset:
        out = None
        for x in xs:
            self.check_element(x)
            out = x if out is None else out & x
        return self.universe if out is None else out

    def interval(self, x, y) -> frozenset:
        self.check_element(x)
        self.check_element(y)
        if not x <= y:
            return frozenset()
        members = [x]
        for a in sorted(y - x):
            members += [m | {a} for m in members]
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

    def hull(self, members) -> frozenset:
        """Smallest convex superset, closed over the members' bitmasks
        (``Codec.hull``)."""
        return self._codec.hull(self.check_element(x) for x in members)

    @cached_property
    def _codec(self) -> Codec:
        return Codec(self.universe)

    def __eq__(self, other) -> bool:
        if isinstance(other, PowersetLattice):
            return self.universe == other.universe
        return super().__eq__(other)

    # defining __eq__ drops the inherited hash; take it back unchanged
    __hash__ = Lattice.__hash__


class LatticeOperator:
    """Total map from lattice elements to lattice elements.

    The mapping may be a callable or an extensional table. Applications are
    memoized; exhaustive law checks revisit elements many times.

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
        self._memo: dict[Element, Element] = {}

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
        # and its memo as soon as the last reference goes
        return self.dependencies.image

    def __call__(self, x: Element) -> Element:
        memo = self._memo
        if x in memo:
            return memo[x]
        y = self._fn(x)
        if not self.lattice.has(y):
            raise ForeignElement(y)
        memo[x] = y
        return y

    def __repr__(self) -> str:
        return f"<LatticeOperator {self.name} on {self.lattice!r}>"


def is_monotone(op: LatticeOperator) -> LawCheck:
    """Exhaustive monotonicity check.

    It suffices to compare along covering pairs: any x <= y decomposes into
    a chain of covers, and the pointwise comparisons compose transitively.
    A failing witness is such a covering pair.
    """
    lat = op.lattice
    for x in lat.elements:
        ox = op(x)
        for y in lat.up_covers(x):
            if not lat.leq(ox, op(y)):
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


def lfp(op: LatticeOperator, *, validate: bool | None = None) -> Element:
    """Least fixpoint of a monotone operator by Kleene iteration from bottom.

    ``validate`` defaults to an exhaustive monotonicity check on lattices of
    at most VALIDATION_LIMIT elements. A monotone operator climbs a strictly
    increasing chain from bottom, so the iteration is bounded by the lattice
    height; exceeding the bound, or revisiting an element, means the operator
    is broken.
    """
    lat = op.lattice
    if validate is None:
        validate = lat.size <= VALIDATION_LIMIT
    if validate:
        check = is_monotone(op)
        if not check:
            raise NonMonotoneOperator(check.witness)
    return iterate(op, lat.bottom, lat.height + 1, f"lfp of {op.name}")[-1]
