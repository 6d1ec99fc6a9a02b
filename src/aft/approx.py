"""Approximating pairs over a lattice, the precision order, and operators on them.

A pair (x, y) stands for the interval of elements between x and y: it
approximates every z with x <= z <= y. Pairs are compared by precision:
(x, y) is below (u, v) when x <= u and v <= y, so more precise pairs denote
smaller intervals. An approximator is a precision-monotone map on pairs; it
stands in for a (possibly non-monotone) operator on the base lattice.

Inconsistent pairs (lower not below upper) are representable and most
operators here are evaluated on them by the same formulas; only the
``ultimate`` construction rejects them, since it has no meaning on an empty
interval.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass

from .errors import (
    DoesNotApproximateO,
    InconsistentPair,
    LatticeMismatch,
    NotPrecisionMonotone,
    TooManyAtoms,
)
from .lattice import (
    SCAN_ATOM_LIMIT,
    Element,
    Lattice,
    LatticeOperator,
    LawCheck,
    check_atoms,
    least_witness,
)

RawPair = tuple[Element, Element]

# The exhaustive law checks (precision-monotonicity, symmetry, fixpoints_of)
# enumerate and tabulate all 4**|U| pairs, the scan limit's 2**16 items at
# half as many atoms: `aft check lp` on a negation chain takes 1.4-2.0 s and
# 51 MB at 8 atoms and 6.1-6.6 s and 173 MB at 9. They refuse larger lattices.
LAW_ATOM_LIMIT = SCAN_ATOM_LIMIT // 2


@dataclass(frozen=True, eq=False)
class ApproxPair:
    """An element of the pair space over a fixed lattice."""

    lattice: Lattice
    lower: Element
    upper: Element

    def __post_init__(self):
        self.lattice.check_element(self.lower)
        self.lattice.check_element(self.upper)

    @property
    def consistent(self) -> bool:
        return self.lattice.leq(self.lower, self.upper)

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    def raw(self) -> RawPair:
        return (self.lower, self.upper)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ApproxPair):
            return NotImplemented
        return (
            self.lower == other.lower
            and self.upper == other.upper
            and (self.lattice is other.lattice or self.lattice == other.lattice)
        )

    def __hash__(self) -> int:
        return hash((self.lower, self.upper))

    def __repr__(self) -> str:
        return f"({self.lower!r}, {self.upper!r})"


def _known_pair(lattice: Lattice, lower: Element, upper: Element) -> ApproxPair:
    """The pair (lower, upper) of elements known to be in ``lattice``:
    results of ``Approximator.apply`` or of the revision hook, whose values
    were checked where they entered (see ``Approximator``), or its bottom
    and top. It is built without checking them again."""
    pair = object.__new__(ApproxPair)
    pair.__dict__.update(lattice=lattice, lower=lower, upper=upper)
    return pair


def _same_lattice(p: ApproxPair, q: ApproxPair) -> Lattice:
    if p.lattice is q.lattice or p.lattice == q.lattice:
        return p.lattice
    raise LatticeMismatch(f"pairs {p!r} and {q!r} live over different lattices")


def precision_leq(p: ApproxPair, q: ApproxPair) -> bool:
    """True when q is at least as precise as p."""
    lat = _same_lattice(p, q)
    return lat.leq(p.lower, q.lower) and lat.leq(q.upper, p.upper)


def approximates(p: ApproxPair, z: Element) -> bool:
    """True when z lies in the interval denoted by p."""
    lat = p.lattice
    lat.check_element(z)
    return lat.leq(p.lower, z) and lat.leq(z, p.upper)


class Approximator:
    """A map on approximating pairs over a fixed lattice.

    ``mapping`` takes and returns raw (lower, upper) tuples, or is an
    extensional table of them, evaluated on every application. When
    ``consistent_only`` is set the operator refuses inconsistent arguments.
    The approximated base operator, when known, is attached as ``operator``;
    it must be over the same lattice, or LatticeMismatch is raised.

    ``revision``, when given, maps y to the least fixpoint of
    z -> A(z, y).lower, which the stable-operator routines then call instead
    of iterating ``apply`` from bottom; both frontends give one. Only a
    total, symmetric approximator may carry it: symmetry makes
    z -> A(x, z).upper the same function as z -> A(z, x).lower, so
    ``revision(x)`` is also the upper revision at x.

    Each value is checked where it enters, never per application: a table
    when the approximator is built, and a given callable's outputs and
    hook's results by a check wrapped around them, which raises
    ForeignElement on every call that returns a foreign value. The built-in
    constructions (``fitting``, ``adf_approximator``, ``ultimate``,
    ``dual``) return elements of the lattice and are stored unwrapped
    (``_built_in``), so ``apply`` checks only consistency. ``fitting`` also
    carries a Kripke-Kleene hook there, one linear propagation over its
    rules. ``fixpoints`` keeps on it the last four revisions and, once
    computed, the Kripke-Kleene and well-founded fixpoints, which every
    semantics read off it shares: the walks with their traces, and the
    hook's Kripke-Kleene fixpoint apart from the walk.
    """

    def __init__(
        self,
        lattice: Lattice,
        mapping: Callable[[Element, Element], RawPair] | Mapping[RawPair, RawPair],
        *,
        operator: LatticeOperator | None = None,
        name: str = "A",
        consistent_only: bool = False,
        revision: Callable[[Element], Element] | None = None,
    ):
        if revision is not None and consistent_only:
            raise ValueError("a revision hook needs a total approximator")
        if operator is not None and operator.lattice != lattice:
            raise LatticeMismatch(f"operator {operator.name} is not over {lattice!r}")
        self.lattice = lattice
        self.operator = operator
        self.name = name
        self.consistent_only = consistent_only
        check = lattice.check_element
        if isinstance(mapping, Mapping):
            table = {key: (check(lo), check(hi)) for key, (lo, hi) in mapping.items()}
            self._fn = lambda lo, hi: table[(lo, hi)]
        else:

            def checked(lower: Element, upper: Element) -> RawPair:
                out_lo, out_hi = mapping(lower, upper)
                return (check(out_lo), check(out_hi))

            self._fn = checked
        self.revision = None if revision is None else lambda at: check(revision(at))
        # () -> the Kripke-Kleene fixpoint as a raw pair, set by ``_built_in``
        self._kripke_kleene: Callable[[], RawPair] | None = None
        # bound, and side without a hook -> one of the last four revisions,
        # filled by ``fixpoints``
        self._revisions: dict[object, Element | None] = {}
        # construction name, or name and start pair -> (fixpoint, trace),
        # and "Kripke-Kleene fixpoint" -> the hook's pair, filled by
        # ``fixpoints``
        self._fixpoints: dict[object, tuple[ApproxPair, list[ApproxPair]] | ApproxPair] = {}

    def apply(self, lower: Element, upper: Element) -> RawPair:
        if self.consistent_only and not self.lattice.leq(lower, upper):
            raise InconsistentPair((lower, upper))
        return self._fn(lower, upper)

    def __call__(self, p: ApproxPair) -> ApproxPair:
        if not (p.lattice is self.lattice or p.lattice == self.lattice):
            raise LatticeMismatch(f"pair {p!r} is not over this approximator's lattice")
        return _known_pair(self.lattice, *self.apply(p.lower, p.upper))

    def domain(self) -> Iterator[RawPair]:
        """All pairs this operator is defined on, as raw tuples.

        Lattices of more than 2**LAW_ATOM_LIMIT elements are refused with
        TooManyAtoms when this is called, before anything is enumerated.
        """
        check_atoms(self.lattice, LAW_ATOM_LIMIT, "law check")
        if self.consistent_only:
            return self.lattice.consistent_pairs()
        return itertools.product(self.lattice.elements, repeat=2)

    def _domain_cover_successors(self, lower: Element, upper: Element) -> Iterator[RawPair]:
        """Precision-order covers of (lower, upper) that stay in the domain."""
        lat = self.lattice
        for lo in lat.up_covers(lower):
            if not self.consistent_only or lat.leq(lo, upper):
                yield (lo, upper)
        for hi in lat.down_covers(upper):
            if not self.consistent_only or lat.leq(lower, hi):
                yield (lower, hi)

    def __repr__(self) -> str:
        return f"<Approximator {self.name} on {self.lattice!r}>"


def _built_in(
    lattice: Lattice, mapping: Callable, *, kripke_kleene: Callable | None = None, **kwargs
) -> Approximator:
    """An approximator whose mapping and revision hook, built-in ones that
    return elements of ``lattice``, are stored as given, not wrapped in a
    check. ``kripke_kleene``, when given, returns the approximator's
    Kripke-Kleene fixpoint as a raw pair, which ``fixpoints.kripke_kleene``
    then reads instead of iterating when no trace is wanted."""
    a = Approximator(lattice, mapping, **kwargs)
    a._fn, a.revision = mapping, kwargs.get("revision")
    a._kripke_kleene = kripke_kleene
    return a


def is_precision_monotone(a: Approximator) -> LawCheck:
    """Exhaustive precision-monotonicity check.

    Comparing along precision covers suffices: any comparison decomposes into
    a chain of covers and the pointwise comparisons compose transitively. A
    failing witness is the least such covering pair of pairs
    (``least_witness``). Each image is computed once, up front.
    """
    lat = a.lattice
    images = {key: a.apply(*key) for key in a.domain()}
    failures = []
    for (lo, hi), (out_lo, out_hi) in images.items():
        for cover in a._domain_cover_successors(lo, hi):
            cover_lo, cover_hi = images[cover]
            if not (lat.leq(out_lo, cover_lo) and lat.leq(cover_hi, out_hi)):
                failures.append(((lo, hi), cover))
    return least_witness(lat, failures, lambda w: (*w[0], *w[1]))


def brackets_operator(a: Approximator) -> LawCheck:
    """Weak bracketing: on every exact pair the approximator's output
    interval contains the value of its attached operator. Lattices of more
    than 2**SCAN_ATOM_LIMIT elements are refused with TooManyAtoms."""
    op = a.operator
    if op is None:
        raise ValueError("no base operator attached")
    lat = a.lattice
    check_atoms(lat, SCAN_ATOM_LIMIT, "bracketing check")
    failures = []
    for x in lat.elements:
        out_lo, out_hi = a.apply(x, x)
        ox = op(x)
        if not (lat.leq(out_lo, ox) and lat.leq(ox, out_hi)):
            failures.append((x,))
    return least_witness(lat, failures)


def verify_approximator(a: Approximator) -> Approximator:
    """Exhaustively validate an approximator, returning it on success.

    Checks precision-monotonicity and, when a base operator is attached,
    that every exact pair brackets the operator's value. Raises
    NotPrecisionMonotone or DoesNotApproximateO with a witness otherwise.
    """
    mono = is_precision_monotone(a)
    if not mono:
        raise NotPrecisionMonotone(mono.witness)
    if a.operator is not None:
        bracket = brackets_operator(a)
        if not bracket:
            raise DoesNotApproximateO(bracket.witness[0])
    return a


def is_exact_approximator(a: Approximator) -> LawCheck:
    """Stricter bracketing: on every exact pair the approximator returns
    exactly its attached operator's value, doubled; refused like
    ``brackets_operator`` above 2**SCAN_ATOM_LIMIT elements."""
    op = a.operator
    if op is None:
        raise ValueError("no base operator attached")
    lat = a.lattice
    check_atoms(lat, SCAN_ATOM_LIMIT, "exactness check")
    failures = []
    for x in lat.elements:
        ox = op(x)
        if a.apply(x, x) != (ox, ox):
            failures.append((x,))
    return least_witness(lat, failures)


def ultimate(op: LatticeOperator) -> Approximator:
    """The most precise approximator of an operator, over its lattice.

    On a consistent pair it meets and joins the operator's image over the
    denoted interval. Inconsistent pairs denote no interval and are rejected.

    An operator that carries its dependencies is met and joined atom by atom
    (``Dependencies.bounds``): p's membership depends only on p's parents, so
    a step costs at most 2**k condition evaluations for an atom with k
    parents left open. It is refused with TooManyAtoms, the atom as witness,
    when some atom has more than SCAN_ATOM_LIMIT parents. Any other operator
    is evaluated on every element of the interval, and lattices of more than
    2**SCAN_ATOM_LIMIT elements are refused, since one step from
    (bottom, top) visits every element.
    """
    lattice, parts = op.lattice, op._dependency_parts
    if parts is not None:
        # refused from the parents alone, before the dependencies' codec
        # and rows, quadratic in the atoms, are built
        parents = parts[0]
        if max(map(len, parents.values()), default=0) > SCAN_ATOM_LIMIT:
            widest = max(sorted(parents), key=lambda p: len(parents[p]))
            raise TooManyAtoms(len(parents[widest]), SCAN_ATOM_LIMIT, "ultimate", widest)
        step = op.dependencies.bounds
    else:
        check_atoms(lattice, SCAN_ATOM_LIMIT, "ultimate")

        def step(lower: Element, upper: Element) -> RawPair:
            images = [op(z) for z in lattice.interval(lower, upper)]
            return (functools.reduce(lattice.meet, images), functools.reduce(lattice.join, images))

    return _built_in(lattice, step, operator=op, name=f"ultimate({op.name})", consistent_only=True)


def dual(a: Approximator) -> Approximator:
    """The approximator induced by inverting the truth order: swap the
    argument pair, apply, swap the result.

    An involution: dual(dual(a)) agrees with a pointwise. For operators that
    reject inconsistent pairs the dual is only usable on exact pairs.
    """

    def step(lower: Element, upper: Element) -> RawPair:
        out_lo, out_hi = a.apply(upper, lower)
        return (out_hi, out_lo)

    return _built_in(
        a.lattice,
        step,
        operator=a.operator,
        name=f"dual({a.name})",
        consistent_only=a.consistent_only,
    )


def is_symmetric(a: Approximator) -> LawCheck:
    """Exhaustive self-duality check: a(x, y) must equal a(y, x) swapped.

    Equivalent to pointwise equality of the operator with its dual. Pairs
    whose swap falls outside the domain are skipped, so for a
    consistency-restricted operator only exact pairs are examined, each once.
    """
    lat = a.lattice
    pairs = (p for p in a.domain() if not a.consistent_only or lat.leq(p[1], p[0]))
    images = {p: a.apply(*p) for p in pairs}
    failures = []
    for (lo, hi), (out_lo, out_hi) in images.items():
        if images[(hi, lo)] != (out_hi, out_lo):
            failures.append(((lo, hi),))
    return least_witness(lat, failures, lambda w: w[0])
