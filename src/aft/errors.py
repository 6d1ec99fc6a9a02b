"""Exception types shared across the engine.

Every law-violation error carries the witness that falsifies the law, so
callers (and the CLI) can show a concrete counterexample instead of a bare
verdict.
"""


class AftError(Exception):
    """Base class for all engine errors."""


class NotAPartialOrder(AftError):
    """The candidate relation violates a partial-order law."""

    def __init__(self, law: str, witness):
        self.law = law
        self.witness = witness
        super().__init__(f"not a partial order: {law} fails at {witness!r}")


class NotALattice(AftError):
    """The candidate order is a poset but misses a bound."""

    def __init__(self, missing: str, witness=None):
        self.missing = missing
        self.witness = witness
        super().__init__(f"not a lattice: no {missing} for {witness!r}")


class ForeignElement(AftError):
    """An element does not belong to the lattice it is used with."""

    def __init__(self, element):
        self.element = element
        super().__init__(f"element {element!r} is not in the lattice")


class LatticeMismatch(AftError):
    """Two objects built over different lattices were combined, or a
    frontend was given a lattice other than the powerset of its input's
    atoms."""


class NonMonotoneOperator(AftError):
    """A lattice operator violated monotonicity where it was required."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"operator is not monotone: witness {witness!r}")


class DivergenceGuard(AftError):
    """A fixpoint iteration (``aft.lattice.iterate``) exceeded its
    theoretical step bound, or revisited a value before reaching it;
    ``cycle`` then holds the values (elements, pairs or convex sets) from the
    revisited one on, each mapped to the next and the last back to the
    first."""

    def __init__(self, what: str, bound: int, cycle: tuple | None = None):
        self.what = what
        self.bound = bound
        self.cycle = cycle
        super().__init__(f"{what} did not stabilize within {bound} steps")


class NotPrecisionMonotone(AftError):
    """A candidate approximator is not monotone in the precision order."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"not precision-monotone: witness {witness!r}")


class DoesNotApproximateO(AftError):
    """On some exact pair the candidate does not bracket its operator."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"does not approximate the operator at {witness!r}")


class InconsistentPair(AftError):
    """A pair with lower not below upper was used where consistency is required."""

    def __init__(self, pair):
        self.pair = pair
        super().__init__(f"pair {pair!r} is inconsistent")


class StableRevisionUndefined(AftError):
    """The stable revision of a consistency-restricted approximator escaped
    the consistent region, so the revised pair is undefined."""

    def __init__(self, pair, detail: str):
        self.pair = pair
        self.detail = detail
        super().__init__(f"stable revision undefined at {pair!r}: {detail}")


class ParseError(AftError):
    """Syntax error in an input file, with 1-based position."""

    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"{message} (line {line}, column {column})")


class UndeclaredStatement(AftError):
    """A dialectical framework refers to a statement never declared."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"undeclared statement: {name}")


class MissingCondition(AftError):
    """A declared statement has no acceptance condition."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"statement {name} has no acceptance condition")


class ForeignAtom(AftError):
    """An atom set refers to atoms outside the program's universe."""

    def __init__(self, atoms):
        self.atoms = frozenset(atoms)
        super().__init__(f"atoms not in the program: {sorted(self.atoms)}")


class TooManyAtoms(AftError):
    """An exponential construction refuses a universe it cannot enumerate;
    ``what`` names the construction, and ``witness``, when set, the atom
    whose parents it would have to enumerate."""

    counted = "atoms"

    def __init__(self, count: int, limit: int, what: str, witness=None):
        self.count = count
        self.limit = limit
        self.what = what
        self.witness = witness
        super().__init__(f"{count} {self.counted} exceed the {what} limit of {limit}")


class TooManyElements(TooManyAtoms):
    """A construction over the subsets of a lattice's elements refuses a
    lattice with more elements than it can enumerate the subsets of."""

    counted = "elements"
