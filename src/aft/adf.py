"""Abstract dialectical frameworks: statements with acceptance conditions.

Grammar (UTF-8, ``%`` comments, whitespace free):

    decl    := "s(" name ")." | "ac(" name "," formula ")."
    formula := "true" | "false" | name | "neg(" formula ")"
             | "and(" formula "," formula ")" | "or(" formula "," formula ")"

Every statement must carry exactly one acceptance condition, and conditions
may only mention declared statements. Conditions are kept as formula trees so
frameworks print back to their source form.

The induced pair-space operator evaluates every condition in strong Kleene
three-valued logic: the lower revision collects statements whose condition is
true, the upper revision those whose condition is not false. The usual
semantics names map onto the fixpoint families as: grounded is the
Kripke-Kleene fixpoint of the ultimate approximator (``ultimate-kk``), of
which the strong Kleene ``kk`` is an approximation that can be less precise
(on ``s(a). s(b). ac(a, or(b, neg(b))). ac(b, b).`` it leaves a unknown,
where the grounded interpretation makes it true); complete the consistent
fixpoints of the operator, two-valued models the supported fixpoints,
stable the stable models, and well-founded the well-founded fixpoint.
The classical operator declares each statement's parents, the statements in
its condition, so the ultimate approximator decides a statement on the
assignments to those alone, and grounded runs on frameworks of hundreds of
statements whose conditions mention at most SCAN_ATOM_LIMIT statements each.

Attack networks in the style of abstract argumentation are expressible
directly (no separate frontend): give each argument the conjunction of the
negations of its attackers; see ``attack_network``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping

from .approx import Approximator, ApproxPair
from .errors import MissingCondition, UndeclaredStatement
from .lattice import LatticeOperator, PowersetLattice
from .lp import LogicProgram, _Parser


class Truth(Enum):
    FALSE = 0.0
    UNKNOWN = 0.5
    TRUE = 1.0

    @property
    def label(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Const:
    value: bool

    def to_text(self) -> str:
        return "true" if self.value else "false"


@dataclass(frozen=True)
class Var:
    name: str

    def to_text(self) -> str:
        return self.name


@dataclass(frozen=True)
class Not:
    child: "Formula"

    def to_text(self) -> str:
        return f"neg({self.child.to_text()})"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"

    def to_text(self) -> str:
        return f"and({self.left.to_text()}, {self.right.to_text()})"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"

    def to_text(self) -> str:
        return f"or({self.left.to_text()}, {self.right.to_text()})"


Formula = Const | Var | Not | And | Or

_KEYWORDS = {"true", "false", "neg", "and", "or"}


def _holds(f: Formula, x: frozenset, y: frozenset) -> bool:
    """Truth-support of a formula at the pair (x, y): a variable is supported
    when in x. By De Morgan, f is falsity-supported at (x, y) exactly when it
    is not truth-supported at (y, x), so a negation swaps the bounds. On
    consistent pairs this is strong Kleene; on inconsistent ones a formula
    can be supported both ways. Both readings only grow with precision.
    """
    if isinstance(f, Var):
        return f.name in x
    if isinstance(f, Not):
        return not _holds(f.child, y, x)
    if isinstance(f, And):
        return _holds(f.left, x, y) and _holds(f.right, x, y)
    if isinstance(f, Or):
        return _holds(f.left, x, y) or _holds(f.right, x, y)
    if isinstance(f, Const):
        return f.value
    raise TypeError(f"not a formula: {f!r}")


def eval3(formula: Formula, p: ApproxPair) -> Truth:
    """Strong Kleene evaluation against a pair: a variable is true when in
    the lower bound, false when outside the upper bound, unknown otherwise.
    On exact pairs this collapses to classical two-valued evaluation."""
    if _holds(formula, p.lower, p.upper):
        return Truth.TRUE
    if not _holds(formula, p.upper, p.lower):
        return Truth.FALSE
    return Truth.UNKNOWN


def _formula_vars(f: Formula) -> set[str]:
    if isinstance(f, Var):
        return {f.name}
    if isinstance(f, Not):
        return _formula_vars(f.child)
    if isinstance(f, (And, Or)):
        return _formula_vars(f.left) | _formula_vars(f.right)
    return set()


class Adf:
    """Finite set of statements, each with one acceptance condition."""

    def __init__(self, statements: Iterable[str], conditions: Mapping[str, Formula]):
        self.statements = frozenset(statements)
        self.conditions = dict(conditions)
        for s in self.conditions:
            if s not in self.statements:
                raise UndeclaredStatement(s)
        for s in self.statements:
            if s not in self.conditions:
                raise MissingCondition(s)
        for s, cond in self.conditions.items():
            undeclared = _formula_vars(cond) - self.statements
            if undeclared:
                raise UndeclaredStatement(sorted(undeclared)[0])

    def to_text(self) -> str:
        names = sorted(self.statements)
        lines = [f"s({n})." for n in names]
        lines += [f"ac({n}, {self.conditions[n].to_text()})." for n in names]
        return "\n".join(lines)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Adf):
            return NotImplemented
        return self.statements == other.statements and self.conditions == other.conditions

    def __repr__(self) -> str:
        return f"<Adf over {sorted(self.statements)}>"


def _parse_formula(p: _Parser) -> Formula:
    _, value, _ = p.take("name", "a formula")
    if value == "true":
        return Const(True)
    if value == "false":
        return Const(False)
    if value in ("neg", "and", "or"):
        p.take("lparen", "'('")
        first = _parse_formula(p)
        if value == "neg":
            p.take("rparen", "')'")
            return Not(first)
        p.take("comma", "','")
        second = _parse_formula(p)
        p.take("rparen", "')'")
        return And(first, second) if value == "and" else Or(first, second)
    return Var(value)


def _statement_name(p: _Parser) -> str:
    _, value, offset = p.take("name", "a statement name")
    if value in _KEYWORDS:
        raise p.error(f"{value!r} is reserved and cannot name a statement", offset)
    return value


def parse_adf(text: str) -> Adf:
    """Parse framework text; declarations may come in any order."""
    p = _Parser(text)
    statements: set[str] = set()
    conditions: dict[str, Formula] = {}
    while p.peek()[0] != "eof":
        _, value, offset = p.take("name", "'s' or 'ac'")
        if value == "s":
            p.take("lparen", "'('")
            statements.add(_statement_name(p))
            p.take("rparen", "')'")
        elif value == "ac":
            p.take("lparen", "'('")
            name = _statement_name(p)
            p.take("comma", "','")
            if name in conditions:
                raise p.error(f"duplicate condition for {name!r}", offset)
            conditions[name] = _parse_formula(p)
            p.take("rparen", "')'")
        else:
            raise p.error("expected 's' or 'ac'", offset)
        p.take("dot", "'.'")
    return Adf(statements, conditions)


def adf_lattice(adf: Adf) -> PowersetLattice:
    return PowersetLattice(adf.statements)


def classical_operator(adf: Adf, lattice: PowersetLattice | None = None) -> LatticeOperator:
    """Two-valued revision: the statements whose condition holds classically,
    evaluated statement by statement on the variables of its condition."""
    lat = lattice if lattice is not None else adf_lattice(adf)

    def dependencies():
        conditions = adf.conditions
        parents = {s: frozenset(_formula_vars(cond)) for s, cond in conditions.items()}
        return parents, lambda s, z: _holds(conditions[s], z, z)

    return LatticeOperator(lat, name="adf", dependencies=dependencies)


def adf_approximator(adf: Adf, lattice: PowersetLattice | None = None) -> Approximator:
    """Revision operator of a framework, total on all pairs: the lower step
    collects statements whose condition is truth-supported, the upper step
    those whose condition is not falsity-supported."""
    lat = lattice if lattice is not None else adf_lattice(adf)
    conds = sorted(adf.conditions.items())

    def step(lower, upper):
        lo = frozenset(s for s, cond in conds if _holds(cond, lower, upper))
        hi = frozenset(s for s, cond in conds if _holds(cond, upper, lower))
        return (lo, hi)

    return Approximator(lat, step, operator=classical_operator(adf, lat), name="adf")


def _conjunction(parts: list[Formula]) -> Formula:
    if not parts:
        return Const(True)
    out = parts[0]
    for part in parts[1:]:
        out = And(out, part)
    return out


def _disjunction(parts: list[Formula]) -> Formula:
    if not parts:
        return Const(False)
    out = parts[0]
    for part in parts[1:]:
        out = Or(out, part)
    return out


def program_to_adf(program: LogicProgram) -> Adf:
    """Encode a normal program: one statement per atom, whose condition is
    the disjunction over its rules of the conjunction of body literals.
    An atom without rules gets the condition false."""
    conditions = {}
    for atom in program.atoms:
        bodies = [
            _conjunction(
                [Var(b) for b in sorted(r.pos)] + [Not(Var(b)) for b in sorted(r.neg)]
            )
            for r in program.rules
            if r.head == atom
        ]
        conditions[atom] = _disjunction(bodies)
    return Adf(program.atoms, conditions)


def attack_network(arguments: Iterable[str], attacks: Iterable[tuple[str, str]]) -> Adf:
    """Encode an attack graph: each argument's condition is the conjunction
    of the negations of its attackers; unattacked arguments get true."""
    args = frozenset(arguments)
    attackers: dict[str, list[str]] = {a: [] for a in args}
    for source, target in attacks:
        attackers[target].append(source)
    conditions = {
        a: _conjunction([Not(Var(b)) for b in sorted(attackers[a])]) for a in args
    }
    return Adf(args, conditions)
