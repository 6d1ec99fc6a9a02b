"""Abstract dialectical frameworks: statements with acceptance conditions.

Grammar (UTF-8, ``%`` comments, whitespace free):

    decl    := "s(" name ")." | "ac(" name "," formula ")."
    formula := "true" | "false" | name | "neg(" formula ")"
             | "and(" formula "," formula ")" | "or(" formula "," formula ")"

Every statement must carry exactly one acceptance condition, and conditions
may only mention declared statements. Conditions are kept as formula trees so
frameworks print back to their source form.

Well-formed text is read from the list of its words and punctuation, split
by regular expressions; any other text goes to a token parser, which
reports the first error's position.

The induced pair-space operator evaluates every condition in strong Kleene
three-valued logic: the lower step collects statements whose condition is
true, the upper step those whose condition is not false. Each framework's
conditions are compiled once, into one closure each, which the operator,
its approximator and their revision hook share. The usual
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

The upper step is the lower one with the bounds swapped, and like the
program frontend's, the operator carries the lower step's least fixpoint,
iterated from bottom, as its ``revision`` hook, which ``Approximator``
caches.

Attack networks in the style of abstract argumentation are expressible
directly (no separate frontend): give each argument the conjunction of the
negations of its attackers; see ``attack_network``.
"""

from __future__ import annotations

import functools
import re
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass
from enum import Enum

from .approx import Approximator, ApproxPair
from .errors import MissingCondition, UndeclaredStatement
from .lattice import LatticeOperator, PowersetLattice, iterate, powerset_of
from .lp import _COMMENTS, LogicProgram, _Parser


class Truth(Enum):
    FALSE = 0.0
    UNKNOWN = 0.5
    TRUE = 1.0


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


Holds = Callable[[frozenset, frozenset], bool]


def _compile(f: Formula) -> Holds:
    """Truth-support of a formula at the pair (x, y), as a closure: a
    variable is supported when in x. By De Morgan, f is falsity-supported at
    (x, y) exactly when it is not truth-supported at (y, x), so a negation
    swaps the bounds. On consistent pairs this is strong Kleene; on
    inconsistent ones a formula can be supported both ways. Both readings
    only grow with precision.
    """
    if isinstance(f, Var):
        name = f.name
        return lambda x, y: name in x
    if isinstance(f, Not):
        if isinstance(f.child, Var):
            name = f.child.name
            return lambda x, y: name not in y
        child = _compile(f.child)
        return lambda x, y: not child(y, x)
    if isinstance(f, (And, Or)):
        left, right = _compile(f.left), _compile(f.right)
        if isinstance(f, And):
            return lambda x, y: left(x, y) and right(x, y)
        return lambda x, y: left(x, y) or right(x, y)
    if isinstance(f, Const):
        value = f.value
        return lambda x, y: value
    raise TypeError(f"not a formula: {f!r}")


def eval3(formula: Formula, p: ApproxPair) -> Truth:
    """Strong Kleene evaluation against a pair: a variable is true when in
    the lower bound, false when outside the upper bound, unknown otherwise.
    On exact pairs this collapses to classical two-valued evaluation."""
    holds = _compile(formula)
    if holds(p.lower, p.upper):
        return Truth.TRUE
    if not holds(p.upper, p.lower):
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

    @functools.cached_property
    def _compiled(self) -> dict[str, Holds]:
        """Each statement's condition, compiled once per framework."""
        return {s: _compile(cond) for s, cond in self.conditions.items()}

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


# Well-formed text after its comments are blanked: only whitespace, name
# characters and punctuation, which split into words and punctuation marks.
# A single character class cannot backtrack on text that fails; a pattern
# that alternates names with whitespace could, trying every split of a word.
_ADF_CHARS = re.compile(r"[ \t\r\n(),.a-zA-Z0-9_]*")
_ADF_TOKENS = re.compile(r"[a-zA-Z0-9_]+|[(),.]")


class _Malformed(Exception):
    """The token list does not spell a well-formed framework."""


def _read_formula(tokens: list[str], i: int) -> tuple[Formula, int]:
    """The formula that starts at tokens[i], and the index after it."""
    word = tokens[i]
    if word in ("neg", "and", "or"):
        if tokens[i + 1] != "(":
            raise _Malformed
        first, i = _read_formula(tokens, i + 2)
        if word == "neg":
            formula = Not(first)
        else:
            if tokens[i] != ",":
                raise _Malformed
            second, i = _read_formula(tokens, i + 1)
            formula = And(first, second) if word == "and" else Or(first, second)
        if tokens[i] != ")":
            raise _Malformed
        return formula, i + 1
    if word in ("true", "false"):
        return Const(word == "true"), i + 1
    if not "a" <= word[0] <= "z":
        raise _Malformed
    return Var(word), i + 1


def _read_adf(tokens: list[str]) -> Adf:
    """The framework that the words and punctuation of a text spell, read as
    ``_parse_adf_tokens`` reads its tokens. Where that would report an
    error, this raises _Malformed, or IndexError if the tokens end early."""
    statements: set[str] = set()
    conditions: dict[str, Formula] = {}
    i = 0
    while i < len(tokens):
        kind, name = tokens[i], tokens[i + 2]
        if tokens[i + 1] != "(" or not "a" <= name[0] <= "z" or name in _KEYWORDS:
            raise _Malformed
        if kind == "s" and tokens[i + 3] == ")":
            statements.add(name)
            i += 4
        elif kind == "ac" and tokens[i + 3] == "," and name not in conditions:
            conditions[name], i = _read_formula(tokens, i + 4)
            if tokens[i] != ")":
                raise _Malformed
            i += 1
        else:
            raise _Malformed
        if tokens[i] != ".":
            raise _Malformed
        i += 1
    return Adf(statements, conditions)


def parse_adf(text: str) -> Adf:
    """Parse framework text; declarations may come in any order. Raises
    ParseError with a 1-based position.

    Well-formed text is read without the tokenizer: comments blanked, its
    characters checked with one match, then split into words and
    punctuation with ``findall`` and read from that list. Any other text
    goes to the token parser, which alone reports errors.
    """
    source = _COMMENTS.sub(" ", text) if "%" in text else text
    if _ADF_CHARS.fullmatch(source):
        try:
            return _read_adf(_ADF_TOKENS.findall(source))
        except (_Malformed, IndexError, RecursionError):
            pass
    return _parse_adf_tokens(text)


def _parse_adf_tokens(text: str) -> Adf:
    """``parse_adf`` token by token, with the first error's position."""
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
    evaluated statement by statement on the variables of its condition. A
    ``lattice`` other than the powerset of the statements raises
    LatticeMismatch."""
    lat = powerset_of(adf.statements, lattice, "framework's statements")

    def dependencies():
        parents = {s: frozenset(_formula_vars(cond)) for s, cond in adf.conditions.items()}
        compiled = adf._compiled
        return parents, lambda s, z: compiled[s](z, z)

    return LatticeOperator(lat, name="adf", dependencies=dependencies)


def adf_approximator(adf: Adf, lattice: PowersetLattice | None = None) -> Approximator:
    """Revision operator of a framework, total on all pairs: the lower step
    collects statements whose condition is truth-supported, the upper step
    those whose condition is not falsity-supported."""
    op = classical_operator(adf, lattice)
    lat = op.lattice
    conds = sorted(adf._compiled.items())

    def lower(x, y):
        return frozenset(s for s, holds in conds if holds(x, y))

    def revision(y):
        return iterate(lambda z: lower(z, y), lat.bottom, lat.height + 1, "revision of adf")[-1]

    return Approximator(
        lat, lambda x, y: (lower(x, y), lower(y, x)), operator=op, name="adf", revision=revision
    )


def _fold(connective: type, parts: list[Formula]) -> Formula:
    """The parts joined by ``connective``, And or Or, nested to the left;
    with no parts, its unit: true for And, false for Or."""
    return functools.reduce(connective, parts) if parts else Const(connective is And)


def program_to_adf(program: LogicProgram) -> Adf:
    """Encode a normal program: one statement per atom, whose condition is
    the disjunction over its rules, in program order, of the conjunction of
    body literals. An atom without rules gets the condition false."""
    bodies = {atom: [] for atom in program.atoms}
    for r in program.rules:
        literals = [Var(b) for b in sorted(r.pos)] + [Not(Var(b)) for b in sorted(r.neg)]
        bodies[r.head].append(_fold(And, literals))
    return Adf(program.atoms, {atom: _fold(Or, parts) for atom, parts in bodies.items()})


def attack_network(arguments: Iterable[str], attacks: Iterable[tuple[str, str]]) -> Adf:
    """Encode an attack graph: each argument's condition is the conjunction
    of the negations of its attackers; unattacked arguments get true."""
    args = frozenset(arguments)
    attackers: dict[str, list[str]] = {a: [] for a in args}
    for source, target in attacks:
        attackers[target].append(source)
    conditions = {
        a: _fold(And, [Not(Var(b)) for b in sorted(attackers[a])]) for a in args
    }
    return Adf(args, conditions)
