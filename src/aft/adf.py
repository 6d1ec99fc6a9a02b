"""Abstract dialectical frameworks: statements with acceptance conditions.

Grammar (UTF-8, ``%`` comments, whitespace free):

    decl    := "s(" name ")." | "ac(" name "," formula ")."
    formula := "true" | "false" | name | "neg(" formula ")"
             | "and(" formula "," formula ")" | "or(" formula "," formula ")"

Every statement must carry exactly one acceptance condition, and conditions
may only mention declared statements. Conditions are kept as formula trees so
frameworks print back to their source form.

Text is parsed by one reader, built as the program frontend's is: the
text is split once into words and punctuation marks, and that list is
read front to back, each formula with an explicit stack; only when a word
is wrong is the text tokenized, to report the error's position.
Conditions nested more than FORMULA_DEPTH_LIMIT connectives deep are
refused: by the reader with a ParseError, and by ``Adf`` itself, for a
condition built in code, with a ValueError.

The induced pair-space operator evaluates every condition in strong Kleene
three-valued logic: the lower step collects statements whose condition is
true (truth-supported), the upper step those whose condition is not false
(not falsity-supported); a condition's value at a pair is read off those
two bits, with no evaluator of its own. Each framework's
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
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass

from .approx import Approximator
from .errors import MissingCondition, UndeclaredStatement
from .lattice import LatticeOperator, PowersetLattice, iterate, powerset_of
from .lp import LogicProgram, _syntax_error, _words


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
_CONNECTIVES = {"neg": Not, "and": And, "or": Or}

# The deepest nesting of connectives a condition may have. The walks
# over a formula that recurse, converting it to text, comparing, hashing,
# compiling and evaluating it, take up to three Python frames per level:
# comparison passes the default limit of 1,000 frames at 331 levels, and
# 256 leave room for the frames of its callers.
FORMULA_DEPTH_LIMIT = 256


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


def _formula_vars(statement: str, f: Formula) -> frozenset[str]:
    """The statements that ``statement``'s condition ``f`` mentions, read
    one level of connectives at a time. A condition nested more than
    FORMULA_DEPTH_LIMIT connectives deep is refused with a ValueError."""
    names = []
    level = [f]
    depth = 0
    while level:
        below = []
        for f in level:
            kind = type(f)
            if kind is Var:
                names.append(f.name)
            elif kind is Not:
                below.append(f.child)
            elif kind is And or kind is Or:
                below.append(f.left)
                below.append(f.right)
        depth += 1
        if below and depth > FORMULA_DEPTH_LIMIT:
            raise ValueError(
                f"condition of {statement!r} nested more than {FORMULA_DEPTH_LIMIT} deep"
            )
        level = below
    return frozenset(names)


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
        # each statement's parents: the statements its condition mentions
        self.parents = {s: _formula_vars(s, cond) for s, cond in self.conditions.items()}
        for parents in self.parents.values():
            if not parents <= self.statements:
                raise UndeclaredStatement(min(parents - self.statements))

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


def parse_adf(text: str) -> Adf:
    """Parse framework text; declarations may come in any order. Raises
    ParseError with a 1-based position.

    The text is split once into words and punctuation marks, which are read
    front to back, each formula with a stack of the connectives still open;
    only when a word is wrong is the text tokenized, to place the error. A
    formula nested more than FORMULA_DEPTH_LIMIT connectives deep is
    refused at the first connective past the limit.
    """
    words = _words(text)
    statements: set[str] = set()
    conditions: dict[str, Formula] = {}
    end = len(words) - 1
    i = 0
    while i < end:
        kind = words[i]
        if kind != "s" and kind != "ac":
            raise _syntax_error(text, i, "expected 's' or 'ac'")
        if words[i + 1] != "(":
            raise _syntax_error(text, i + 1, "expected '('")
        name = words[i + 2]
        if name < "a":
            raise _syntax_error(text, i + 2, "expected a statement name")
        if name in _KEYWORDS:
            raise _syntax_error(text, i + 2, f"{name!r} is reserved and cannot name a statement")
        if kind == "s":
            if words[i + 3] != ")":
                raise _syntax_error(text, i + 3, "expected ')'")
            statements.add(name)
            i += 4
        else:
            if words[i + 3] != ",":
                raise _syntax_error(text, i + 3, "expected ','")
            if name in conditions:
                raise _syntax_error(text, i, f"duplicate condition for {name!r}")
            conditions[name], i = _read_formula(text, words, i + 4)
            if words[i] != ")":
                raise _syntax_error(text, i, "expected ')'")
            i += 1
        if words[i] != ".":
            raise _syntax_error(text, i, "expected '.'")
        i += 1
    return Adf(statements, conditions)


def _read_formula(text: str, words: list[str], i: int) -> tuple[Formula, int]:
    """The formula that starts at ``words[i]``, and the index after it.

    ``stack`` holds two entries per connective whose operands are not all
    read: its class, then its first operand or None. A complete formula
    becomes the innermost one's first operand, or closes it.
    """
    stack: list = []
    while True:
        word = words[i]
        connective = _CONNECTIVES.get(word)
        if connective is not None:
            if len(stack) == 2 * FORMULA_DEPTH_LIMIT:
                raise _syntax_error(text, i, f"formula nested more than {FORMULA_DEPTH_LIMIT} deep")
            if words[i + 1] != "(":
                raise _syntax_error(text, i + 1, "expected '('")
            stack.append(connective)
            stack.append(None)
            i += 2
            continue
        if word == "true" or word == "false":
            formula = Const(word == "true")
        elif word >= "a":
            formula = Var(word)
        else:
            raise _syntax_error(text, i, "expected a formula")
        i += 1
        while stack:
            if stack[-1] is None and stack[-2] is not Not:
                if words[i] != ",":
                    raise _syntax_error(text, i, "expected ','")
                stack[-1] = formula
                i += 1
                break
            if words[i] != ")":
                raise _syntax_error(text, i, "expected ')'")
            i += 1
            first = stack.pop()
            connective = stack.pop()
            formula = Not(formula) if connective is Not else connective(first, formula)
        else:
            return formula, i


def classical_operator(adf: Adf, lattice: PowersetLattice | None = None) -> LatticeOperator:
    """Two-valued revision: the statements whose condition holds classically,
    evaluated statement by statement on the variables of its condition. A
    ``lattice`` other than the powerset of the statements raises
    LatticeMismatch."""
    lat = powerset_of(adf.statements, lattice, "framework's statements")

    def dependencies():
        compiled = adf._compiled
        return adf.parents, lambda s, z: compiled[s](z, z)

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
    """The parts joined by ``connective``, And or Or, in their order, as a
    balanced tree: each round joins neighbouring pairs, so n parts nest
    ceil(log2(n)) deep; with no parts, its unit: true for And, false for
    Or."""
    if not parts:
        return Const(connective is And)
    while len(parts) > 2:
        paired = list(map(connective, parts[::2], parts[1::2]))
        parts = paired + parts[-1:] if len(parts) % 2 else paired
    return connective(*parts) if len(parts) == 2 else parts[0]


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
