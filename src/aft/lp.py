"""Propositional normal logic programs.

Grammar (files are UTF-8, ``%`` comments to end of line, whitespace free):

    rule    := atom (":-" literal ("," literal)*)? "."
    literal := ("not" WS)? atom
    atom    := [a-z][a-zA-Z0-9_]*

``not`` is reserved and cannot name an atom. A program's universe is exactly
the set of atoms occurring in it, heads and bodies alike; atoms that occur
only in bodies still enter the universe (they must be expressible as false).

The module provides the two-valued one-step consequence operator, its
four-valued bracketing approximator evaluated on all pairs by the same
formulas, and an independent brute-force stable-model oracle via the
classical reduct.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass

from .approx import Approximator
from .errors import ForeignAtom, ParseError, TooManyAtoms
from .lattice import LatticeOperator, PowersetLattice

ORACLE_ATOM_LIMIT = 20

_RESERVED = {"not"}


@dataclass(frozen=True)
class Rule:
    """head :- pos..., not neg... ; a rule with an empty body is a fact."""

    head: str
    pos: frozenset = frozenset()
    neg: frozenset = frozenset()

    @property
    def is_fact(self) -> bool:
        return not self.pos and not self.neg

    def to_text(self) -> str:
        body = sorted(self.pos) + [f"not {n}" for n in sorted(self.neg)]
        if not body:
            return f"{self.head}."
        return f"{self.head} :- {', '.join(body)}."


class LogicProgram:
    """An ordered list of rules over the universe of occurring atoms."""

    def __init__(self, rules):
        self.rules = tuple(rules)
        atoms = set()
        for r in self.rules:
            atoms.add(r.head)
            atoms |= r.pos
            atoms |= r.neg
        self.atoms = frozenset(atoms)

    @property
    def is_definite(self) -> bool:
        return all(not r.neg for r in self.rules)

    def to_text(self) -> str:
        return "\n".join(r.to_text() for r in self.rules)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LogicProgram):
            return NotImplemented
        return self.rules == other.rules

    def __hash__(self) -> int:
        return hash(self.rules)

    def __repr__(self) -> str:
        return f"<LogicProgram {len(self.rules)} rules over {sorted(self.atoms)}>"


_TOKEN = re.compile(
    r"(?P<ws>[ \t\r]+)|(?P<comment>%[^\n]*)|(?P<nl>\n)|(?P<implies>:-)"
    r"|(?P<comma>,)|(?P<dot>\.)|(?P<lparen>\()|(?P<rparen>\))"
    r"|(?P<name>[a-z][a-zA-Z0-9_]*)"
)


def _tokenize(text: str):
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind == "nl":
            line += 1
            col = 1
        else:
            if kind not in ("ws", "comment"):
                tokens.append((kind, value, line, col))
            col += len(value)
        pos = m.end()
    tokens.append(("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind, what):
        tok = self.tokens[self.i]
        if tok[0] != kind:
            raise ParseError(f"expected {what}", tok[2], tok[3])
        self.i += 1
        return tok

    def atom(self):
        kind, value, line, col = self.take("name", "an atom")
        if value in _RESERVED:
            raise ParseError(f"{value!r} is reserved and cannot name an atom", line, col)
        return value


def parse_program(text: str) -> LogicProgram:
    """Parse program text; raises ParseError with a 1-based position."""
    p = _Parser(_tokenize(text))
    rules = []
    while p.peek()[0] != "eof":
        head = p.atom()
        pos, neg = set(), set()
        if p.peek()[0] == "implies":
            p.i += 1
            while True:
                if p.peek()[:2] == ("name", "not"):
                    p.i += 1
                    neg.add(p.atom())
                else:
                    pos.add(p.atom())
                if p.peek()[0] == "comma":
                    p.i += 1
                    continue
                break
        p.take("dot", "'.'")
        rules.append(Rule(head, frozenset(pos), frozenset(neg)))
    return LogicProgram(rules)


def program_lattice(program: LogicProgram) -> PowersetLattice:
    return PowersetLattice(program.atoms)


def tp(program: LogicProgram, lattice: PowersetLattice | None = None) -> LatticeOperator:
    """The one-step consequence operator: heads of rules whose positive body
    is contained in the argument and whose negative body avoids it.

    It is evaluated atom by atom: an atom's parents are the body atoms of its
    rules, and its condition is that one of those rules fires.
    """
    lat = lattice if lattice is not None else program_lattice(program)

    def dependencies():
        bodies: dict[str, list] = {}
        for r in program.rules:
            bodies.setdefault(r.head, []).append((r.pos, r.neg))
        parents = {
            a: frozenset().union(*itertools.chain.from_iterable(bodies.get(a, ())))
            for a in lat.universe
        }

        def condition(p, z):
            for pos, neg in bodies.get(p, ()):
                if pos <= z and neg.isdisjoint(z):
                    return True
            return False

        return parents, condition

    return LatticeOperator(lat, name="tp", dependencies=dependencies)


def _reduct_least_model(rules):
    """A function from a set of blocked atoms to the least model of the
    program's reduct by it, each call linear in the program (Dowling and
    Gallier's counter procedure).

    Rules whose negative body meets ``blocked`` are dropped; every other rule
    counts the atoms of its positive body not yet derived, and fires when
    the count reaches zero. Each derived atom is propagated once, through the
    rules that watch it.
    """
    watch: dict[str, list[int]] = {}
    for i, (_, pos, _) in enumerate(rules):
        for b in pos:
            watch.setdefault(b, []).append(i)
    bodies = [(len(pos), neg) for _, pos, neg in rules]
    heads = [h for h, _, _ in rules]

    def least_model(blocked):
        # a dropped rule starts below zero, so decrements never fire it
        waiting = [n if neg.isdisjoint(blocked) else -1 for n, neg in bodies]
        agenda = [h for h, n in zip(heads, waiting) if n == 0]
        model = set()
        while agenda:
            atom = agenda.pop()
            if atom in model:
                continue
            model.add(atom)
            for i in watch.get(atom, ()):
                waiting[i] -= 1
                if waiting[i] == 0:
                    agenda.append(heads[i])
        return frozenset(model)

    # the stable operator asks for the same revision again within a few
    # calls: at lower and upper of an exact pair, at the bound a
    # well-founded step left unchanged, and at a candidate's lower in the
    # partial-stable scan; a few entries catch these without a growing memo
    return functools.lru_cache(maxsize=4)(least_model)


def fitting(program: LogicProgram, lattice: PowersetLattice | None = None) -> Approximator:
    """The four-valued bracketing operator of a program.

    The lower step derives heads whose positive body is certain and whose
    negative body is impossible; the upper step derives heads whose positive
    body is possible and whose negative body is not certain. On exact pairs
    both steps collapse to the one-step consequence operator. The formulas
    are total, inconsistent pairs included.

    The operator is symmetric, and its lower revision at y is the least model
    of the reduct by y, which it carries as its ``revision`` hook.
    """
    lat = lattice if lattice is not None else program_lattice(program)
    rules = [(r.head, r.pos, r.neg) for r in program.rules]

    def step(lower, upper):
        lo = frozenset(h for h, pos, neg in rules if pos <= lower and neg.isdisjoint(upper))
        hi = frozenset(h for h, pos, neg in rules if pos <= upper and neg.isdisjoint(lower))
        return (lo, hi)

    return Approximator(
        lat, step, operator=tp(program, lat), name="fitting", revision=_reduct_least_model(rules)
    )


def gl_reduct(program: LogicProgram, model: frozenset) -> LogicProgram:
    """The reduct relative to a candidate model: drop every rule whose
    negative body meets the candidate, then erase negation from the rest."""
    model = frozenset(model)
    if not model <= program.atoms:
        raise ForeignAtom(model - program.atoms)
    return LogicProgram(
        Rule(r.head, r.pos) for r in program.rules if r.neg.isdisjoint(model)
    )


def _definite_lfp(program: LogicProgram) -> frozenset:
    rules = [(r.head, r.pos) for r in program.rules]
    x = frozenset()
    while True:
        nx_ = frozenset(h for h, pos in rules if pos <= x)
        if nx_ == x:
            return x
        x = nx_


def stable_models_oracle(program: LogicProgram, limit: int = ORACLE_ATOM_LIMIT) -> frozenset:
    """Brute-force stable models: every candidate that reproduces itself as
    the least model of its reduct. Independent of the pair-space machinery."""
    atoms = sorted(program.atoms)
    if len(atoms) > limit:
        raise TooManyAtoms(len(atoms), limit, "stable-model oracle")
    out = []
    for k in range(len(atoms) + 1):
        for combo in itertools.combinations(atoms, k):
            m = frozenset(combo)
            if _definite_lfp(gl_reduct(program, m)) == m:
                out.append(m)
    return frozenset(out)


def is_stratified(program: LogicProgram) -> bool:
    """True when no dependency cycle passes through negation, that is when
    no rule's head reaches back to one of its negated body atoms."""
    feeds: dict[str, set[str]] = {}
    for r in program.rules:
        for b in r.pos | r.neg:
            feeds.setdefault(b, set()).add(r.head)
    for r in program.rules:
        if not r.neg:
            continue
        seen = {r.head}
        stack = [r.head]
        while stack:
            a = stack.pop()
            if a in r.neg:
                return False
            for h in feeds.get(a, ()):
                if h not in seen:
                    seen.add(h)
                    stack.append(h)
    return True
