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
import threading
from dataclasses import dataclass

from .approx import Approximator
from .errors import ForeignAtom, ParseError, TooManyAtoms
from .lattice import LatticeOperator, PowersetLattice, powerset_of

ORACLE_ATOM_LIMIT = 20

_RESERVED = {"not"}


@dataclass(frozen=True)
class Rule:
    """head :- pos..., not neg... ; a rule with an empty body is a fact."""

    head: str
    pos: frozenset = frozenset()
    neg: frozenset = frozenset()

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
    r"(?P<skip>(?:[ \t\r\n]|%[^\n]*)+)|(?P<implies>:-)"
    r"|(?P<comma>,)|(?P<dot>\.)|(?P<lparen>\()|(?P<rparen>\))"
    r"|(?P<name>[a-z][a-zA-Z0-9_]*)|(?P<bad>.)",
    re.DOTALL,
)


class _Parser:
    """Tokens of a text, as (kind, value, offset), read front to back.

    The whole text is tokenized first, so an unexpected character is
    reported before any grammar error. Line and column are computed from a
    token's offset only when an error is raised.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokens = []
        for m in _TOKEN.finditer(text):
            kind = m.lastgroup
            if kind == "bad":
                raise self.error(f"unexpected character {m.group()!r}", m.start())
            if kind != "skip":
                tokens.append((kind, m.group(), m.start()))
        tokens.append(("eof", "", len(text)))
        self.i = 0

    def error(self, message: str, offset: int) -> ParseError:
        """A ParseError at the 1-based line and column of ``offset``."""
        start = self.text.rfind("\n", 0, offset) + 1
        return ParseError(message, self.text.count("\n", 0, start) + 1, offset - start + 1)

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind, what):
        tok = self.tokens[self.i]
        if tok[0] != kind:
            raise self.error(f"expected {what}", tok[2])
        self.i += 1
        return tok

    def atom(self):
        _, value, offset = self.take("name", "an atom")
        if value in _RESERVED:
            raise self.error(f"{value!r} is reserved and cannot name an atom", offset)
        return value


def parse_program(text: str) -> LogicProgram:
    """Parse program text; raises ParseError with a 1-based position."""
    p = _Parser(text)
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
    rules, and its condition is that one of those rules fires. A ``lattice``
    other than the powerset of the program's atoms raises LatticeMismatch.
    """
    lat = powerset_of(program.atoms, lattice, "program's atoms")

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


def _watch_index(rules):
    """Per atom, the indices of the rules with it in their positive body and
    of those with it in their negative body."""
    pos_watch: dict[str, list[int]] = {}
    neg_watch: dict[str, list[int]] = {}
    for i, (_, pos, neg) in enumerate(rules):
        for b in pos:
            pos_watch.setdefault(b, []).append(i)
        for b in neg:
            neg_watch.setdefault(b, []).append(i)
    return pos_watch, neg_watch


def _reduct_least_model(rules, pos_watch):
    """A function from a set of blocked atoms to the least model of the
    program's reduct by it, each call linear in the program (Dowling and
    Gallier's counter procedure).

    Rules whose negative body meets ``blocked`` are dropped; every other rule
    counts the atoms of its positive body not yet derived, and fires when
    the count reaches zero. Each derived atom is propagated once, through the
    rules that watch it in ``pos_watch``.
    """
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
            for i in pos_watch.get(atom, ()):
                waiting[i] -= 1
                if waiting[i] == 0:
                    agenda.append(heads[i])
        return frozenset(model)

    # the stable operator asks for the same revision again within a few
    # calls: at lower and upper of an exact pair, at the bound a
    # well-founded step left unchanged, and at a candidate's lower in the
    # partial-stable scan; a few entries catch these without a growing memo
    return functools.lru_cache(maxsize=4)(least_model)


def _changes(new, old):
    """The atoms that entered and that left, ``new - old`` and ``old - new``,
    with one pass over the larger set when it contains the smaller."""
    if new is old:
        return (), ()
    if len(new) >= len(old):
        entered = new - old
        return entered, (() if len(entered) == len(new) - len(old) else old - new)
    left = old - new
    return (() if len(left) == len(old) - len(new) else new - old), left


def _fitting_step(rules, pos_watch, neg_watch):
    """Fitting's step on raw pairs, evaluated semi-naively (Bancilhon and
    Ramakrishnan): each call updates only the rules that watch an atom which
    entered or left either bound since the pair it last computed.

    Every rule counts the body literals that block it in the lower step (a
    positive atom outside the lower bound, a negative one inside the upper)
    and in the upper step (a positive atom outside the upper bound, a
    negative one inside the lower), and every head the rules that fire it,
    those with nothing blocking. The counts start at the pair
    (empty, empty), so any sequence of calls gives the answers of testing
    every rule. A bound of the output whose heads did not change is the
    previous output's object again.
    """
    heads = [h for h, _, _ in rules]
    lo_blocks = [len(pos) for _, pos, _ in rules]
    hi_blocks = lo_blocks.copy()
    lo_fired: dict[str, int] = {}
    for h, n in zip(heads, lo_blocks):
        if n == 0:
            lo_fired[h] = lo_fired.get(h, 0) + 1
    hi_fired = dict(lo_fired)
    # the pair the counts stand for, and the last output; the lock keeps an
    # approximator shared between threads from interleaving two updates
    last = [frozenset(), frozenset(), None, None]
    lock = threading.Lock()

    def block(watchers, blocks, fired):
        """One more blocking literal for each rule in ``watchers``; True
        when some head stops firing."""
        stopped = False
        for i in watchers:
            if blocks[i] == 0:
                h = heads[i]
                if fired[h] == 1:
                    del fired[h]
                    stopped = True
                else:
                    fired[h] -= 1
            blocks[i] += 1
        return stopped

    def unblock(watchers, blocks, fired):
        """One fewer blocking literal for each rule in ``watchers``; True
        when some head starts firing."""
        started = False
        for i in watchers:
            blocks[i] -= 1
            if blocks[i] == 0:
                h = heads[i]
                if h in fired:
                    fired[h] += 1
                else:
                    fired[h] = 1
                    started = True
        return started

    def step(lower, upper):
        with lock:
            old_lower, old_upper, out_lo, out_hi = last
            # every difference first: a bad argument raises before any count moves
            lower_in, lower_out = _changes(lower, old_lower)
            upper_in, upper_out = _changes(upper, old_upper)
            lo_moved = hi_moved = out_lo is None
            for a in lower_in:
                lo_moved |= unblock(pos_watch.get(a, ()), lo_blocks, lo_fired)
                hi_moved |= block(neg_watch.get(a, ()), hi_blocks, hi_fired)
            for a in lower_out:
                lo_moved |= block(pos_watch.get(a, ()), lo_blocks, lo_fired)
                hi_moved |= unblock(neg_watch.get(a, ()), hi_blocks, hi_fired)
            for a in upper_in:
                hi_moved |= unblock(pos_watch.get(a, ()), hi_blocks, hi_fired)
                lo_moved |= block(neg_watch.get(a, ()), lo_blocks, lo_fired)
            for a in upper_out:
                hi_moved |= block(pos_watch.get(a, ()), hi_blocks, hi_fired)
                lo_moved |= unblock(neg_watch.get(a, ()), lo_blocks, lo_fired)
            # built from iterators, the frozensets grow as they fill; built from
            # the dicts themselves, they would be presized, up to twice as large
            if lo_moved:
                out_lo = frozenset(iter(lo_fired))
            if hi_moved:
                out_hi = frozenset(iter(hi_fired))
            last[:] = lower, upper, out_lo, out_hi
            return out_lo, out_hi

    return step


def fitting(program: LogicProgram, lattice: PowersetLattice | None = None) -> Approximator:
    """The four-valued bracketing operator of a program.

    The lower step derives heads whose positive body is certain and whose
    negative body is impossible; the upper step derives heads whose positive
    body is possible and whose negative body is not certain. On exact pairs
    both steps collapse to the one-step consequence operator. The formulas
    are total, inconsistent pairs included.

    The step is evaluated semi-naively, so a Kripke-Kleene iteration costs
    the rules its changes touch rather than every rule at every step.

    The operator is symmetric, and its lower revision at y is the least model
    of the reduct by y, which it carries as its ``revision`` hook. The step
    and the revision share one index of the rules each body atom occurs in.
    """
    op = tp(program, lattice)
    rules = [(r.head, r.pos, r.neg) for r in program.rules]
    pos_watch, neg_watch = _watch_index(rules)
    return Approximator(
        op.lattice,
        _fitting_step(rules, pos_watch, neg_watch),
        operator=op,
        name="fitting",
        revision=_reduct_least_model(rules, pos_watch),
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


def stable_models_oracle(program: LogicProgram) -> frozenset:
    """Brute-force stable models: every candidate that reproduces itself as
    the least model of its reduct. Independent of the pair-space machinery.
    Programs of more than ORACLE_ATOM_LIMIT atoms are refused."""
    atoms = sorted(program.atoms)
    if len(atoms) > ORACLE_ATOM_LIMIT:
        raise TooManyAtoms(len(atoms), ORACLE_ATOM_LIMIT, "stable-model oracle")
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
