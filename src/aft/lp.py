"""Propositional normal logic programs.

Grammar (files are UTF-8, ``%`` comments to end of line, whitespace free):

    rule    := atom (":-" literal ("," literal)*)? "."
    literal := ("not" WS)? atom
    atom    := [a-z][a-zA-Z0-9_]*

``not`` is reserved and cannot name an atom. A program's universe is exactly
the set of atoms occurring in it, heads and bodies alike; atoms that occur
only in bodies still enter the universe (they must be expressible as false).

Text is parsed by one reader: its characters are checked with one regular
expression, it is split once into words and punctuation marks, and that
list is read front to back; only when a word is wrong is the text
tokenized, to report the error's position. The same loop fills the rule
tables that ``fitting`` reads (``LogicProgram.tables``), and a parsed
program's ``Rule`` objects are built only when its ``rules`` are asked for.

The module provides the two-valued one-step consequence operator, its
four-valued bracketing approximator evaluated on all pairs by the same
formulas, and an independent brute-force stable-model oracle via the
classical reduct, which ``benchmark/reference.py`` checks stable models
against. The approximator is built from one lower step, and
carries that step's least fixpoint, the least model of the reduct, as its
``revision`` hook; each least model grows from one the hook computed
before, at a set that contains the new one. Its Kripke-Kleene fixpoint is
one pass of three-valued propagation over the same rule tables.
"""

from __future__ import annotations

import functools
import itertools
import re
import threading
from dataclasses import dataclass

from .approx import Approximator, _built_in
from .errors import ForeignAtom, ParseError, TooManyAtoms
from .lattice import LatticeOperator, PowersetLattice, powerset_of

ORACLE_ATOM_LIMIT = 20


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
    """An ordered list of rules over the universe of occurring atoms.

    A program holds its rule tables (``tables``): each rule's head and the
    number of distinct atoms in its positive body, and per atom the indices
    of the rules with it in their positive body and of those with it in
    their negative body. ``parse_program`` fills them as it reads, and a
    parsed program's ``rules`` are built from them, by inverting the watch
    lists, when first asked for; so a parsed program that only ``fitting``
    reads builds no ``Rule``. A program built from rules, the library
    constructor, gets its tables from ``_rule_tables`` when first asked.
    """

    def __init__(self, rules):
        self.rules = tuple(rules)
        atoms = set()
        for r in self.rules:
            atoms.add(r.head)
            atoms |= r.pos
            atoms |= r.neg
        self.atoms = frozenset(atoms)

    @classmethod
    def _from_tables(cls, heads, sizes, pos_watch, neg_watch) -> LogicProgram:
        program = cls.__new__(cls)
        program.tables = heads, sizes, pos_watch, neg_watch
        program.atoms = frozenset(heads).union(pos_watch, neg_watch)
        return program

    @functools.cached_property
    def tables(self):
        return _rule_tables(self)

    @functools.cached_property
    def rules(self) -> tuple:
        heads, _, pos_watch, neg_watch = self.tables
        pos = [[] for _ in heads]
        neg = [[] for _ in heads]
        for bodies, watch in ((pos, pos_watch), (neg, neg_watch)):
            for atom, watchers in watch.items():
                for i in watchers:
                    bodies[i].append(atom)
        return tuple(Rule(h, frozenset(p), frozenset(n)) for h, p, n in zip(heads, pos, neg))

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


# The tokens of both grammars, read only to place an error.
_TOKEN = re.compile(
    r"(?P<skip>(?:[ \t\r\n]|%[^\n]*)+)|(?P<implies>:-)"
    r"|(?P<comma>,)|(?P<dot>\.)|(?P<lparen>\()|(?P<rparen>\))"
    r"|(?P<name>[a-z][a-zA-Z0-9_]*)|(?P<bad>.)",
    re.DOTALL,
)

# Text whose comments are blanked is in the alphabet when it holds only
# whitespace, name characters, punctuation and ":-"; any other character
# is one that no token spells. Runs of a single character class keep the
# match linear on text that fails.
_COMMENTS = re.compile(r"%[^\n]*")
_ALPHABET = re.compile(r"[ \t\r\n(),.a-zA-Z0-9_]*(?::-[ \t\r\n(),.a-zA-Z0-9_]*)*")


def _words(text: str) -> list[str]:
    """The words and punctuation marks of a text, comments dropped, then an
    empty word that marks the end. A text outside the alphabet raises its
    ParseError here.

    The marks are set apart with spaces and the text split at whitespace,
    about twice as fast as a regular expression's ``findall``. In the
    alphabet the words are the tokenizer's names, marks and ":-", one for
    one, wherever it finds no bad character; where it does, a word starts
    with a character a name cannot start with, and is wrong wherever it is.
    """
    source = _COMMENTS.sub(" ", text) if "%" in text else text
    if not _ALPHABET.fullmatch(source):
        raise _syntax_error(text)
    words = (
        source.replace(":-", " :- ")
        .replace("(", " ( ")
        .replace(")", " ) ")
        .replace(",", " , ")
        .replace(".", " . ")
        .split()
    )
    words.append("")
    return words


def _syntax_error(text: str, index: int = -1, message: str = "") -> ParseError:
    """The error of a text whose word at ``index`` is wrong, found by one
    pass of the tokenizer: a character that no token spells is reported
    first, wherever it is, and otherwise the message is placed at that
    word's token, or at the end of the text for the end marker. Without an
    index, the text must hold such a character."""
    offset = len(text)
    k = 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            message, offset = f"unexpected character {m.group()!r}", m.start()
            break
        if kind != "skip":
            if k == index:
                offset = m.start()
            k += 1
    start = text.rfind("\n", 0, offset) + 1
    return ParseError(message, text.count("\n", 0, start) + 1, offset - start + 1)


def parse_program(text: str) -> LogicProgram:
    """Parse program text; raises ParseError with a 1-based position.

    The text is split once into words and punctuation marks, which are read
    front to back; only when a word is wrong is the text tokenized, to place
    the error. A name is any word that starts with a lowercase letter: in
    this alphabet, exactly the words that compare at least ``"a"``.

    The same loop fills the program's rule tables, the ones ``fitting``
    reads; no ``Rule`` is built until the program's ``rules`` are asked for.
    Watch lists grow in rule order, so an atom that a rule repeats finds
    that rule's index already at the end of its list, and is watched and
    counted once, as in a body's set.
    """
    words = _words(text)
    heads: list[str] = []
    sizes: list[int] = []
    pos_watch: dict[str, list[int]] = {}
    neg_watch: dict[str, list[int]] = {}
    end = len(words) - 1
    i = 0
    while i < end:
        head = words[i]
        if head < "a" or head == "not":
            raise _atom_error(text, i, head)
        rule = len(heads)
        size = 0
        i += 1
        if words[i] == ":-":
            while True:
                i += 1
                atom = words[i]
                if atom == "not":
                    i += 1
                    atom = words[i]
                    if atom < "a" or atom == "not":
                        raise _atom_error(text, i, atom)
                    watchers = neg_watch.get(atom)
                    if watchers is None:
                        neg_watch[atom] = [rule]
                    elif watchers[-1] != rule:
                        watchers.append(rule)
                elif atom < "a":
                    raise _atom_error(text, i, atom)
                else:
                    watchers = pos_watch.get(atom)
                    if watchers is None:
                        pos_watch[atom] = [rule]
                        size += 1
                    elif watchers[-1] != rule:
                        watchers.append(rule)
                        size += 1
                i += 1
                if words[i] != ",":
                    break
        if words[i] != ".":
            raise _syntax_error(text, i, "expected '.'")
        i += 1
        heads.append(head)
        sizes.append(size)
    return LogicProgram._from_tables(heads, sizes, pos_watch, neg_watch)


def _atom_error(text: str, index: int, word: str) -> ParseError:
    """The error of ``word``, at ``index``, where an atom is expected."""
    if word == "not":
        return _syntax_error(text, index, "'not' is reserved and cannot name an atom")
    return _syntax_error(text, index, "expected an atom")


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


def _rule_tables(program: LogicProgram):
    """The rule tables the lower step reads, of a program built from rules
    (a parsed program's are the parser's): each rule's head and the size of
    its positive body, and per atom the indices of the rules with it in
    their positive body and of those with it in their negative body."""
    heads, sizes = [], []
    pos_watch: dict[str, list[int]] = {}
    neg_watch: dict[str, list[int]] = {}
    for i, r in enumerate(program.rules):
        heads.append(r.head)
        sizes.append(len(r.pos))
        for b in r.pos:
            pos_watch.setdefault(b, []).append(i)
        for b in r.neg:
            neg_watch.setdefault(b, []).append(i)
    return heads, sizes, pos_watch, neg_watch


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


def _lower_step(heads, sizes, pos_watch, neg_watch):
    """Fitting's lower step, the heads of the rules whose positive body lies
    in x and whose negative body avoids y, as a function of the atoms that
    entered and left x and y since the previous call, from (empty, empty);
    and its least fixpoint in x, the least model of the reduct by y, as a
    function of y.

    The step is semi-naive (Bancilhon and Ramakrishnan): every rule counts
    the literals that block it, a positive atom outside x or a negative one
    inside y, and every head the rules that fire it. A call updates only the
    rules that watch an atom which entered or left x or y, so any sequence
    of calls answers as testing every rule would, and an output whose heads
    did not change is the previous output's object. Its caller keeps the
    pair the counts stand for, and a lock around each call.

    The least fixpoint is Dowling and Gallier's procedure: every rule counts
    the atoms of its positive body not yet derived and those of its negative
    body in y, and fires at zero; each derived atom is propagated once,
    through the rules that watch it. It grows from a kept state. Of the last
    two (y, counts, model) it computed, it starts from the one with the
    smallest y that contains the new y: the reduct by a smaller y keeps more
    rules, so that state's model lies below the new one. Its counts drop for
    the rules that watch an atom of the old y outside the new, and only the
    atoms derived from there on are propagated. With no such state it counts
    from scratch, linear in the program. In the well-founded iteration the
    lower revision at hi_{k+1} grows from the state at hi_k, and the upper
    revision at lo_k from the state at hi_k, since lo_k lies in hi_k.
    """
    blocks = list(sizes)
    fired: dict[str, int] = {}
    for h, n in zip(heads, sizes):
        if n == 0:
            fired[h] = fired.get(h, 0) + 1
    image = None

    def block(watchers):
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

    def unblock(watchers):
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

    def step(x_in, x_out, y_in, y_out):
        nonlocal image
        moved = image is None
        for a in x_in:
            moved |= unblock(pos_watch.get(a, ()))
        for a in x_out:
            moved |= block(pos_watch.get(a, ()))
        for a in y_in:
            moved |= block(neg_watch.get(a, ()))
        for a in y_out:
            moved |= unblock(neg_watch.get(a, ()))
        # built from an iterator, the frozenset grows as it fills; built
        # from the dict itself, it would be presized, up to twice as large
        if moved:
            image = frozenset(iter(fired))
        return image

    # the last two states of the least fixpoint, newest first, each
    # (y, counts, model); a stored state is never changed, so threads that
    # share the step need no lock here
    states = ()

    def least_fixpoint(y):
        nonlocal states
        base = None
        for state in states:
            if y <= state[0] and (base is None or len(state[0]) < len(base[0])):
                base = state
        if base is None:
            counts = sizes.copy()
            for a in y:
                for i in neg_watch.get(a, ()):
                    counts[i] += 1
            agenda = [h for h, n in zip(heads, counts) if n == 0]
            model = set()
        else:
            last_y, counts, model = base
            freed = last_y - y
            if not freed:
                return model
            counts = counts.copy()
            agenda = []
            for a in freed:
                for i in neg_watch.get(a, ()):
                    counts[i] -= 1
                    if counts[i] == 0:
                        agenda.append(heads[i])
            model = set(model)
        while agenda:
            atom = agenda.pop()
            if atom in model:
                continue
            model.add(atom)
            for i in pos_watch.get(atom, ()):
                counts[i] -= 1
                if counts[i] == 0:
                    agenda.append(heads[i])
        model = frozenset(model)
        states = ((y, counts, model),) + states[:1]
        return model

    return step, least_fixpoint


def _kripke_kleene(universe, heads, sizes, pos_watch, neg_watch):
    """The Kripke-Kleene fixpoint of Fitting's approximator, as a raw pair,
    by one pass of three-valued propagation from (empty, universe) over the
    rule tables, linear in the program (Fitting 1985; the counting of
    Dowling and Gallier 1984).

    Every rule counts its literals not yet satisfied, a positive atom not
    yet true or a negative one not yet false, and every atom the rules with
    it as head that no literal has yet falsified. An atom becomes true when
    one of its rules' counts reaches zero and false when its own count
    does, so atoms that head no rule are false from the start; each atom is
    decided once, and then propagated once through the rules that watch it.

    Why the pass ends at the fixpoint kk of the approximator A, the
    precision-least one:

    - each decision is justified by some Kleene iterate from
      (empty, universe): by induction, once the atoms of a rule's body are
      decided in iterates up to the k-th, A puts the head in the next
      iterate's lower bound, or takes it out of the upper bound when every
      rule of the head is falsified; the iterates rise in precision, A
      being precision-monotone, so every pair of decided atoms lies at or
      below kk in precision. In particular no atom is decided both ways;
    - when the agenda is empty, the heads of the rules with no literal left
      unsatisfied are exactly the true atoms, and the heads of the rules
      with no literal falsified exactly the atoms not false; so the pair
      (true, universe - false) is a fixpoint of A;
    - a fixpoint at or below kk in precision can only be kk.
    """
    waiting = list(sizes)
    for rules in neg_watch.values():
        for i in rules:
            waiting[i] += 1
    support: dict[str, int] = {}
    for h in heads:
        support[h] = support.get(h, 0) + 1
    alive = [True] * len(heads)
    true, false = set(), set()
    # atoms to decide, each with its truth value: the heads of facts true
    # and the atoms that head no rule false
    agenda = [(a, False) for a in universe.difference(support)]
    agenda += [(h, True) for h, n in zip(heads, waiting) if n == 0]
    while agenda:
        atom, value = agenda.pop()
        decided = true if value else false
        if atom in decided:
            continue
        decided.add(atom)
        satisfied, falsified = (pos_watch, neg_watch) if value else (neg_watch, pos_watch)
        for i in satisfied.get(atom, ()):
            waiting[i] -= 1
            if waiting[i] == 0:
                agenda.append((heads[i], True))
        for i in falsified.get(atom, ()):
            if alive[i]:
                alive[i] = False
                h = heads[i]
                support[h] -= 1
                if support[h] == 0:
                    agenda.append((h, False))
    return frozenset(true), universe.difference(false)


def fitting(program: LogicProgram, lattice: PowersetLattice | None = None) -> Approximator:
    """The four-valued bracketing operator of a program.

    The lower step derives heads whose positive body is certain and whose
    negative body is impossible; the upper step derives heads whose positive
    body is possible and whose negative body is not certain. On exact pairs
    both steps collapse to the one-step consequence operator. The formulas
    are total, inconsistent pairs included.

    The operator is symmetric, its upper step at (x, y) being its lower step
    at (y, x), so it is built from one lower step: two counting instances
    over shared rule tables, one per bound, evaluate it semi-naively from
    the changes of both bounds, computed once per call, and its least
    fixpoint at y, the least model of the reduct by y, is the ``revision``
    hook. Its Kripke-Kleene fixpoint is computed by one propagation over the
    same tables (``_kripke_kleene``), which ``fixpoints.kripke_kleene``
    calls when no trace is wanted. The tables are the program's own
    (``program.tables``), filled by the parser, so building the operator
    reads no ``Rule``; ``tp``'s dependencies, which evaluate the operator
    itself and which ``ultimate`` and ``convex-kk`` read, build the
    program's rules when first asked for.
    """
    op = tp(program, lattice)
    tables = program.tables
    lower, least_fixpoint = _lower_step(*tables)
    upper, _ = _lower_step(*tables)
    # the pair both instances' counts stand for; the lock keeps an
    # approximator shared between threads from interleaving two updates
    last_x = last_y = frozenset()
    lock = threading.Lock()

    def step(x, y):
        nonlocal last_x, last_y
        with lock:
            # both differences first: a bad argument raises before any count moves
            x_in, x_out = _changes(x, last_x)
            y_in, y_out = _changes(y, last_y)
            last_x, last_y = x, y
            return lower(x_in, x_out, y_in, y_out), upper(y_in, y_out, x_in, x_out)

    return _built_in(
        op.lattice,
        step,
        operator=op,
        name="fitting",
        revision=least_fixpoint,
        kripke_kleene=lambda: _kripke_kleene(op.lattice.top, *tables),
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
