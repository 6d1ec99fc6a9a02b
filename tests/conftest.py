import itertools
import json
import random
from enum import Enum
from typing import Iterator

import pytest

from aft.adf import _KEYWORDS, Adf, And, Const, Formula, Not, Or, Var
from aft.approx import Approximator, ApproxPair
from aft.corpus import DEFAULT_SEED, _names
from aft.errors import ParseError
from aft.fixpoints import _stable_raw
from aft.lattice import FiniteLattice, Lattice
from aft.lp import _TOKEN, LogicProgram, Rule, parse_program

TWO_CYCLE = "p :- not q.\nq :- not p.\n"
POS_LOOP = "p :- p.\n"
NEG_LOOP = "p :- not p.\n"
DEFINITE = "p.\nq :- p.\n"
SEPARATOR = "p :- q.\np :- not q.\nq :- q.\n"
ABC_ADF = "s(a). s(b). s(c).\nac(a, true). ac(b, a). ac(c, neg(b)).\n"


def nested_adf(depth):
    """A framework whose condition of a, on line 2, nests neg, and, or in
    turn ``depth`` connectives deep; the innermost is ``neg(a)``."""
    formula = "a"
    for k in range(depth):
        formula = ("neg({})", "and({}, b)", "or(b, {})")[k % 3].format(formula)
    return f"s(a). s(b).\nac(a, {formula}).\nac(b, neg(a)).\n"


FIVE_ELEMENT_LATTICES = {
    "chain5": FiniteLattice.from_covers(
        range(5), [(i, i + 1) for i in range(4)]
    ),
    "pentagon": FiniteLattice.from_covers(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1")],
    ),
    "m3": FiniteLattice.from_covers(
        ["0", "x", "y", "z", "1"],
        [("0", "x"), ("0", "y"), ("0", "z"), ("x", "1"), ("y", "1"), ("z", "1")],
    ),
}


@pytest.fixture
def two_cycle():
    return parse_program(TWO_CYCLE)


@pytest.fixture
def pos_loop():
    return parse_program(POS_LOOP)


@pytest.fixture
def neg_loop():
    return parse_program(NEG_LOOP)


@pytest.fixture
def definite():
    return parse_program(DEFINITE)


@pytest.fixture
def separator():
    return parse_program(SEPARATOR)


@pytest.fixture
def diamond():
    return FiniteLattice.from_covers(
        ["bot", "a", "b", "top"],
        [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")],
    )


def fs(*atoms):
    return frozenset(atoms)


def partial_stable_oracle(a):
    """Reference for ``partial_stable_fixpoints``: every consistent pair the
    stable operator leaves fixed, by a scan over all of them (3**|U| pairs
    on a powerset)."""
    lat = a.lattice
    return frozenset(
        ApproxPair(lat, lo, hi)
        for lo, hi in lat.consistent_pairs()
        if _stable_raw(a, lo, hi) == (lo, hi)
    )


def fitting_step_oracle(program):
    """Reference for the step of ``fitting``: every rule body tested at the
    pair, with no state between calls."""
    rules = [(r.head, r.pos, r.neg) for r in program.rules]

    def step(lower, upper):
        lo = frozenset(h for h, pos, neg in rules if pos <= lower and neg.isdisjoint(upper))
        hi = frozenset(h for h, pos, neg in rules if pos <= upper and neg.isdisjoint(lower))
        return (lo, hi)

    return step


def support_oracle(f, lower, upper):
    """Reference for the ADF formula evaluation: the independent
    truth-support and falsity-support bits of a formula at a pair. A
    variable is truth-supported when in the lower bound and falsity-supported
    when outside the upper bound; on inconsistent pairs both can hold."""
    if isinstance(f, Const):
        return (f.value, not f.value)
    if isinstance(f, Var):
        return (f.name in lower, f.name not in upper)
    if isinstance(f, Not):
        t, fa = support_oracle(f.child, lower, upper)
        return (fa, t)
    (lt, lf), (rt, rf) = (support_oracle(g, lower, upper) for g in (f.left, f.right))
    if isinstance(f, And):
        return (lt and rt, lf or rf)
    assert isinstance(f, Or)
    return (lt or rt, lf and rf)


class Truth(Enum):
    FALSE = 0.0
    UNKNOWN = 0.5
    TRUE = 1.0


def eval3(formula, p):
    """Strong Kleene value of a formula at a pair, read off
    ``support_oracle``: true when truth-supported, else false when
    falsity-supported, else unknown."""
    t, fa = support_oracle(formula, p.lower, p.upper)
    return Truth.TRUE if t else Truth.FALSE if fa else Truth.UNKNOWN


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


def ultimate_oracle(lattice, op):
    """Reference for ``ultimate``: on a consistent pair, the meet and the join
    of the operator's images of every element of the interval."""

    def step(lower, upper):
        images = [op(z) for z in lattice.interval(lower, upper)]
        return (lattice.glb(images), lattice.lub(images))

    return Approximator(lattice, step, operator=op, name="ultimate oracle", consistent_only=True)


def revision_oracle(a, at, lower):
    """Reference for ``fixpoints._revision`` without a revision hook: the
    lower (z -> A(z, at).lower, from bottom) or upper (z -> A(at, z).upper,
    from bottom, or from ``at`` when consistency-restricted) projection
    iterated until it stops changing. A consistency-restricted revision is
    None as soon as an iterate leaves the interval it must stay in, which is
    never applied to."""
    lat = a.lattice
    if lower:
        project, start, lo, hi = (lambda z: a.apply(z, at)[0]), lat.bottom, lat.bottom, at
    else:
        start = at if a.consistent_only else lat.bottom
        project, lo, hi = (lambda z: a.apply(at, z)[1]), at, lat.top
    z = start
    for _ in range(lat.size):
        nz = project(z)
        if a.consistent_only and not (lat.leq(lo, nz) and lat.leq(nz, hi)):
            return None
        if nz == z:
            return z
        z = nz
    raise AssertionError(f"the revision at {at!r} did not stabilize")


def supported_oracle(a):
    """Reference for ``supported_fixpoints``: every element whose exact pair
    the approximator leaves fixed, by a scan over the whole lattice."""
    return frozenset(x for x in a.lattice.elements if a.apply(x, x) == (x, x))


def stable_oracle(a):
    """Reference for ``stable_models``: every element whose exact pair the
    stable operator leaves fixed, by a scan over the whole lattice."""
    return frozenset(x for x in a.lattice.elements if _stable_raw(a, x, x) == (x, x))


def hull_oracle(lattice, members):
    """Reference for ``hull``: every element with a member below it and a
    member above it, testing each element against each member."""
    s = frozenset(members)
    return frozenset(
        y
        for y in lattice.elements
        if any(lattice.leq(a, y) for a in s) and any(lattice.leq(y, b) for b in s)
    )


def convex_kk_oracle(op):
    """Reference for ``convex_kripke_kleene``: the lifted operator on
    frozensets, the cover-walk hull of the base class ``Lattice.hull`` over
    the images of the members, iterated from the set of all elements until
    it leaves an iterate fixed; the result and the whole trace."""
    lat = op.lattice
    trace = [frozenset(lat.elements)]
    while True:
        nxt = Lattice.hull(lat, {op(z) for z in trace[-1]})
        if nxt == trace[-1]:
            return nxt, trace
        trace.append(nxt)


def sets_json_oracle(members):
    """Reference for how a set of elements is listed: each member as the
    sorted list of its atoms, the lists sorted."""
    return sorted(sorted(m) for m in members)


def convex_output_oracle(frontend, atoms, result, trace, fmt):
    """Reference for the output of ``aft lp|adf --semantics convex-kk``:
    ``sets_json_oracle`` of the result and, when ``trace`` is not None, of
    each iterate, given as frozensets of frozensets, in JSON by the standard
    encoder or as text."""
    if fmt == "json":
        entry = {"members": sets_json_oracle(result)}
        if trace is not None:
            entry["trace"] = [sets_json_oracle(s) for s in trace]
        doc = {"schema": "aft/1", "frontend": frontend, "atoms": atoms, "convex-kk": entry}
        return json.dumps(doc, indent=2) + "\n"

    def shown(members):
        return ", ".join("{" + ",".join(m) + "}" for m in sets_json_oracle(members)) or "(none)"

    steps = [f"  step {i}: {shown(s)}\n" for i, s in enumerate(trace or ())]
    return f"convex-kk: {shown(result)}\n" + "".join(steps)


# -- test corpora: every two-atom program, and seeded frameworks --


def two_atom_rules() -> tuple[Rule, ...]:
    """The 18 candidate rules over {p, q}: each head with each body of at
    most two literals over disjoint positive/negative atom sets."""
    atoms = ("p", "q")
    bodies = []
    for pos_size in range(3):
        for pos in itertools.combinations(atoms, pos_size):
            rest = [a for a in atoms if a not in pos]
            for neg_size in range(3 - pos_size):
                for neg in itertools.combinations(rest, neg_size):
                    bodies.append((frozenset(pos), frozenset(neg)))
    return tuple(
        Rule(head, pos, neg) for head in atoms for pos, neg in bodies
    )


def exhaustive_two_atom_programs() -> Iterator[LogicProgram]:
    """All rule subsets of the two-atom candidate rules, smallest mask first.
    Deduplicated by construction: each program is a distinct rule set."""
    rules = two_atom_rules()
    n = len(rules)
    for mask in range(1 << n):
        yield LogicProgram(rules[i] for i in range(n) if mask >> i & 1)


def exhaustive_two_atom_count() -> int:
    return 1 << len(two_atom_rules())


def random_formula(rng: random.Random, names: list[str], depth: int) -> Formula:
    if depth <= 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.15:
            return Const(rng.random() < 0.5)
        return Var(rng.choice(names))
    kind = rng.choice(("neg", "and", "or"))
    if kind == "neg":
        return Not(random_formula(rng, names, depth - 1))
    left = random_formula(rng, names, depth - 1)
    right = random_formula(rng, names, depth - 1)
    return And(left, right) if kind == "and" else Or(left, right)


def random_adf(rng: random.Random, n_statements: int, depth: int = 3) -> Adf:
    names = _names(n_statements)
    conditions = {s: random_formula(rng, names, depth) for s in names}
    return Adf(names, conditions)


def random_adfs(
    count: int, *, seed: int = DEFAULT_SEED, min_statements: int = 1, max_statements: int = 3
) -> list[Adf]:
    rng = random.Random(seed)
    return [
        random_adf(rng, rng.randint(min_statements, max_statements)) for _ in range(count)
    ]


# -- token parsers, the references for ``parse_program`` and ``parse_adf`` --

_RESERVED = {"not"}


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


def parse_program_oracle(text: str) -> LogicProgram:
    """``parse_program`` token by token, with the first error's position."""
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


def parse_adf_oracle(text: str) -> Adf:
    """``parse_adf`` token by token, with the first error's position; it
    nests formulas to any depth Python's stack allows."""
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
