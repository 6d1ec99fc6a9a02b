"""Deterministic corpora of programs and frameworks for law checking.

Two families:

* the exhaustive family: every program over the two atoms p, q whose rules
  have bodies of at most two literals with disjoint positive and negative
  parts (9 possible bodies per head, 18 candidate rules, all 2**18 rule
  sets);
* seeded random families of programs and frameworks, reproducible from an
  explicit seed.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator

from .adf import Adf, And, Const, Formula, Not, Or, Var
from .lp import LogicProgram, Rule

DEFAULT_SEED = 42

_ATOM_NAMES = "abcdefghijklmnopqrstuvwxyz"


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


def _names(n: int) -> list[str]:
    if n > len(_ATOM_NAMES):
        raise ValueError(f"random corpora name at most {len(_ATOM_NAMES)} atoms, not {n}")
    return list(_ATOM_NAMES[:n])


def random_program(rng: random.Random, n_atoms: int, max_body: int = 2) -> LogicProgram:
    if n_atoms == 0:
        return LogicProgram([])
    atoms = _names(n_atoms)
    n_rules = rng.randint(1, 2 * n_atoms)
    rules = []
    for _ in range(n_rules):
        head = rng.choice(atoms)
        body_size = rng.randint(0, min(max_body, n_atoms))
        body = rng.sample(atoms, body_size)
        pos = frozenset(b for b in body if rng.random() < 0.5)
        neg = frozenset(body) - pos
        rules.append(Rule(head, pos, neg))
    return LogicProgram(rules)


def random_programs(
    count: int, *, seed: int = DEFAULT_SEED, min_atoms: int = 3, max_atoms: int = 4
) -> list[LogicProgram]:
    rng = random.Random(seed)
    return [
        random_program(rng, rng.randint(min_atoms, max_atoms)) for _ in range(count)
    ]


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
