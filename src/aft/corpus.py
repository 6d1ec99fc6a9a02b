"""Seeded random programs, the corpus ``aft compare --corpus N --seed S``
draws: ``random_programs(N, seed=S)``, reproducible from the seed. The
tests draw their programs and frameworks from the same ``random_program``
and atom names (``_names``).
"""

from __future__ import annotations

import random

from .lp import LogicProgram, Rule

DEFAULT_SEED = 42

_ATOM_NAMES = "abcdefghijklmnopqrstuvwxyz"


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
