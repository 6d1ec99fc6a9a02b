"""Seeded instance generators for the benchmark workloads.

Every instance is plain source text for the engine plus the generator's own
structured copy of it, which the reference checkers read. The engine never
sees the structured copy, and nothing here imports the engine.

A workload is a prologue followed by rounds, each with the same composition
(sizes, families, requested semantics) whatever the seed. The seed renames
atoms and shuffles rules, and for the battery it also draws the structures;
see SEEDED_STRUCTURE.

Programs are tuples of rules ``(head, pos, neg)``; frameworks are dicts from
statement name to formula, a formula being ``("const", bool)``,
``("var", name)``, ``("not", f)``, ``("and", f, g)`` or ``("or", f, g)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Semantics names as the CLI spells them.
KK_WF = ("kk", "wf")
ALL = ("kk", "wf", "supported", "stable", "partial-stable", "ultimate-kk", "ultimate-wf", "convex-kk")

# Size limits of the exhaustive semantics in scan-exhaustive, in atoms or statements.
PARTIAL_STABLE_MAX = 10
ULTIMATE_CONVEX_MAX = 12


@dataclass(frozen=True)
class Instance:
    """One request: CLI frontend, source text, requested semantics, and the
    structured copy the references check against.

    ``image_of`` is set for ``program_to_adf`` images: the request is then
    built from the program text inside the timed region, and the results
    must match the program's.
    """

    family: str
    frontend: str
    text: str
    semantics: tuple
    program: tuple | None = None
    adf: dict | None = None
    image_of: tuple | None = None

    @property
    def size(self) -> int:
        if self.adf is not None:
            return len(self.adf)
        return len(program_atoms(self.program or self.image_of))


# -- programs ----------------------------------------------------------------


def program_atoms(program) -> frozenset:
    atoms = set()
    for head, pos, neg in program:
        atoms.add(head)
        atoms.update(pos)
        atoms.update(neg)
    return frozenset(atoms)


def program_text(program) -> str:
    lines = []
    for head, pos, neg in program:
        body = list(pos) + [f"not {b}" for b in neg]
        lines.append(f"{head} :- {', '.join(body)}." if body else f"{head}.")
    return "\n".join(lines) + "\n"


def _names(n: int, prefix: str = "x") -> list[str]:
    return [f"{prefix}{i}" for i in range(n)]


def negation_chain(layers: int) -> tuple:
    """a0.  a{i+1} :- a{i}, not b{i}.  b{i} :- not a{i}.  (2 * layers + 1 atoms)

    Every layer is decided one well-founded outer step after the previous
    one, and each step re-runs both inner revisions from bottom.
    """
    a = _names(layers + 1, "a")
    b = _names(layers, "b")
    rules = [(a[0], (), ())]
    for i in range(layers):
        rules.append((a[i + 1], (a[i],), (b[i],)))
        rules.append((b[i], (), (a[i],)))
    return tuple(rules)


def random_program(rng: random.Random, n_atoms: int, rules_per_atom: float = 2.0, max_body: int = 3) -> tuple:
    """Random normal program: every atom heads one rule, the other heads are
    uniform; bodies of 0..max_body distinct atoms, each literal negated with
    probability 1/2. About one rule in twenty is a fact. Since every atom
    occurs, the universe has exactly n_atoms atoms."""
    names = _names(n_atoms)
    rules = []
    for i in range(max(n_atoms, round(rules_per_atom * n_atoms))):
        head = names[i] if i < n_atoms else rng.choice(names)
        size = 0 if rng.random() < 0.05 else rng.randint(1, max_body)
        body = rng.sample(names, min(size, n_atoms))
        pos = tuple(x for x in body if rng.random() < 0.5)
        neg = tuple(x for x in body if x not in pos)
        rules.append((head, pos, neg))
    return tuple(rules)


def even_negative_cycle(n_atoms: int) -> tuple:
    """p1 :- not p2. ... pn :- not p1 with n even: well-founded leaves every
    atom unknown and there are exactly two stable models."""
    names = _names(n_atoms)
    return tuple((names[i], (), (names[(i + 1) % n_atoms],)) for i in range(n_atoms))


def two_cycles(n_atoms: int) -> tuple:
    """n/2 independent two-cycles: wf all unknown, 2**(n/2) stable models."""
    names = _names(n_atoms)
    rules = []
    for i in range(0, n_atoms, 2):
        rules.append((names[i], (), (names[i + 1],)))
        rules.append((names[i + 1], (), (names[i],)))
    return tuple(rules)


def _two_atom_rules() -> tuple:
    """The 18 rules over {p, q} whose bodies have at most two literals over
    disjoint positive and negative atoms."""
    bodies = [
        ((), ()), (("p",), ()), (("q",), ()), ((), ("p",)), ((), ("q",)),
        (("p", "q"), ()), ((), ("p", "q")), (("p",), ("q",)), (("q",), ("p",)),
    ]
    return tuple((h, pos, neg) for h in ("p", "q") for pos, neg in bodies)


TWO_ATOM_RULES = _two_atom_rules()


def two_atom_program(mask: int) -> tuple:
    """Member ``mask`` of the exhaustive family of 2**18 two-atom programs."""
    return tuple(r for i, r in enumerate(TWO_ATOM_RULES) if mask >> i & 1)


# -- frameworks --------------------------------------------------------------


def formula_text(f) -> str:
    kind = f[0]
    if kind == "const":
        return "true" if f[1] else "false"
    if kind == "var":
        return f[1]
    if kind == "not":
        return f"neg({formula_text(f[1])})"
    return f"{kind}({formula_text(f[1])}, {formula_text(f[2])})"


def adf_text(adf: dict) -> str:
    lines = [f"s({s})." for s in adf]
    lines += [f"ac({s}, {formula_text(f)})." for s, f in adf.items()]
    return "\n".join(lines) + "\n"


def random_formula(rng: random.Random, names: list[str], depth: int):
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.15:
            return ("const", rng.random() < 0.5)
        return ("var", rng.choice(names))
    kind = rng.choice(("not", "and", "or"))
    if kind == "not":
        return ("not", random_formula(rng, names, depth - 1))
    return (kind, random_formula(rng, names, depth - 1), random_formula(rng, names, depth - 1))


def random_adf(rng: random.Random, n_statements: int, depth: int = 3) -> dict:
    names = _names(n_statements, "s")
    return {s: random_formula(rng, names, depth) for s in names}


def program_image(program) -> dict:
    """The framework ``program_to_adf`` should produce, written by hand so the
    references can evaluate it; used only to check, never sent."""
    adf = {}
    for atom in sorted(program_atoms(program)):
        bodies = []
        for head, pos, neg in program:
            if head == atom:
                lits = [("var", b) for b in pos] + [("not", ("var", b)) for b in neg]
                bodies.append(_fold("and", lits, ("const", True)))
        adf[atom] = _fold("or", bodies, ("const", False))
    return adf


def _fold(kind, parts, empty):
    if not parts:
        return empty
    out = parts[0]
    for part in parts[1:]:
        out = (kind, out, part)
    return out


# -- instances ---------------------------------------------------------------


def scan_semantics(size: int) -> tuple:
    """Every semantics whose size limit admits ``size`` atoms or statements."""
    names = ["kk", "wf", "supported", "stable"]
    if size <= PARTIAL_STABLE_MAX:
        names.append("partial-stable")
    if size <= ULTIMATE_CONVEX_MAX:
        names += ["ultimate-kk", "ultimate-wf", "convex-kk"]
    return tuple(n for n in ALL if n in names)


def _scan(kind, structure):
    size = len(structure) if kind == "adf" else len(program_atoms(structure))
    return kind, structure, scan_semantics(size)


def _small_program(rng):
    return random_program(rng, rng.randint(3, 4), rules_per_atom=1.5, max_body=2)


# family -> (rng, size) -> (kind, structure, semantics), kind being "lp",
# "adf" or "image". Sizes are chain layers (2 * layers + 1 atoms), atoms, or
# statements; the battery families draw their own.
MAKERS = {
    "chain": lambda rng, k: ("lp", negation_chain(k), KK_WF),
    "random": lambda rng, n: ("lp", random_program(rng, n), KK_WF),
    "scan-lp": lambda rng, n: _scan("lp", random_program(rng, n, max_body=2)),
    "scan-adf": lambda rng, n: _scan("adf", random_adf(rng, n)),
    "scan-image": lambda rng, n: _scan("image", random_program(rng, n, max_body=2)),
    "even-cycle": lambda rng, n: _scan("lp", even_negative_cycle(n)),
    "two-cycles": lambda rng, n: _scan("lp", two_cycles(n)),
    "two-atom": lambda rng, _: ("lp", two_atom_program(rng.randrange(1 << len(TWO_ATOM_RULES))), ALL),
    "random-lp": lambda rng, _: ("lp", _small_program(rng), ALL),
    "random-adf": lambda rng, _: ("adf", random_adf(rng, rng.randint(1, 3)), ALL),
    "image": lambda rng, _: ("image", _small_program(rng), ALL),
}


def _renaming(names, surface: random.Random, prefix: str) -> dict:
    names = sorted(names)
    ids = list(range(len(names)))
    surface.shuffle(ids)
    return {name: f"{prefix}{i}" for name, i in zip(names, ids)}


def _rename_formula(f, to):
    if f[0] == "var":
        return ("var", to[f[1]])
    if f[0] == "const":
        return f
    return (f[0],) + tuple(_rename_formula(g, to) for g in f[1:])


def disguise(family: str, kind: str, structure, semantics, surface: random.Random) -> Instance:
    """Rename atoms and shuffle rules or declarations with the seeded
    ``surface`` generator, then render the instance."""
    prefix = surface.choice("abcdefghijklmnopqrstuvwxyz")
    if kind == "adf":
        to = _renaming(structure, surface, prefix)
        order = list(structure)
        surface.shuffle(order)
        adf = {to[s]: _rename_formula(structure[s], to) for s in order}
        return Instance(family, "adf", adf_text(adf), semantics, adf=adf)
    to = _renaming(program_atoms(structure), surface, prefix)
    program = [(to[h], tuple(to[b] for b in pos), tuple(to[b] for b in neg)) for h, pos, neg in structure]
    surface.shuffle(program)
    program = tuple(program)
    if kind == "image":
        return Instance(family, "adf", program_text(program), semantics, adf=program_image(program), image_of=program)
    return Instance(family, "lp", program_text(program), semantics, program=program)


def _spec(*items):
    """("family", size, ...) pairs -> tuple of (family, size)."""
    return tuple(zip(items[::2], items[1::2]))


@dataclass(frozen=True)
class Mix:
    """A workload's prologue, run once at the start of every run, and its
    round, repeated; with their nominal CPU seconds on a 2-core x86_64
    machine, from which ``rounds`` sizes a run."""

    prologue: tuple
    round: tuple
    prologue_s: float
    round_s: float

    def rounds(self, seconds: float) -> int:
        """Whole rounds that bring a run nearest to ``seconds``. A run is a
        fixed amount of work, so every run has the same mix and the latency
        quantiles fall at the same positions."""
        return max(1, round((seconds - self.prologue_s) / self.round_s))


# The prologue holds the instances too large to repeat: the largest negation
# chain that completes under the memory ceiling (165 layers, 331 atoms), the
# largest random programs, and the largest scans. Each latency quantile
# should fall inside a cluster of equal-cost instances rather than in a gap
# between two: in large-wf the median lands among the 50-layer chains and
# p75 among the 75-layer ones, in scan-exhaustive both among the 10- and
# 12-atom cycles and the 10-11 statement frameworks.
FULL = {
    "large-wf": Mix(
        _spec("chain", 165, "random", 5000, "random", 2000),
        _spec(
            "random", 500, "chain", 50, "random", 1000, "chain", 75, "chain", 50,
            "random", 500, "chain", 75, "chain", 50, "chain", 75, "chain", 100,
        ),
        9.3,
        4.1,
    ),
    "scan-exhaustive": Mix(
        _spec("scan-lp", 14, "even-cycle", 14, "scan-lp", 13, "two-cycles", 14, "scan-adf", 12),
        _spec(
            "scan-lp", 8, "scan-adf", 8, "even-cycle", 10, "scan-lp", 9, "scan-image", 9,
            "two-cycles", 10, "scan-lp", 10, "scan-adf", 10, "even-cycle", 12, "scan-lp", 11,
            "scan-adf", 11, "two-cycles", 12, "scan-lp", 12, "scan-image", 8, "scan-adf", 9,
            "two-cycles", 12,
        ),
        9.0,
        6.7,
    ),
    "battery": Mix((), _spec("two-atom", 2, "random-lp", 4, "random-adf", 3, "image", 4) * 250, 0.0, 2.6),
}

# The self-test variant: every family, at sizes that run in milliseconds.
TINY = {
    "large-wf": Mix(_spec("chain", 8, "random", 40), _spec("chain", 3, "random", 20), 0.0, 0.25),
    "scan-exhaustive": Mix(
        _spec("scan-lp", 5, "even-cycle", 4),
        _spec("scan-lp", 4, "scan-adf", 3, "two-cycles", 4, "scan-image", 4),
        0.0,
        0.25,
    ),
    "battery": Mix((), _spec("two-atom", 2, "random-lp", 4, "random-adf", 3, "image", 4), 0.0, 0.25),
}

# Workloads whose structures the seed draws. A large-wf or scan-exhaustive
# run holds a few dozen instances of up to seconds each, too few for the
# draw to average out: with seeded structures their throughput and median
# spread 24-28% between seeds on a 2-core x86_64 machine. There the
# structures come from one fixed stream, and the seed renames atoms,
# shuffles rules and sets the hash seed.
SEEDED_STRUCTURE = ("battery",)


def batches(workload: str, seed: int, sizes: dict = FULL):
    """Endless seeded stream of instance lists: the prologue, then rounds."""
    mix = sizes[workload]
    surface = random.Random(f"{workload}/{seed}")
    structure = surface if workload in SEEDED_STRUCTURE else random.Random(f"{workload}/structure")

    def make(spec):
        return [disguise(family, *MAKERS[family](structure, size), surface) for family, size in spec]

    yield make(mix.prologue)
    while True:
        yield make(mix.round)
