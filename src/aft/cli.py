"""Command-line entry point.

    aft lp  FILE [--semantics LIST] [--format text|json] [--trace] [--validate]
    aft adf FILE [--semantics LIST] [--format text|json] [--trace] [--validate]
    aft check {lp,adf,tab} FILE [--format text|json]
    aft compare FILE | aft compare --corpus N [--seed S]

FILE may be ``-`` for stdin. Exit codes: 0 success, 1 unreadable or malformed
input, 2 violated internal law (a broken operator or failed check).

Pair-valued results are displayed three-valued: an atom is true when in the
lower bound, false when outside the upper bound, unknown otherwise. JSON
output is schema-stable and carries ``"schema": "aft/1"``.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys

from .adf import adf_approximator, parse_adf
from .approx import (
    Approximator,
    brackets_operator,
    is_exact_approximator,
    is_precision_monotone,
    is_symmetric,
    precision_leq,
    ultimate,
    verify_approximator,
)
from .convex import convex_kripke_kleene, embed_interval
from .corpus import DEFAULT_SEED, random_programs
from .errors import (
    AftError,
    ForeignAtom,
    MissingCondition,
    ParseError,
    TooManyAtoms,
    UndeclaredStatement,
)
from .fixpoints import (
    kripke_kleene,
    partial_stable_fixpoints,
    stable_models,
    supported_fixpoints,
    well_founded,
)
from .lattice import PowersetLattice
from .lp import fitting, parse_program, program_lattice

# Each semantics by name, in output order: the kind of its result and a
# function (approximator, lattice) -> (result, trace or None). A "pair" is an
# ApproxPair, "sets" a set of elements, "pairs" a set of ApproxPairs and
# "convex" a convex set. The functions look the engine's names up when called,
# so a module global replaced after import (by a tracer, say) is the one used.
SEMANTICS = {
    "kk": ("pair", lambda a, lat: kripke_kleene(a)),
    "wf": ("pair", lambda a, lat: well_founded(a)),
    "supported": ("sets", lambda a, lat: (supported_fixpoints(a), None)),
    "stable": ("sets", lambda a, lat: (stable_models(a), None)),
    "partial-stable": ("pairs", lambda a, lat: (partial_stable_fixpoints(a), None)),
    "ultimate-kk": ("pair", lambda a, lat: kripke_kleene(ultimate(lat, a.operator))),
    "ultimate-wf": ("pair", lambda a, lat: well_founded(ultimate(lat, a.operator))),
    "convex-kk": ("convex", lambda a, lat: convex_kripke_kleene(lat, a.operator)),
}

_INPUT_ERRORS = (
    ParseError,
    UndeclaredStatement,
    MissingCondition,
    ForeignAtom,
    TooManyAtoms,
    OSError,
    ValueError,
)


def _read_source(source: str) -> str:
    if source == "-":
        return sys.stdin.read()
    with open(source, encoding="utf-8") as handle:
        return handle.read()


def _parse_semantics(raw: str) -> tuple[str, ...]:
    names = [n.strip() for n in raw.split(",") if n.strip()]
    if not names:
        raise ValueError("at least one semantics must be selected")
    if "all" in names:
        return tuple(SEMANTICS)
    for n in names:
        if n not in SEMANTICS:
            raise ValueError(f"unknown semantics {n!r}; choose from {', '.join(SEMANTICS)} or all")
    return tuple(n for n in SEMANTICS if n in names)


def _load_frontend(frontend: str, text: str):
    if frontend == "lp":
        prog = parse_program(text)
        lat = program_lattice(prog)
        approximator = fitting(prog, lat)
    else:
        framework = parse_adf(text)
        lat = PowersetLattice(framework.statements)
        approximator = adf_approximator(framework, lat)
    return lat, approximator


# -- rendering ---------------------------------------------------------------


def _pair_json(pair, atoms) -> dict:
    assignment = {}
    for a in atoms:
        if a in pair.lower:
            assignment[a] = "true"
        elif a not in pair.upper:
            assignment[a] = "false"
        else:
            assignment[a] = "unknown"
    return {"lower": sorted(pair.lower), "upper": sorted(pair.upper), "assignment": assignment}


def _sets_json(sets) -> list:
    return sorted((sorted(m) for m in sets), key=tuple)


def _json_entry(kind: str, value, trace, atoms):
    """The ``aft/1`` JSON entry of a result of the given kind, with its trace
    steps unless ``trace`` is None."""
    if kind == "sets":
        return _sets_json(value)
    if kind == "pairs":
        return sorted(
            (_pair_json(p, atoms) for p in value), key=lambda d: (d["lower"], d["upper"])
        )
    if kind == "pair":
        entry, step = _pair_json(value, atoms), lambda p: _pair_json(p, atoms)
    else:
        entry, step = {"members": _sets_json(value)}, _sets_json
    if trace is not None:
        entry["trace"] = [step(s) for s in trace]
    return entry


def _assignment_text(pair_entry: dict) -> str:
    shown = ", ".join(f"{a}: {v}" for a, v in pair_entry["assignment"].items())
    return shown or "(no atoms)"


def _sets_text(sets: list) -> str:
    return ", ".join("{" + ",".join(m) + "}" for m in sets) or "(none)"


def _text_lines(kind: str, entry) -> tuple[str, list[str]]:
    """The text of a JSON entry: the result, then one line per trace step."""
    if kind == "sets":
        return _sets_text(entry), []
    if kind == "pairs":
        return ", ".join(f"[{_assignment_text(p)}]" for p in entry) or "(none)", []
    if kind == "pair":
        return _assignment_text(entry), [_assignment_text(p) for p in entry.get("trace", ())]
    return _sets_text(entry["members"]), [_sets_text(s) for s in entry.get("trace", ())]


# -- run ---------------------------------------------------------------------


def _cmd_run(args) -> int:
    names = _parse_semantics(args.semantics)
    lat, approximator = _load_frontend(args.frontend, _read_source(args.source))
    if args.validate:
        verify_approximator(approximator)
    atoms = sorted(lat.universe)
    doc: dict = {"schema": "aft/1", "frontend": args.frontend, "atoms": atoms}
    for name in names:
        kind, compute = SEMANTICS[name]
        value, trace = compute(approximator, lat)
        doc[name] = _json_entry(kind, value, trace if args.trace else None, atoms)
    # the document holds everything left to print; the approximator's memo
    # and the last result go before it is encoded
    del approximator, value, trace

    if args.fmt == "json":
        print(json.dumps(doc, indent=2))
        return 0
    for name in names:
        result, steps = _text_lines(SEMANTICS[name][0], doc[name])
        print(f"{name}: {result}")
        for i, step in enumerate(steps):
            print(f"  step {i}: {step}")
    return 0


# -- check -------------------------------------------------------------------


def _atoms(value, what: str) -> frozenset:
    # a JSON string would otherwise be read as the set of its characters
    if not (isinstance(value, list) and all(isinstance(a, str) for a in value)):
        raise TypeError(f"{what} is not a list of strings: {json.dumps(value)}")
    return frozenset(value)


def _bounds(entry, what: str, universe: frozenset) -> tuple:
    value = entry[what]
    if not (isinstance(value, list) and len(value) == 2):
        raise TypeError(f"{what} is not a pair of bounds: {json.dumps(entry)}")
    lo, hi = (_atoms(bound, what) for bound in value)
    if not lo | hi <= universe:
        raise TypeError(f"{what} names atoms outside the universe: {json.dumps(entry)}")
    return lo, hi


def _load_tabulated(text: str):
    try:
        doc = json.loads(text)
        universe = _atoms(doc["universe"], "universe")
        lat = PowersetLattice(universe)
        table = {}
        for entry in doc["pairs"]:
            key = _bounds(entry, "in", universe)
            out = _bounds(entry, "out", universe)
            if table.setdefault(key, out) != out:
                raise TypeError(f"in listed twice with different outputs: {json.dumps(entry)}")
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed approximator table: {exc}") from exc
    # counted before anything enumerates the lattice, which a short table
    # over a large declared universe would otherwise have to do
    needed = lat.size**2
    if len(table) < needed:
        raise ValueError(
            f"approximator table is not total: {len(table)} pairs listed, {needed} needed"
        )
    missing = [
        key for key in itertools.product(lat.elements, repeat=2) if key not in table
    ]
    if missing:
        raise ValueError(f"approximator table is not total: missing {missing[0]!r}")
    return lat, Approximator(lat, table, name="tabulated")


def _cmd_check(args) -> int:
    text = _read_source(args.source)
    if args.frontend == "tab":
        lat, approximator = _load_tabulated(text)
    else:
        lat, approximator = _load_frontend(args.frontend, text)
    base_op = approximator.operator

    checks = [("precision-monotone", is_precision_monotone(approximator))]
    if base_op is not None:
        checks.append(("approximates-operator", brackets_operator(approximator, base_op)))
        checks.append(("exact-on-diagonal", is_exact_approximator(approximator, base_op)))
    else:
        checks.append(("approximates-operator", None))
        checks.append(("exact-on-diagonal", None))
    checks.append(("symmetric", is_symmetric(approximator)))

    ok = all(c for _, c in checks if c is not None)
    if args.fmt == "json":
        doc = {
            "schema": "aft/1",
            "mode": "check",
            "ok": bool(ok),
            "checks": [
                {
                    "law": law,
                    "ok": None if c is None else bool(c),
                    "witness": None if c is None or c.holds else repr(c.witness),
                }
                for law, c in checks
            ],
        }
        print(json.dumps(doc, indent=2))
    else:
        for law, c in checks:
            if c is None:
                print(f"{law}: skipped (no base operator)")
            elif c.holds:
                print(f"{law}: ok")
            else:
                print(f"{law}: FAIL  witness: {c.witness!r}")
    return 0 if ok else 2


# -- compare -----------------------------------------------------------------

# (label, semantics) of the constructions compared, in output order
_COMPARED = (("fitting-kk", "kk"), ("ultimate-kk", "ultimate-kk"), ("convex-kk", "convex-kk"))


def _compare_one(prog):
    lat = program_lattice(prog)
    approximator = fitting(prog, lat)
    values = [SEMANTICS[name][1](approximator, lat)[0] for _, name in _COMPARED]
    kk_fit, kk_ult, kk_cvx = values
    interval_ult = embed_interval(kk_ult)
    return values, {
        "fitting_leq_ultimate": precision_leq(kk_fit, kk_ult),
        "ultimate_strict_gain": kk_fit != kk_ult,
        "convex_within_ultimate_interval": kk_cvx <= interval_ult,
        "convex_strict_gain": kk_cvx != interval_ult,
    }


def _cmd_compare(args) -> int:
    if args.corpus is not None:
        if args.corpus < 0:
            raise ValueError(f"--corpus needs a count of programs, not {args.corpus}")
        programs = random_programs(args.corpus, seed=args.seed)
        ult_gains = 0
        cvx_gains = 0
        for prog in programs:
            _, comparison = _compare_one(prog)
            ult_gains += comparison["ultimate_strict_gain"]
            cvx_gains += comparison["convex_strict_gain"]
        if args.fmt == "json":
            doc = {
                "schema": "aft/1",
                "mode": "compare-corpus",
                "seed": args.seed,
                "programs": len(programs),
                "gains": {
                    "ultimate_over_fitting": ult_gains,
                    "convex_over_ultimate_interval": cvx_gains,
                },
            }
            print(json.dumps(doc, indent=2))
        else:
            print(f"programs: {len(programs)} (seed {args.seed})")
            print(f"ultimate-kk strictly more precise than fitting-kk: {ult_gains}")
            print(f"convex-kk strictly smaller than ultimate-kk interval: {cvx_gains}")
        return 0

    if args.source is None:
        raise ValueError("compare needs a file or --corpus N")
    prog = parse_program(_read_source(args.source))
    atoms = sorted(prog.atoms)
    values, comparison = _compare_one(prog)
    doc = {"schema": "aft/1", "mode": "compare", "atoms": atoms}
    for (label, name), value in zip(_COMPARED, values):
        doc[label] = _json_entry(SEMANTICS[name][0], value, None, atoms)
    doc["comparison"] = comparison
    if args.fmt == "json":
        print(json.dumps(doc, indent=2))
        return 0
    for label, name in _COMPARED:
        print(f"{label}: {_text_lines(SEMANTICS[name][0], doc[label])[0]}")
    print(
        "ultimate-kk vs fitting-kk: "
        + ("strictly more precise" if comparison["ultimate_strict_gain"] else "equal")
    )
    print(
        "convex-kk vs ultimate-kk interval: "
        + ("strictly smaller" if comparison["convex_strict_gain"] else "equal")
    )
    return 0


# -- entry -------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # built on the first call, not at import, and then reused: parsing leaves
    # the parser unchanged, and building it costs about a millisecond
    parser = argparse.ArgumentParser(
        prog="aft",
        description="Fixpoint semantics of logic programs and dialectical frameworks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for frontend, blurb in (("lp", "normal logic program"), ("adf", "dialectical framework")):
        s = sub.add_parser(frontend, help=f"compute semantics of a {blurb}")
        s.add_argument("source", metavar="file", help="input file, or - for stdin")
        s.add_argument(
            "--semantics",
            default="all",
            help="comma-separated subset of: " + ", ".join(SEMANTICS) + ", all",
        )
        s.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
        s.add_argument("--trace", action="store_true", help="include iteration traces")
        s.add_argument("--validate", action="store_true", help="verify the operator laws first")
        s.set_defaults(func=_cmd_run, frontend=frontend)

    c = sub.add_parser("check", help="law-by-law validation of the induced operator")
    c.add_argument("frontend", choices=("lp", "adf", "tab"))
    c.add_argument("source", metavar="file")
    c.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
    c.set_defaults(func=_cmd_check)

    m = sub.add_parser("compare", help="precision of interval, ultimate and convex constructions")
    m.add_argument("source", metavar="file", nargs="?")
    m.add_argument("--corpus", type=int, metavar="N", help="scan N seeded random programs instead")
    m.add_argument("--seed", type=int, default=DEFAULT_SEED)
    m.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
    m.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AftError as exc:
        print(f"internal law violated: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
