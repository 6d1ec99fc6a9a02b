"""Command-line entry point.

    aft lp  FILE [--semantics LIST] [--format text|json] [--trace] [--validate]
    aft adf FILE [--semantics LIST] [--format text|json] [--trace] [--validate]
    aft check {lp,adf,tab} FILE [--format text|json]
    aft compare FILE | aft compare --corpus N [--seed S]

FILE may be ``-`` for stdin. Exit codes: 0 success, 1 unreadable or malformed
input or unwritable output (silently when the reader closed it), 2 violated
internal law (a broken operator or failed check).

Pair-valued results are displayed three-valued: an atom is true when in the
lower bound, false when outside the upper bound, unknown otherwise. JSON
output is schema-stable and carries ``"schema": "aft/1"``.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
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
from .bitmask import MaskSet
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
# function request -> (result, trace or None). A "pair" is an ApproxPair,
# "sets" a set of elements, "pairs" a set of ApproxPairs and "convex" a convex
# set. The functions look the engine's names up when called, so a module
# global replaced after import (by a tracer, say) is the one used.
SEMANTICS = {
    "kk": ("pair", lambda r: kripke_kleene(r.approximator)),
    "wf": ("pair", lambda r: well_founded(r.approximator, trace=r.trace)),
    "supported": ("sets", lambda r: (supported_fixpoints(r.approximator), None)),
    "stable": ("sets", lambda r: (stable_models(r.approximator), None)),
    "partial-stable": ("pairs", lambda r: (partial_stable_fixpoints(r.approximator), None)),
    "ultimate-kk": ("pair", lambda r: kripke_kleene(r.ultimate)),
    "ultimate-wf": ("pair", lambda r: well_founded(r.ultimate, trace=r.trace)),
    "convex-kk": ("convex", lambda r: convex_kripke_kleene(r.approximator.operator)),
}


class Request:
    """What the semantics of one request share: the approximator, whether
    traces are printed, and the ultimate approximator of its operator, built
    on first use, so that ``ultimate-kk`` and ``ultimate-wf`` share its
    remembered fixpoints and revisions. Nothing outlives the request."""

    def __init__(self, approximator: Approximator, trace: bool = False):
        self.approximator = approximator
        self.trace = trace

    @functools.cached_property
    def ultimate(self) -> Approximator:
        # the module's ``ultimate``, looked up when called
        return ultimate(self.approximator.operator)


_INPUT_ERRORS = (
    ParseError,
    UndeclaredStatement,
    MissingCondition,
    ForeignAtom,
    TooManyAtoms,
    ValueError,
)


def _read_source(source: str) -> str:
    # a failed read is an input error, and a failed write is not
    try:
        if source == "-":
            return sys.stdin.read()
        with open(source, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ValueError(str(exc)) from exc


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


def _load_frontend(frontend: str, text: str) -> Approximator:
    if frontend == "lp":
        prog = parse_program(text)
        return fitting(prog, program_lattice(prog))
    framework = parse_adf(text)
    return adf_approximator(framework, PowersetLattice(framework.statements))


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
    # a MaskSet, which convex-kk returns, lists its members in this order
    # from their masks, as tuples
    if type(sets) is MaskSet:
        return sets.sorted_members()
    return sorted(sorted(m) for m in sets)


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


def _text(doc: dict) -> str:
    """The ``--format text`` view of an ``aft/1`` document, without the
    final newline."""
    mode = doc.get("mode")
    if mode == "check":
        verdicts = {None: "skipped (no base operator)", True: "ok"}
        lines = [
            f"{c['law']}: " + verdicts.get(c["ok"], f"FAIL  witness: {c['witness']}")
            for c in doc["checks"]
        ]
    elif mode == "compare-corpus":
        gains = doc["gains"]
        lines = [
            f"programs: {doc['programs']} (seed {doc['seed']})",
            f"ultimate-kk strictly more precise than fitting-kk: {gains['ultimate_over_fitting']}",
            "convex-kk strictly smaller than ultimate-kk interval: "
            + str(gains["convex_over_ultimate_interval"]),
        ]
    elif mode == "compare":
        gains = doc["comparison"]
        lines = [
            f"{label}: {_text_lines(SEMANTICS[name][0], doc[label])[0]}" for label, name in _COMPARED
        ] + [
            "ultimate-kk vs fitting-kk: "
            + ("strictly more precise" if gains["ultimate_strict_gain"] else "equal"),
            "convex-kk vs ultimate-kk interval: "
            + ("strictly smaller" if gains["convex_strict_gain"] else "equal"),
        ]
    else:  # a run: one entry per semantics, in their order
        lines = []
        for name, entry in doc.items():
            if name in SEMANTICS:
                result, steps = _text_lines(SEMANTICS[name][0], entry)
                lines.append(f"{name}: {result}")
                lines += [f"  step {i}: {step}" for i, step in enumerate(steps)]
    return "\n".join(lines)


class _Quoted(dict):
    # the JSON form of each string, encoded once per document
    def __missing__(self, s: str) -> str:
        self[s] = quoted = json.encoder.encode_basestring_ascii(s)
        return quoted


def _json_text(doc) -> str:
    """``json.dumps(doc, indent=2)`` for a document of dicts with string keys,
    lists, strings, bools, None and numbers. With an indent the standard
    library leaves its C encoder. This writer quotes each distinct string
    once, joins a list of strings, mostly atom names, in one call, and joins
    the pieces once at the end, so no container's text is copied into its
    parent's."""
    pieces: list[str] = []
    _write_json(doc, "", _Quoted(), pieces.append)
    return "".join(pieces)


# the most lists of strings that a list may hold to be written value by
# value, which costs less for a few
_FEW_ROWS = 16


def _write_json(value, pad: str, quoted: _Quoted, put) -> None:
    # a module function rather than a closure: a closure that calls itself is
    # a reference cycle, which would hold each document's pieces until the
    # next cyclic collection; tuples are written as lists
    if isinstance(value, str):
        put(quoted[value])
        return
    if not isinstance(value, (dict, list, tuple)):
        put(json.dumps(value))
        return
    if not value:
        put("{}" if isinstance(value, dict) else "[]")
        return
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(value, dict):
        lead = "{\n" + inner
        for k, v in value.items():
            put(lead + quoted[k] + ": ")
            _write_json(v, inner, quoted, put)
            lead = sep
        put("\n" + pad + "}")
        return
    head = value[0]
    try:
        if isinstance(head, str):
            put("[\n" + inner + sep.join(map(quoted.__getitem__, value)) + "\n" + pad + "]")
            return
        # many lists of strings, as the members of a set of elements are, are
        # written row by row here; a few, which cost less value by value,
        # and lists of such lists, as traces are, go value by value below
        many = len(value) > _FEW_ROWS and {list, tuple} >= set(map(type, value))
        if many and all(isinstance(a, str) for a in head[:1]):
            lead = "[\n" + inner
            for row in _rows_json(value, inner, quoted):
                put(lead)
                put(row)
                lead = sep
            put("\n" + pad + "]")
            return
    except TypeError:  # strings mixed with other values
        pass
    lead = "[\n" + inner
    for v in value:
        put(lead)
        _write_json(v, inner, quoted, put)
        lead = sep
    put("\n" + pad + "]")


def _rows_json(rows, pad: str, quoted: _Quoted) -> list[str]:
    """The JSON of each list of strings in ``rows``, at ``pad``, all built
    before any is written, so that a row holding anything but strings
    raises TypeError first. Apart from ``_write_json``, whose every call
    would otherwise make cells of the names this comprehension reads."""
    inner = pad + "  "
    start, sep, end = "[\n" + inner, ",\n" + inner, "\n" + pad + "]"
    text = quoted.__getitem__
    return [start + sep.join(map(text, row)) + end if row else "[]" for row in rows]


# -- run ---------------------------------------------------------------------


def _cmd_run(args) -> dict:
    names = _parse_semantics(args.semantics)
    approximator = _load_frontend(args.frontend, _read_source(args.source))
    if args.validate:
        verify_approximator(approximator)
    atoms = sorted(approximator.lattice.universe)
    doc: dict = {"schema": "aft/1", "frontend": args.frontend, "atoms": atoms}
    request = Request(approximator, args.trace)
    for name in names:
        kind, compute = SEMANTICS[name]
        value, trace = compute(request)
        doc[name] = _json_entry(kind, value, trace if args.trace else None, atoms)
    # the document holds everything left to print; returning frees the
    # approximators' fixpoints and the last result before it is encoded
    return doc


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


def _load_tabulated(text: str) -> Approximator:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed approximator table: not JSON: {exc}") from exc
    try:
        if not (isinstance(doc, dict) and {"universe", "pairs"} <= doc.keys()):
            raise TypeError(f"not an object with universe and pairs: {json.dumps(doc)}")
        if not isinstance(doc["pairs"], list):
            raise TypeError(f"pairs is not a list: {json.dumps(doc['pairs'])}")
        universe = _atoms(doc["universe"], "universe")
        lat = PowersetLattice(universe)
        table = {}
        for entry in doc["pairs"]:
            if not (isinstance(entry, dict) and {"in", "out"} <= entry.keys()):
                raise TypeError(f"pair is not an object with in and out: {json.dumps(entry)}")
            key = _bounds(entry, "in", universe)
            out = _bounds(entry, "out", universe)
            if table.setdefault(key, out) != out:
                raise TypeError(f"in listed twice with different outputs: {json.dumps(entry)}")
    except TypeError as exc:
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
    return Approximator(lat, table, name="tabulated")


def _cmd_check(args) -> dict:
    text = _read_source(args.source)
    if args.frontend == "tab":
        approximator = _load_tabulated(text)
    else:
        approximator = _load_frontend(args.frontend, text)

    checks = [("precision-monotone", is_precision_monotone(approximator))]
    if approximator.operator is not None:
        checks.append(("approximates-operator", brackets_operator(approximator)))
        checks.append(("exact-on-diagonal", is_exact_approximator(approximator)))
    else:
        checks.append(("approximates-operator", None))
        checks.append(("exact-on-diagonal", None))
    checks.append(("symmetric", is_symmetric(approximator)))

    return {
        "schema": "aft/1",
        "mode": "check",
        "ok": all(c for _, c in checks if c is not None),
        "checks": [
            {
                "law": law,
                "ok": None if c is None else bool(c),
                "witness": None if c is None or c.holds else repr(c.witness),
            }
            for law, c in checks
        ],
    }


# -- compare -----------------------------------------------------------------

# (label, semantics) of the constructions compared, in output order
_COMPARED = (("fitting-kk", "kk"), ("ultimate-kk", "ultimate-kk"), ("convex-kk", "convex-kk"))


def _compare_one(prog):
    request = Request(fitting(prog, program_lattice(prog)))
    values = [SEMANTICS[name][1](request)[0] for _, name in _COMPARED]
    kk_fit, kk_ult, kk_cvx = values
    interval_ult = embed_interval(kk_ult)
    return values, {
        "fitting_leq_ultimate": precision_leq(kk_fit, kk_ult),
        "ultimate_strict_gain": kk_fit != kk_ult,
        "convex_within_ultimate_interval": kk_cvx <= interval_ult,
        "convex_strict_gain": kk_cvx != interval_ult,
    }


def _cmd_compare(args) -> dict:
    if args.corpus is not None and args.source is not None:
        raise ValueError("compare takes a file or --corpus N, not both")
    if args.corpus is not None:
        if args.corpus < 0:
            raise ValueError(f"--corpus needs a count of programs, not {args.corpus}")
        comparisons = [_compare_one(p)[1] for p in random_programs(args.corpus, seed=args.seed)]
        return {
            "schema": "aft/1",
            "mode": "compare-corpus",
            "seed": args.seed,
            "programs": len(comparisons),
            "gains": {
                "ultimate_over_fitting": sum(c["ultimate_strict_gain"] for c in comparisons),
                "convex_over_ultimate_interval": sum(c["convex_strict_gain"] for c in comparisons),
            },
        }

    if args.source is None:
        raise ValueError("compare needs a file or --corpus N")
    prog = parse_program(_read_source(args.source))
    atoms = sorted(prog.atoms)
    values, comparison = _compare_one(prog)
    doc = {"schema": "aft/1", "mode": "compare", "atoms": atoms}
    for (label, name), value in zip(_COMPARED, values):
        doc[label] = _json_entry(SEMANTICS[name][0], value, None, atoms)
    doc["comparison"] = comparison
    return doc


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
        doc = args.func(args)
        print(_json_text(doc) if args.fmt == "json" else _text(doc))
        sys.stdout.flush()
        # a check that failed a law
        return 2 if doc.get("ok") is False else 0
    except OSError as exc:
        # a failed write; what is still buffered goes nowhere, so the flush at
        # exit cannot fail again, and a reader that closed stdout hears nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write the output: {exc}", file=sys.stderr)
        return 1
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AftError as exc:
        print(f"internal law violated: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
