"""Acceptance battery.

One pass walks every corpus instance (the exhaustive two-atom family plus the
seeded random families) and accumulates violations per criterion; the
criterion tests then assert zero violations and print one verdict line each.

Run with:  pytest tests/test_acceptance.py -v -s
(the corpus pass takes a couple of minutes; the stable-oracle slice itself is
timed separately and must stay under its budget)
"""

import itertools
import json
import sys
import time

import pytest

from aft.adf import adf_approximator, parse_adf, program_to_adf
from aft.approx import (
    Approximator,
    ApproxPair,
    dual,
    is_exact_approximator,
    is_precision_monotone,
    is_symmetric,
    precision_leq,
    ultimate,
)
from aft.cli import main
from aft.convex import convex_kripke_kleene, embed_interval, hull, is_convex
from aft.corpus import (
    exhaustive_two_atom_count,
    exhaustive_two_atom_programs,
    random_adfs,
    random_programs,
)
from aft.fixpoints import (
    fixpoints_of,
    kripke_kleene,
    partial_stable_fixpoints,
    stable_models,
    supported_fixpoints,
    well_founded,
)
from aft.lattice import FiniteLattice, PowersetLattice
from aft.lp import _definite_lfp, fitting, parse_program, program_lattice, stable_models_oracle
from conftest import ABC_ADF, NEG_LOOP, POS_LOOP, SEPARATOR, TWO_CYCLE

pytestmark = pytest.mark.slow

ORACLE_BUDGET_SECONDS = 60.0
RANDOM_PROGRAMS = 500
CROSS_FRONTEND_PROGRAMS = 100
RANDOM_ADFS = 100
HULL_SAMPLES = 1000


def _check_program(prog, stats):
    lat = program_lattice(prog)
    a = fitting(prog, lat)
    base_op = a.operator
    # the approximator's table, which fixpoints_of, the supported search and
    # criteria 4, 5 and 6 read: they visit pairs again and again, and
    # applications are not remembered
    table = {key: a.apply(*key) for key in a.domain()}
    tab = Approximator(lat, table, operator=base_op)

    # 1. stable models: engine versus reduct oracle (timed slice)
    t0 = time.perf_counter()
    engine_stable = stable_models(a)
    oracle_stable = stable_models_oracle(prog)
    stats["c1_seconds"] += time.perf_counter() - t0
    if engine_stable != oracle_stable:
        stats["c1_violations"].append(prog.to_text())

    # 2. fixpoint taxonomy laws
    kk, _ = kripke_kleene(a)
    wf, _ = well_founded(a)
    partial = partial_stable_fixpoints(a)
    taxonomy_ok = (
        all(lat.leq(kk.lower, f.lower) and lat.leq(f.upper, kk.upper) for f in fixpoints_of(tab))
        and all(lat.leq(wf.lower, p.lower) and lat.leq(p.upper, wf.upper) for p in partial)
        and lat.leq(kk.lower, wf.lower)
        and lat.leq(wf.upper, kk.upper)
        and engine_stable <= supported_fixpoints(tab)
    )
    if not taxonomy_ok:
        stats["c2_violations"].append(prog.to_text())

    # 3. definite collapse
    if prog.is_definite and not (wf.exact and wf.lower == _definite_lfp(prog)):
        stats["c3_violations"].append(prog.to_text())
    stats["definite_count"] += prog.is_definite

    # 4. operator laws
    symmetric = is_symmetric(tab)
    if not (is_precision_monotone(tab) and is_exact_approximator(tab) and symmetric):
        stats["c4_violations"].append(prog.to_text())

    # 5. ultimate dominance and strict precision gain
    ult = ultimate(base_op)
    for lo, hi in lat.consistent_pairs():
        flo, fhi = table[(lo, hi)]
        ulo, uhi = ult.apply(lo, hi)
        if not (lat.leq(flo, ulo) and lat.leq(uhi, fhi)):
            stats["c5_violations"].append(prog.to_text())
            break
    kk_ult, _ = kripke_kleene(ult)
    if kk_ult.raw() != kk.raw():
        stats["c5_gains"] += 1
        if stats["c5_witness"] is None:
            stats["c5_witness"] = prog.to_text()

    # 6. duality laws
    d = dual(tab)
    d_table = {key: d.apply(*key) for key in table}
    dd = dual(Approximator(lat, d_table))
    duality_ok = all(dd.apply(*key) == out for key, out in table.items())
    if not (duality_ok and bool(symmetric) == (d_table == table)):
        stats["c6_violations"].append(prog.to_text())

    # 7. convex construction at least as precise as the ultimate interval
    convex, _ = convex_kripke_kleene(base_op)
    if not convex <= embed_interval(kk_ult):
        stats["c7_violations"].append(prog.to_text())
    stats["c7_gains"] += convex != embed_interval(kk_ult)

    # 10. parser round-trip
    if parse_program(prog.to_text()) != prog:
        stats["c10_violations"].append(prog.to_text())


def _run_battery():
    stats = {
        "programs": 0,
        "definite_count": 0,
        "c1_seconds": 0.0,
        "c1_violations": [],
        "c2_violations": [],
        "c3_violations": [],
        "c4_violations": [],
        "c5_violations": [],
        "c5_gains": 0,
        "c5_witness": None,
        "c6_violations": [],
        "c7_violations": [],
        "c7_gains": 0,
        "c10_violations": [],
        "c4_adf_violations": [],
        "c8_violations": [],
        "c10_adf_violations": [],
        "adfs": 0,
    }

    corpus = itertools.chain(
        exhaustive_two_atom_programs(),
        random_programs(RANDOM_PROGRAMS, seed=42, min_atoms=3, max_atoms=4),
    )
    progress_step = 65536
    for prog in corpus:
        stats["programs"] += 1
        if stats["programs"] % progress_step == 0:
            print(f"  ... {stats['programs']} programs", file=sys.stderr, flush=True)
        _check_program(prog, stats)

    for framework in random_adfs(RANDOM_ADFS, seed=42, max_statements=3):
        stats["adfs"] += 1
        a = adf_approximator(framework)
        if not (is_precision_monotone(a) and is_exact_approximator(a) and is_symmetric(a)):
            stats["c4_adf_violations"].append(framework.to_text())
        if parse_adf(framework.to_text()) != framework:
            stats["c10_adf_violations"].append(framework.to_text())

    for prog in random_programs(CROSS_FRONTEND_PROGRAMS, seed=42, min_atoms=1, max_atoms=3):
        fit, enc = fitting(prog), adf_approximator(program_to_adf(prog))
        agree = (
            kripke_kleene(enc)[0] == kripke_kleene(fit)[0]
            and stable_models(enc) == stable_models(fit)
            and well_founded(enc)[0] == well_founded(fit)[0]
            and partial_stable_fixpoints(enc) == partial_stable_fixpoints(fit)
        )
        if not agree:
            stats["c8_violations"].append(prog.to_text())

    return stats


@pytest.fixture(scope="session")
def battery():
    print("\nrunning corpus battery (exhaustive two-atom family + seeded random corpora)...", file=sys.stderr, flush=True)
    return _run_battery()


def _verdict(number, title, violations, extra=""):
    status = "PASS" if not violations else f"FAIL ({len(violations)} violations, first: {violations[0]!r})"
    print(f"criterion {number:2d} ({title}): {status}{extra}")
    assert violations == []


def test_criterion_01_stable_oracle_equivalence(battery):
    extra = (
        f" — {battery['programs']} programs"
        f" ({exhaustive_two_atom_count()} exhaustive + {RANDOM_PROGRAMS} random),"
        f" oracle slice {battery['c1_seconds']:.1f}s"
    )
    _verdict(1, "stable models equal reduct oracle", battery["c1_violations"], extra)
    assert battery["c1_seconds"] < ORACLE_BUDGET_SECONDS


def test_criterion_02_fixpoint_taxonomy_laws(battery):
    _verdict(2, "taxonomy laws on the full corpus", battery["c2_violations"])


def test_criterion_03_definite_collapse(battery):
    extra = f" — {battery['definite_count']} negation-free instances"
    _verdict(3, "well-founded exact and equal to least model on definite programs", battery["c3_violations"], extra)
    assert battery["definite_count"] > 0


def test_criterion_04_approximator_laws(battery):
    _verdict(4, "program operators: monotone, exact, symmetric", battery["c4_violations"])
    extra = f" — {battery['adfs']} frameworks"
    _verdict(4, "framework operators: monotone, exact, symmetric", battery["c4_adf_violations"], extra)


def test_criterion_05_ultimate_dominance_and_strict_gain(battery):
    extra = f" — {battery['c5_gains']} strict gains, witness {battery['c5_witness']!r}"
    _verdict(5, "ultimate dominance", battery["c5_violations"], extra)
    assert battery["c5_gains"] >= 1
    # the classic separator exhibits the gain deterministically
    sep = parse_program(SEPARATOR)
    lat = program_lattice(sep)
    kk_fit, _ = kripke_kleene(fitting(sep, lat))
    kk_ult, _ = kripke_kleene(ultimate(fitting(sep, lat).operator))
    assert precision_leq(kk_fit, kk_ult) and kk_fit != kk_ult


def test_criterion_06_duality(battery):
    _verdict(6, "dual involution and symmetry equals self-duality", battery["c6_violations"])


def test_criterion_07_convex_precision(battery):
    extra = f" — {battery['c7_gains']} instances strictly inside the ultimate interval"
    _verdict(7, "convex construction within the ultimate interval", battery["c7_violations"], extra)

    # order embedding, exhaustive on powersets of at most three atoms
    for universe in ((), ("p",), ("p", "q"), ("p", "q", "r")):
        lat = PowersetLattice(universe)
        pairs = [ApproxPair(lat, lo, hi) for lo, hi in lat.consistent_pairs()]
        for p in pairs:
            for q in pairs:
                assert precision_leq(p, q) == (embed_interval(q) <= embed_interval(p))
    print("criterion  7 (interval embedding is an order embedding): PASS")

    # hull closure laws on seeded random subsets of five-element lattices
    import random as _random

    lattices = [
        FiniteLattice.from_covers(range(5), [(i, i + 1) for i in range(4)]),
        FiniteLattice.from_covers(
            ["0", "a", "b", "c", "1"],
            [("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1")],
        ),
        FiniteLattice.from_covers(
            ["0", "x", "y", "z", "1"],
            [("0", "x"), ("0", "y"), ("0", "z"), ("x", "1"), ("y", "1"), ("z", "1")],
        ),
        PowersetLattice({"p", "q"}),
    ]
    rng = _random.Random(42)
    for i in range(HULL_SAMPLES):
        lat = lattices[i % len(lattices)]
        elems = sorted(lat.elements, key=repr)
        x = frozenset(e for e in elems if rng.random() < 0.4)
        y = x | frozenset(e for e in elems if rng.random() < 0.3)
        hx = hull(lat, x)
        assert x <= hx and hull(lat, hx) == hx and is_convex(lat, hx)
        assert hx <= hull(lat, y)
    print(f"criterion  7 (hull closure laws on {HULL_SAMPLES} seeded subsets): PASS")


def test_criterion_08_cross_frontend_consistency(battery):
    extra = f" — {CROSS_FRONTEND_PROGRAMS} encoded programs"
    _verdict(8, "framework encoding matches program semantics", battery["c8_violations"], extra)


def test_criterion_09_worked_examples_through_cli(tmp_path, capsys):
    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out

    two_cycle = tmp_path / "two-cycle.lp"
    two_cycle.write_text(TWO_CYCLE)
    code, out = run("lp", str(two_cycle), "--semantics", "wf")
    assert code == 0 and "p: unknown, q: unknown" in out
    code, out = run("lp", str(two_cycle), "--semantics", "wf,stable", "--format", "json")
    doc = json.loads(out)
    assert doc["wf"]["assignment"] == {"p": "unknown", "q": "unknown"}
    assert doc["stable"] == [["p"], ["q"]]

    pos_loop = tmp_path / "loop.lp"
    pos_loop.write_text(POS_LOOP)
    code, out = run("lp", str(pos_loop), "--semantics", "wf,kk")
    assert code == 0 and "wf: p: false" in out and "kk: p: unknown" in out
    code, out = run("lp", str(pos_loop), "--semantics", "wf", "--format", "json")
    assert json.loads(out)["wf"]["assignment"] == {"p": "false"}

    neg_loop = tmp_path / "neg.lp"
    neg_loop.write_text(NEG_LOOP)
    code, out = run("lp", str(neg_loop), "--semantics", "stable,wf")
    assert code == 0 and "stable: (none)" in out and "wf: p: unknown" in out
    code, out = run("lp", str(neg_loop), "--semantics", "stable", "--format", "json")
    assert json.loads(out)["stable"] == []

    abc = tmp_path / "abc.adf"
    abc.write_text(ABC_ADF)
    code, out = run("adf", str(abc), "--semantics", "stable")
    assert code == 0 and "stable: {a,b}" in out
    code, out = run("adf", str(abc), "--semantics", "stable,kk", "--format", "json")
    doc = json.loads(out)
    assert doc["stable"] == [["a", "b"]]
    assert doc["kk"]["assignment"] == {"a": "true", "b": "true", "c": "false"}

    print("criterion  9 (worked examples through the command line, text and json): PASS")


def test_criterion_10_parser_round_trips(battery):
    _verdict(10, "program grammar round-trips on the full corpus", battery["c10_violations"])
    _verdict(10, "framework grammar round-trips on the framework corpus", battery["c10_adf_violations"])
