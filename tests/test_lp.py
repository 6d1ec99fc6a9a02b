import hashlib
import random
import sys
import threading
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aft.corpus import random_program, random_programs
from aft.errors import ForeignAtom, LatticeMismatch, ParseError, TooManyAtoms
from aft.fixpoints import partial_stable_fixpoints, stable_models, well_founded
from aft.lattice import PowersetLattice
from aft.lp import (
    LogicProgram,
    Rule,
    _definite_lfp,
    _rule_tables,
    fitting,
    gl_reduct,
    parse_program,
    program_lattice,
    stable_models_oracle,
    tp,
)
from conftest import (
    fitting_step_oracle,
    fs,
    is_stratified,
    parse_program_oracle,
    random_adf,
    random_adfs,
)


# (text, line, column, message) of the first ParseError: CRLF and tab each
# count as one column, and an unexpected character anywhere wins over an
# earlier grammar error
LP_PARSE_ERRORS = [
    ("p :- q, not r", 1, 14, "expected '.'"),
    ("p.\r\nq :- , r.\r\n", 2, 6, "expected an atom"),
    ("p.\r\nq :- r\r\n", 3, 1, "expected '.'"),
    ("p.\n\tq :-\t, r.", 2, 7, "expected an atom"),
    ("\t\tp :- q\t.\n\t?", 2, 2, "unexpected character '?'"),
    ("% a comment\np :- q % trailing\n", 3, 1, "expected '.'"),
    ("% only\n% comments\np :-", 3, 5, "expected an atom"),
    ("p :- not", 1, 9, "expected an atom"),
    ("p :- q,", 1, 8, "expected an atom"),
    ("not.", 1, 1, "'not' is reserved and cannot name an atom"),
    ("p :- not not.", 1, 10, "'not' is reserved and cannot name an atom"),
    ("a :- not.", 1, 9, "expected an atom"),
    ("p :- , q.\nr :- s?", 2, 7, "unexpected character '?'"),
    ("p :- , q.\nr :- sé.", 2, 7, "unexpected character 'é'"),
    ("P.", 1, 1, "unexpected character 'P'"),
    ("p :- q.\n\n  r s.", 3, 5, "expected '.'"),
    ("p.%x\nq :- r %y\n%z", 3, 3, "expected '.'"),
    ("p :- q. r :- (s).", 1, 14, "expected an atom"),
]


class TestParser:
    @pytest.mark.parametrize("text,line,column,message", LP_PARSE_ERRORS)
    def test_error_positions(self, text, line, column, message):
        with pytest.raises(ParseError) as exc:
            parse_program(text)
        assert (exc.value.line, exc.value.column) == (line, column)
        assert str(exc.value) == f"{message} (line {line}, column {column})"

    def test_framework_keywords_name_atoms(self):
        assert parse_program("and :- not and.").atoms == fs("and")

    def test_two_rules(self):
        prog = parse_program("p :- not q.\nq :- not p.")
        assert len(prog.rules) == 2
        assert prog.atoms == fs("p", "q")
        assert prog.rules[0] == Rule("p", fs(), fs("q"))

    def test_fact(self):
        prog = parse_program("p.")
        assert prog.rules == (Rule("p"),)
        assert prog.atoms == fs("p")

    def test_missing_period_reported_at_line_end(self):
        with pytest.raises(ParseError) as exc:
            parse_program("p :- q, not r")
        assert exc.value.line == 1
        assert exc.value.column == 14

    def test_error_position_on_later_line(self):
        with pytest.raises(ParseError) as exc:
            parse_program("p.\nq :- , r.")
        assert exc.value.line == 2
        assert exc.value.column == 6

    def test_reserved_word(self):
        with pytest.raises(ParseError):
            parse_program("not :- p.")

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as exc:
            parse_program("p :- q?")
        assert exc.value.column == 7

    def test_comments_and_whitespace(self):
        prog = parse_program("% a comment\n  p   :-   q ,   not r .  % trailing\nq.\n")
        assert prog.atoms == fs("p", "q", "r")
        assert prog.rules[0] == Rule("p", fs("q"), fs("r"))

    def test_empty_text(self):
        prog = parse_program("  % nothing here\n")
        assert prog.rules == ()
        assert prog.atoms == fs()

    def test_case_sensitive_names(self):
        prog = parse_program("p :- pX.")
        assert prog.atoms == fs("p", "pX")

    def test_body_only_atoms_enter_universe(self):
        prog = parse_program("p :- not q.")
        assert "q" in prog.atoms

    def test_round_trip_examples(self):
        for text in ("p :- not q.\nq :- not p.", "p.", "a :- b, c, not d, not e.\nb."):
            prog = parse_program(text)
            assert parse_program(prog.to_text()) == prog


# pieces of program text, valid and not: names that look like the keyword,
# the keyword itself, comments (a stray % among them), every whitespace the
# grammar admits and some it does not
PIECES = (
    ["p", "q", "a1", "nota", "x_Y", "not", "not not", "not "] * 3
    + [" ", " ", "\n", "\t", "\r\n", "\r", ":-", ":-", ",", ",", ".", "."]
    + ["% note\n", "%", "\v", "é", "(", "?", ":", "-", "P", "1"]
)


def random_text(rng):
    """A program whose rules are mostly well formed, with a few random
    pieces put in or taken out, and sometimes a comment at end of file."""
    out = []
    for _ in range(rng.randint(0, 5)):
        body = [rng.choice(["p", "q", "a1", "nota", "not p", "not\tq", "not nota"])]
        body += rng.sample(["q", "not a1", "x_Y"], rng.randint(0, 2))
        sep = rng.choice([", ", ",", " ,\n", ",% c\n"])
        out.append(rng.choice(["p", "q", "nota"]) + (" :- " + sep.join(body) if rng.random() < 0.8 else "") + ".")
        out.append(rng.choice(["\n", " ", "\r\n", "\t", "", " % c\n"]))
    pieces = list("".join(out))
    for _ in range(rng.choice([0, 0, 1, 2, 4])):
        at = rng.randint(0, len(pieces))
        if rng.random() < 0.7 or not pieces:
            pieces.insert(at, rng.choice(PIECES))
        else:
            del pieces[min(at, len(pieces) - 1)]
    if rng.random() < 0.1:
        pieces.append("% at end of file")
    return "".join(pieces)


def parse_outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return (str(exc), exc.line, exc.column)


@pytest.mark.parametrize(
    "text",
    [
        "a :- not.",
        "p :- not not q.",
        "p :- nota, not nota.",
        "not :- p.",
        "p.% comment at end of file",
        "p :- q. %",
        "p :- not%c\nq.",
        "p :-\tq,\r\nnot r.",
        "p :- q\v.",
        "p :- qé.",
    ],
)
def test_regex_parse_equals_the_token_parse_on_examples(text):
    assert parse_outcome(parse_program, text) == parse_outcome(parse_program_oracle, text)


def test_regex_parse_equals_the_token_parse_on_random_texts():
    rng = random.Random(2024)
    parsed = failed = 0
    for _ in range(4000):
        text = random_text(rng)
        expected = parse_outcome(parse_program_oracle, text)
        assert parse_outcome(parse_program, text) == expected, text
        if isinstance(expected, LogicProgram):
            parsed += 1
        else:
            failed += 1
    # both paths are exercised: well-formed texts and every kind of error
    assert parsed > 1000 and failed > 1000


@pytest.mark.parametrize(
    "text",
    [
        # a long run of whitespace where the grammar fails next: one way of
        # matching the run, not one per split of it
        *(
            pytest.param(head + " " * 100_000 + "?", id=head)
            for head in ["p", "p :- q", "p :- q,", "p :-", "p :- not", "p."]
        ),
        pytest.param("p :- " + "x" * 100_000 + "é", id="bad-character"),
        pytest.param("p :- " + "x " * 50_000 + ".", id="two-names"),
        pytest.param("%" + "x" * 100_000 + "\n?", id="comment"),
        pytest.param("p :- q, not r. " * 6_667 + "p :- q,", id="cut"),
        pytest.param("p :- q, not r. " * 6_667 + "p :- not not.", id="reserved"),
        pytest.param("p :- q, not r. " * 6_667 + "p : q.", id="colon"),
    ],
)
def test_malformed_text_fails_in_linear_time(text):
    # 100,000 characters, wrong only at the end or from the second word on;
    # every check before the error is linear in the text
    assert len(text) >= 100_000
    start = time.process_time()
    with pytest.raises(ParseError):
        parse_program(text)
    assert time.process_time() - start < 0.5


names = st.sampled_from(["p", "q", "r", "s"])


@st.composite
def programs(draw):
    n = draw(st.integers(0, 6))
    rules = []
    for _ in range(n):
        head = draw(names)
        body = draw(st.sets(names, max_size=3))
        neg = frozenset(b for b in body if draw(st.booleans()))
        rules.append(Rule(head, frozenset(body) - neg, neg))
    return LogicProgram(rules)


@given(programs())
def test_round_trip_generated(prog):
    assert parse_program(prog.to_text()) == prog


def text_with_repeats(rng):
    """A program text whose bodies may repeat a literal or name an atom both
    ways, with facts and atoms that occur only in bodies, and the program of
    ``Rule`` objects it stands for."""
    lines, rules = [], []
    for _ in range(rng.randint(0, 8)):
        head = rng.choice("pqr")
        body = [(rng.random() < 0.5, rng.choice("pqrst")) for _ in range(rng.choice([0, 0, 1, 2, 3, 4]))]
        words = [f"not {a}" if negated else a for negated, a in body]
        lines.append(f"{head} :- {', '.join(words)}." if words else f"{head}.")
        pos = frozenset(a for negated, a in body if not negated)
        neg = frozenset(a for negated, a in body if negated)
        rules.append(Rule(head, pos, neg))
    return "\n".join(lines), LogicProgram(rules)


def assert_parsed_as(text, built):
    # the parser's tables are those of the program built from rules, and
    # the rules built from them give every view the rules give
    parsed = parse_program(text)
    assert parsed.tables == _rule_tables(built)
    assert parsed.atoms == built.atoms
    assert parse_program(text) == built
    assert parsed.rules == built.rules
    assert hash(parsed) == hash(built)
    assert parsed.to_text() == built.to_text()
    assert repr(parsed) == repr(built)


@pytest.mark.parametrize(
    "text,rules",
    [
        ("p :- q, q.", [Rule("p", fs("q"))]),
        ("p :- not q, not q.", [Rule("p", fs(), fs("q"))]),
        ("p :- q, not q.", [Rule("p", fs("q"), fs("q"))]),
        ("p :- q, not q, q, not q.", [Rule("p", fs("q"), fs("q"))]),
        ("p. p :- p, p. q :- not r, s, not r.", [Rule("p"), Rule("p", fs("p")), Rule("q", fs("s"), fs("r"))]),
        ("", []),
    ],
)
def test_parser_tables_equal_the_rule_tables_on_examples(text, rules):
    assert_parsed_as(text, LogicProgram(rules))


def test_parser_tables_equal_the_rule_tables_on_seeded_programs():
    rng = random.Random(36)
    for _ in range(300):
        assert_parsed_as(*text_with_repeats(rng))
    for prog in random_programs(300, seed=36, min_atoms=1, max_atoms=8):
        assert_parsed_as(prog.to_text(), prog)


class TestTp:
    def test_two_cycle_table(self, two_cycle):
        op = tp(two_cycle)
        assert op(fs()) == fs("p", "q")
        assert op(fs("p", "q")) == fs()
        assert op(fs("p")) == fs("p")

    def test_fact_always_fires(self):
        prog = parse_program("p.")
        op = tp(prog)
        for x in program_lattice(prog).elements:
            assert op(x) == fs("p")

    @pytest.mark.parametrize("universe", [set(), {"q"}, {"p", "q"}])
    def test_lattice_of_other_atoms_is_refused(self, universe):
        # over {q} the fact would otherwise be dropped silently
        with pytest.raises(LatticeMismatch):
            tp(parse_program("p."), PowersetLattice(universe))


class TestFitting:
    def test_two_cycle_at_least_precise(self, two_cycle):
        a = fitting(two_cycle)
        assert a.apply(fs(), fs("p", "q")) == (fs(), fs("p", "q"))

    def test_positive_loop(self, pos_loop):
        a = fitting(pos_loop)
        assert a.apply(fs(), fs("p")) == (fs(), fs("p"))

    def test_collapses_on_exact_pairs(self, two_cycle, separator):
        for prog in (two_cycle, separator):
            lat = program_lattice(prog)
            a = fitting(prog, lat)
            op = tp(prog, lat)
            for x in lat.elements:
                assert a.apply(x, x) == (op(x), op(x))

    @pytest.mark.parametrize("universe", [set(), {"q"}, {"p", "q"}])
    def test_lattice_of_other_atoms_is_refused(self, universe):
        with pytest.raises(LatticeMismatch):
            fitting(parse_program("p."), PowersetLattice(universe))

    def test_total_on_inconsistent_pairs(self, two_cycle):
        a = fitting(two_cycle)
        lo, hi = a.apply(fs("p", "q"), fs())
        assert a.lattice.has(lo) and a.lattice.has(hi)

    def test_contradictory_body_never_fires_below(self):
        # pos and neg may overlap; such a rule can only fire on pairs that
        # are inconsistent about the shared atom
        prog = LogicProgram([Rule("p", fs("q"), fs("q"))])
        a = fitting(prog)
        for lo, hi in a.lattice.consistent_pairs():
            out_lo, out_hi = a.apply(lo, hi)
            assert out_lo == fs()
        assert a.apply(fs("q"), fs())[0] == fs("p")


# a call to one of two steps: ("jump", lower, upper) with indices into the
# lattice's elements, "repeat" that step's last pair, or "follow" its output
STEP_CALLS = st.lists(
    st.tuples(
        st.integers(0, 1),
        st.one_of(
            st.tuples(st.just("jump"), st.integers(0, 255), st.integers(0, 255)),
            st.tuples(st.sampled_from(["repeat", "follow"])),
        ),
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 8), st.booleans(), STEP_CALLS)
def test_semi_naive_step_equals_the_whole_rule_oracle(seed, n, overlap, calls):
    # the steps of two approximators of one program, called directly,
    # interleaved in any order over consistent and inconsistent pairs alike
    prog = random_program(random.Random(seed), n)
    if overlap and n:
        a = sorted(prog.atoms)[0]
        prog = LogicProgram(prog.rules + (Rule(a, fs(a), fs(a)),))
    lat = program_lattice(prog)
    elements = sorted(lat.elements, key=sorted)
    oracle = fitting_step_oracle(prog)
    steps = [fitting(prog, lat)._fn, fitting(prog, lat)._fn]
    last = [(lat.bottom, lat.top)] * 2
    outs = [(lat.bottom, lat.top)] * 2
    for which, call in calls:
        if call[0] == "jump":
            pair = (elements[call[1] % len(elements)], elements[call[2] % len(elements)])
        else:
            pair = last[which] if call[0] == "repeat" else outs[which]
        outs[which] = steps[which](*pair)
        assert outs[which] == oracle(*pair)
        last[which] = pair


def test_step_shared_between_threads_answers_like_the_oracle():
    # a switch interval of a microsecond makes the threads interleave inside
    # steps; every answer must still be the whole-rule step's
    prog = random_program(random.Random(7), 26, max_body=3)
    atoms = sorted(prog.atoms)
    step = fitting(prog)._fn
    oracle = fitting_step_oracle(prog)
    wrong = []

    def worker(seed):
        rng = random.Random(seed)
        for _ in range(400):
            pair = (
                frozenset(a for a in atoms if rng.random() < 0.5),
                frozenset(a for a in atoms if rng.random() < 0.5),
            )
            if step(*pair) != oracle(*pair):
                wrong.append(pair)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def random_ys(rng, atoms, count):
    """Sets of atoms to take reduct models at: each shrinks, grows, repeats
    or replaces the one before."""
    y = frozenset()
    for _ in range(count):
        move = rng.choice(["shrink", "grow", "repeat", "other"])
        if move == "shrink":
            y = frozenset(a for a in y if rng.random() < 0.7)
        elif move == "grow":
            y = y | frozenset(a for a in atoms if rng.random() < 0.3)
        elif move == "other":
            y = frozenset(a for a in atoms if rng.random() < 0.5)
        yield y


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 10))
def test_revision_hook_is_the_least_model_of_the_reduct(seed, n):
    # the hook itself, past the revisions the approximator keeps, so repeated
    # sets reach it
    rng = random.Random(seed)
    prog = random_program(rng, n, max_body=3)
    hook = fitting(prog).revision
    for y in random_ys(rng, sorted(prog.atoms), 30):
        assert hook(y) == _definite_lfp(gl_reduct(prog, y))


def test_revision_hook_shared_between_threads_answers_like_the_oracle():
    # as for the step: threads interleave inside the hook, and each stores
    # states the others may start from
    prog = random_program(random.Random(11), 26, max_body=3)
    atoms = sorted(prog.atoms)
    hook = fitting(prog).revision
    wrong = []

    def worker(seed):
        rng = random.Random(seed)
        for y in random_ys(rng, atoms, 300):
            if hook(y) != _definite_lfp(gl_reduct(prog, y)):
                wrong.append(y)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


class TestReduct:
    def test_two_cycle_reduct(self, two_cycle):
        reduct = gl_reduct(two_cycle, fs("p"))
        assert reduct == LogicProgram([Rule("p")])

    def test_negative_loop_reduct_at_empty(self, neg_loop):
        assert gl_reduct(neg_loop, fs()) == LogicProgram([Rule("p")])

    def test_definite_program_unchanged(self, definite):
        for m in program_lattice(definite).elements:
            assert gl_reduct(definite, m) == definite

    def test_foreign_atoms_rejected(self, two_cycle):
        with pytest.raises(ForeignAtom):
            gl_reduct(two_cycle, fs("z"))


class TestOracle:
    def test_classics(self, two_cycle, neg_loop):
        assert stable_models_oracle(two_cycle) == {fs("p"), fs("q")}
        assert stable_models_oracle(neg_loop) == set()
        assert stable_models_oracle(parse_program("p.")) == {fs("p")}

    def test_contradictory_body_agrees_with_engine(self):
        from aft.fixpoints import stable_models

        prog = LogicProgram([Rule("p", fs("q"), fs("q")), Rule("q", fs(), fs("p"))])
        assert stable_models(fitting(prog)) == stable_models_oracle(prog)

    def test_guard_on_large_universes(self):
        prog = LogicProgram([Rule(f"a{i}") for i in range(21)])
        with pytest.raises(TooManyAtoms, match="stable-model oracle limit of 20"):
            stable_models_oracle(prog)


class TestStratification:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("p :- not q.", True),
            ("p :- p.", True),
            ("p :- not q.\nq :- not p.", False),
            ("p :- not p.", False),
            ("a :- b.\nb :- not c.\nc :- d.\nd :- c.", True),
            ("a :- b.\nb :- not a.", False),
        ],
    )
    def test_examples(self, text, expected):
        assert is_stratified(parse_program(text)) == expected


def stratified_by_closure(program):
    """Reference: close the dependency relation transitively, then look for a
    negative edge whose head depends back on its body atom."""
    depends = {(b, r.head) for r in program.rules for b in r.pos | r.neg}
    while True:
        grown = depends | {(a, d) for a, b in depends for c, d in depends if b == c}
        if grown == depends:
            break
        depends = grown
    return all(
        n != r.head and (r.head, n) not in depends for r in program.rules for n in r.neg
    )


@given(programs())
def test_stratified_matches_transitive_closure(prog):
    assert is_stratified(prog) == stratified_by_closure(prog)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 8))
def test_a_stratified_program_has_one_stable_model_the_well_founded_one(seed, n):
    # Van Gelder, Ross and Schlipf (JACM 1991): on a stratified program the
    # well-founded model is two-valued and is the only stable model
    prog = random_program(random.Random(seed), n)
    assume(is_stratified(prog))
    a = fitting(prog)
    wf, _ = well_founded(a)
    assert wf.exact
    assert stable_models(a) == {wf.lower} == stable_models_oracle(prog)
    assert partial_stable_fixpoints(a) == {wf}


def test_random_program_over_no_atoms_is_empty():
    assert random_program(random.Random(0), 0) == parse_program("")


def test_random_corpora_name_up_to_26_atoms():
    assert len(random_adf(random.Random(1), 14).statements) == 14
    assert len(random_program(random.Random(1), 26).atoms) <= 26
    with pytest.raises(ValueError, match="at most 26"):
        random_program(random.Random(1), 27)
    with pytest.raises(ValueError, match="at most 26"):
        random_adf(random.Random(1), 27)


def test_seeded_corpora_are_unchanged():
    # digests of the corpora the acceptance battery draws: growing the name
    # alphabet must not change any draw of ten atoms or fewer
    def digest(texts):
        return hashlib.sha256("\n\n".join(texts).encode()).hexdigest()

    assert digest(p.to_text() for p in random_programs(500, seed=42)) == (
        "9a55ded31011b1dcc3c6d85da467808f68a752754780d90d6bbea560eb8906af"
    )
    assert digest(f.to_text() for f in random_adfs(100, seed=42)) == (
        "9b7da55daca0c9069b7291e54712baf623356569ea640b91bf66dd8077638400"
    )
