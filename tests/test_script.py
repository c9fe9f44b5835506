import random
from typing import get_args

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from consentry import script
from consentry.core import Ledger
from consentry.errors import ConsentryError, ExecutionError, LexError, ParseError
from consentry.script import (
    KEYWORDS,
    Access,
    Assume,
    Collect,
    Grant,
    NewData,
    NewDisjoint,
    NewEquiv,
    NewRecipient,
    ROLES,
    Statement,
    Step,
    Token,
    TokenKind,
    Withdraw,
    execute,
    parse,
    parse_script,
    print_program,
    run_script,
    tokenize,
)

from conftest import GOLDEN_SCRIPTS, golden_text
from support import reference_parse, reference_tokenize


class TestTokenize:
    def test_kinds(self):
        toks = tokenize("grant retro DrivingRoute datasubject1 Advertiser :c1")
        assert [t.kind for t in toks] == [
            TokenKind.KEYWORD, TokenKind.KEYWORD, TokenKind.NAME,
            TokenKind.NAME, TokenKind.NAME, TokenKind.LABEL]
        assert toks[-1].text == "c1"  # label text drops the colon

    def test_time_tokens(self):
        toks = tokenize("access X s R T1 T12")
        assert [t.kind for t in toks[-2:]] == [TokenKind.TIME, TokenKind.TIME]
        assert toks[-1].text == "T12"

    def test_time_like_names_are_names(self):
        # Only a bare T followed by digits is a time token.
        toks = tokenize("collect T1x subject Tx")
        assert [t.kind for t in toks[1:]] == [TokenKind.NAME] * 3

    def test_comments_and_blanks_vanish(self):
        text = "# header\n\nstep  # trailing\n   # indented comment\n"
        toks = tokenize(text)
        assert toks == [Token(TokenKind.KEYWORD, "step", 3, 1)]

    def test_line_and_column_positions(self):
        toks = tokenize("step\n  collect A b C")
        assert (toks[0].line, toks[0].column) == (1, 1)
        assert (toks[1].line, toks[1].column) == (2, 3)
        assert (toks[2].line, toks[2].column) == (2, 11)

    def test_illegal_character(self):
        with pytest.raises(LexError) as err:
            tokenize("step\ncollect A@b C")
        assert err.value.line == 2

    def test_dangling_colon(self):
        with pytest.raises(LexError):
            tokenize("withdraw :")


# Word characters plus every character the lexer treats specially: blanks,
# line ends (\r, \n), characters str.splitlines() also breaks at but a line
# keeps (\x0c, \x85, U+2028), a label colon, a comment mark, and two
# characters no token may hold.
LEXER_ALPHABET = st.sampled_from(
    list("aTz_Z09") + [":", "#", " ", "\t", "\r", "\x0c", "\x85", "\u2028", "\xe9", "@",
                       "\n"])


def _lex_outcome(lex, text):
    try:
        return lex(text)
    except LexError as err:
        return (err.line, err.column, err.message)


class TestTokenizeAgainstReference:
    @settings(max_examples=500)
    @given(st.text(LEXER_ALPHABET, max_size=40)
           | st.lists(st.sampled_from(["new", "T", "T1", "7", "x", ":c1", ": ", "#",
                                       "\n", " ", "\t", "\r\n", "@", "a:b", "step"]),
                      max_size=12).map("".join))
    @example("grant retro A s R :c1 # note\n\n  access A s R T1 T120\n")
    @example("step\x85collect A@b C")
    @example("ok\x0c  :\n")
    def test_same_tokens_or_same_error(self, text):
        assert _lex_outcome(tokenize, text) == _lex_outcome(reference_tokenize, text)


# Statement templates: N is a name, L a label, T a time step; other words
# are kept as written. Mutations then insert, replace or drop words.
TEMPLATES = [
    "new data N N", "new recipient N", "new disjoint N N N", "new equiv N N",
    "grant N N N L", "grant retro N N N L", "withdraw L", "withdraw retro L",
    "collect N N N", "access N N N", "access N N N T", "access N N N T T", "step",
    "assume true collect N N N", "assume false access N N N T T", "", "# comment",
]
SLOTS = {
    "N": st.sampled_from(["A", "Beta", "s1", "_r", "T1x", "Tx", "Trans"]),
    "L": st.sampled_from([":c1", ":new", ":T3", ":x_2"]),
    "T": st.sampled_from(["T0", "T1", "T3", "T12", "T007"]),
}
WORDS = st.one_of(
    *SLOTS.values(), st.sampled_from(sorted(KEYWORDS)),
    st.sampled_from(["#", "# note", "@", "\xe9", ":", "::a", "1a", "a:b", "A\xa0B", "\x1f",
                     "\u2028", "\x0c"]))


@st.composite
def script_lines(draw):
    words = [draw(SLOTS[w]) if w in SLOTS else w
             for w in draw(st.sampled_from(TEMPLATES)).split()]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(words)))
        change = draw(st.sampled_from(["insert", "replace", "drop"]))
        if change == "insert" or at == len(words):
            words.insert(at, draw(WORDS))
        elif change == "replace":
            words[at] = draw(WORDS)
        else:
            del words[at]
    blank = draw(st.sampled_from([" ", " ", " ", "  ", "\t", " \t"]))
    return draw(st.sampled_from(["", " ", "\t"])) + blank.join(words)


def _parse_outcome(parse_text, text):
    try:
        return [(stmt, stmt.line) for stmt in parse_text(text)]
    except (LexError, ParseError) as err:
        return (type(err).__name__, err.line, getattr(err, "column", None), err.message)


# Characters str.splitlines() breaks at that end no script line.
NOT_LINE_ENDS = ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]


class TestLineEnds:
    @pytest.mark.parametrize("char", NOT_LINE_ENDS)
    def test_comment_keeps_its_line(self, char):
        text = f"new data X Data # note{char}grant\nassume false collect X s R\n"
        assert [s.line for s in parse(text)] == [1, 2]
        report = run_script(text)
        assert report.passed and len(report.assumes) == 1

    @pytest.mark.parametrize("char", NOT_LINE_ENDS)
    def test_illegal_outside_a_comment(self, char):
        for lex in (parse, tokenize):
            with pytest.raises(LexError) as err:
                lex(f"step\nstep {char}step\n")
            assert (err.value.line, err.value.column) == (2, 6)
            assert repr(char) in err.value.message


class TestParseAgainstReference:
    @settings(max_examples=600)
    @given(st.lists(script_lines(), min_size=1, max_size=6),
           st.sampled_from(["\n", "\r\n", "\r"]))
    @example(["step", "frobnicate A", "collect A@b C"], "\n")  # lex error comes first
    @example(["access A b C T0"], "\n")
    @example(["access A b C T3 T5 T7", ":orphan"], "\n")
    @example(["grant retro A s R :c1 # note", "", "withdraw  retro\t:c1"], "\r\n")
    def test_same_statements_or_same_error(self, lines, newline):
        text = newline.join(lines)
        assert _parse_outcome(parse_script, text) == _parse_outcome(reference_parse, text)

    def test_later_lex_error_is_found_without_tokens(self, monkeypatch):
        def no_tokens(text):
            raise AssertionError("parse built tokens")
        monkeypatch.setattr(script, "tokenize", no_tokens)
        with pytest.raises(LexError) as err:
            parse("step\nfrobnicate A\nstep\ncollect A@b C\n")
        assert (err.value.line, err.value.column) == (4, 10)


class TestParse:
    def test_every_statement_form(self):
        text = """\
new data DrivingRoute RealTimeLocation
new recipient Advertiser
new disjoint WalkingRoute DrivingRoute CyclingRoute
new equiv Location LegacyLocation
grant DrivingRoute datasubject1 Advertiser :consent1
grant retro Contacts datasubject1 Partner :consent2
withdraw :consent1
withdraw retro :consent2
collect DrivingRoute datasubject1 Advertiser
access Contacts datasubject1 Partner
access Contacts datasubject1 Partner T3
access Contacts datasubject1 Partner T3 T7
step
assume true collect DrivingRoute datasubject1 Advertiser
assume false access Contacts datasubject1 Partner T2 T4
"""
        got = parse_script(text)
        assert got == [
            NewData("DrivingRoute", "RealTimeLocation"),
            NewRecipient("Advertiser"),
            NewDisjoint(("WalkingRoute", "DrivingRoute", "CyclingRoute")),
            NewEquiv("Location", "LegacyLocation"),
            Grant("DrivingRoute", "datasubject1", "Advertiser", "consent1"),
            Grant("Contacts", "datasubject1", "Partner", "consent2", retro=True),
            Withdraw("consent1"),
            Withdraw("consent2", retro=True),
            Collect("DrivingRoute", "datasubject1", "Advertiser"),
            Access("Contacts", "datasubject1", "Partner"),
            Access("Contacts", "datasubject1", "Partner", 3),
            Access("Contacts", "datasubject1", "Partner", 3, 7),
            Step(),
            Assume(True, Collect("DrivingRoute", "datasubject1", "Advertiser")),
            Assume(False, Access("Contacts", "datasubject1", "Partner", 2, 4)),
        ]

    def test_line_numbers_survive_comments(self):
        stmts = parse_script("# header\n\ngrant A b C :x\n")
        assert stmts[0].line == 3

    def test_lines_do_not_affect_equality(self):
        assert parse_script("step\n")[0] == parse_script("\n\nstep\n")[0]

    @pytest.mark.parametrize("bad", [
        "grant A b C",                       # missing label
        "grant A b :c1 C",                   # label not last
        "withdraw consent1",                 # bare name, not a label
        "new data OnlyOne",                  # parent required
        "new disjoint OnlyOne",              # needs two names
        "new widget A B",                    # unknown declaration kind
        "collect A b C T3",                  # collect takes no time
        "access A b C T3 T5 T7",             # too many time tokens
        "access A b C T0",                   # steps start at T1
        "assume collect A b C",              # missing true/false
        "assume maybe collect A b C",
        "assume true step",                  # only collect/access inside
        "frobnicate A",                      # unknown statement head
        "step extra",                        # trailing token
        ":orphan",                           # label cannot lead a line
    ])
    def test_malformed_statements(self, bad):
        with pytest.raises(ParseError):
            parse_script(bad)

    def test_parse_error_carries_line(self):
        with pytest.raises(ParseError) as err:
            parse_script("step\nstep\ngrant A b C\n")
        assert err.value.line == 3


def random_program(rng: random.Random) -> list:
    """Syntactically valid random statements, for round-trip checks only."""
    def name():
        return rng.choice(("Alpha", "Beta", "Gamma", "Delta", "subj", "Role"))

    def access():
        form = rng.randrange(3)
        if form == 0:
            return Access(name(), name(), name())
        start = rng.randint(1, 9)
        if form == 1:
            return Access(name(), name(), name(), start)
        return Access(name(), name(), name(), start, start + rng.randint(1, 5))

    makers = [
        lambda: NewData(name(), name()),
        lambda: NewRecipient(name()),
        lambda: NewDisjoint(tuple(f"N{i}" for i in range(rng.randint(2, 4)))),
        lambda: NewEquiv(name(), name()),
        lambda: Grant(name(), name(), name(), f"c{rng.randint(1, 99)}",
                      retro=rng.random() < 0.5),
        lambda: Withdraw(f"c{rng.randint(1, 99)}", retro=rng.random() < 0.5),
        lambda: Collect(name(), name(), name()),
        access,
        Step,
        lambda: Assume(rng.random() < 0.5,
                       rng.choice((Collect(name(), name(), name()), access()))),
    ]
    return [rng.choice(makers)() for _ in range(rng.randint(1, 30))]


class TestTimeTokenDigits:
    def test_too_many_digits_is_an_error_on_its_line(self, int_digit_limit):
        # With CPython's cap on int-string digits the parser refuses the
        # token; without it the step lies in the future and execution does.
        with pytest.raises(ConsentryError) as err:
            run_script("new data A Data\naccess A b C T" + "9" * 5000)
        assert err.value.line == 2
        if int_digit_limit:
            assert isinstance(err.value, ParseError)


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(GOLDEN_SCRIPTS))
    def test_golden_scripts_round_trip(self, name):
        program = parse_script(golden_text(name))
        assert parse_script(print_program(program)) == program

    @pytest.mark.parametrize("seed", range(100))
    def test_random_programs_round_trip(self, seed):
        program = random_program(random.Random(seed))
        printed = print_program(program)
        assert parse_script(printed) == program
        # Printing is canonical: a second trip changes nothing.
        assert print_program(parse_script(printed)) == printed

    def test_a_gap_prints_one_step_line_per_step(self):
        # The parser never builds a gap, so parsed programs still round-trip
        # exactly; a gap reads back as its unit steps, the same clock move.
        gap = [Step(3, line=5), Collect("X", "s", "R")]
        printed = print_program(gap)
        assert printed == "step\nstep\nstep\ncollect X s R\n"
        assert parse_script(printed) == [Step(), Step(), Step(), Collect("X", "s", "R")]
        assert print_program(parse_script(printed)) == printed
        led = Ledger()
        led.declare_data("X")
        assert execute(gap, led).final_step == run_script("new data X Data\n" + printed) \
            .final_step == 4


class TestExecute:
    def test_basic_lifecycle(self):
        report = run_script("""\
new data Location Data
grant Location datasubject1 Partner :c1
assume true collect Location datasubject1 Partner
step
withdraw :c1
assume false collect Location datasubject1 Partner
""")
        assert report.passed
        assert [a.actual for a in report.assumes] == [True, False]
        assert report.final_step == 2
        assert report.events == []  # assume records nothing

    def test_failed_assume_continues_and_flips_verdict(self):
        report = run_script("""\
new data Location Data
assume true collect Location datasubject1 Partner
step
""")
        assert not report.passed
        assert report.final_step == 2  # execution ran past the failure
        failures = [a for a in report.assumes if not a.passed]
        assert [f.line for f in failures] == [2]

    def test_collect_and_access_record_events(self):
        report = run_script("""\
new data Location Data
grant Location s1 Partner :c1
collect Location s1 Partner
step
access Location s1 Partner T1
""")
        assert [e.query.action.value for e in report.events] == ["collect", "access"]
        assert all(e.verdict.authorized for e in report.events)
        assert report.events[0].query.access_at == 1
        assert report.events[1].query.access_at == 2

    def test_denied_events_still_record(self):
        report = run_script("new data X Data\ncollect X s Partner\n")
        assert report.passed  # no assumes, nothing to fail
        assert len(report.events) == 1
        assert not report.events[0].verdict.authorized

    def test_access_time_forms(self):
        base = """\
new data X Data
grant retro X s R :c1
step
step
"""
        for suffix, (start, end) in [
            ("assume true access X s R\n", (1, 4)),
            ("assume true access X s R T2\n", (2, 3)),
            ("assume true access X s R T1 T3\n", (1, 3)),
        ]:
            report = run_script(base + suffix)
            assert report.passed, suffix

    def test_step_accounting(self):
        report = run_script("step\n" * 7)
        assert report.final_step == 8
        assert report.ledger.now == 8

    def test_deterministic(self):
        text = golden_text("overlapping_authorizations")
        a, b = run_script(text), run_script(text)
        assert a.outcomes == b.outcomes and a.assumes == b.assumes

    def test_runs_against_a_provided_ledger(self):
        led = Ledger()
        led.declare_data("X")
        report = execute(parse_script("grant X s R :c1\n"), led)
        assert report.ledger is led
        assert led.consent("c1").granted_at == 1


# One statement of each type, to run after STATEMENT_PRELUDE. A type added to
# `Statement` without a sample here fails the table tests below.
STATEMENT_PRELUDE = "new data D Data\nnew data E Data\nnew recipient R\ngrant D s R :c0\n"
STATEMENT_SAMPLES = {
    NewData: NewData("F", "D"),
    NewRecipient: NewRecipient("Q"),
    NewDisjoint: NewDisjoint(("D", "E")),
    NewEquiv: NewEquiv("D", "E"),
    Grant: Grant("D", "s", "R", "c1", True),
    Withdraw: Withdraw("c0", True),
    Collect: Collect("D", "s", "R"),
    Access: Access("D", "s", "R", 1, 2),
    Step: Step(),
    Assume: Assume(False, Access("D", "s2", "R", 1)),
}


class TestStatementTable:
    """Every statement type carries its role, its text and its note."""

    def test_the_samples_are_the_statement_types(self):
        assert set(STATEMENT_SAMPLES) == set(get_args(Statement))

    @pytest.mark.parametrize("cls", get_args(Statement), ids=lambda cls: cls.__name__)
    def test_role_text_and_note(self, cls):
        stmt = STATEMENT_SAMPLES[cls]
        assert type(stmt) is cls and cls.role in ROLES
        assert parse(stmt.text()) == [stmt]
        outcome = execute(parse(STATEMENT_PRELUDE) + [stmt]).outcomes[-1]
        assert outcome.text == stmt.text()
        assert isinstance(outcome.note, str) and outcome.note


class TestImplicitCreation:
    def test_subject_and_recipient_spring_into_existence(self):
        report = run_script("""\
new data X Data
grant X newperson NewCorp :c1
assume true collect X newperson NewCorp
""")
        assert report.passed
        graph = report.ledger.ontology
        rec = graph.lookup("NewCorp")
        assert graph.subsumes(graph.root(graph.kind_of(rec)), rec)

    def test_assume_alone_creates_its_subject(self):
        report = run_script("new data X Data\nassume false collect X ghost R\n")
        assert report.passed

    def test_data_concepts_never_auto_declare(self):
        with pytest.raises(ExecutionError) as err:
            run_script("grant Mystery s R :c1\n")
        assert err.value.line == 1

    def test_implicit_recipient_sits_under_the_root(self):
        report = run_script("""\
new data X Data
new recipient Partner
grant X s Partner :broad
grant X s SomeCorp :narrow
""")
        graph = report.ledger.ontology
        # SomeCorp was never declared, so nothing relates it to Partner.
        assert not graph.subsumes(graph.lookup("Partner"), graph.lookup("SomeCorp"))


class TestExecutionErrors:
    def test_unknown_label_with_line(self):
        with pytest.raises(ExecutionError) as err:
            run_script("new data X Data\nwithdraw :ghost\n")
        assert err.value.line == 2

    def test_empty_interval(self):
        with pytest.raises(ExecutionError) as err:
            run_script("new data X Data\nstep\nstep\naccess X s R T3 T3\n")
        assert err.value.line == 4
        assert str(err.value) == "line 4: empty interval [T3, T3)"

    def test_backwards_interval(self):
        with pytest.raises(ExecutionError) as err:
            run_script("new data X Data\nstep\nstep\nstep\naccess X s R T3 T2\n")
        assert err.value.line == 5
        assert str(err.value) == "line 5: empty interval [T3, T2)"

    def test_future_access_interval(self):
        with pytest.raises(ExecutionError):
            run_script("new data X Data\naccess X s R T1 T5\n")

    @pytest.mark.parametrize("expected", ["true", "false"])
    def test_assume_over_a_future_interval(self, expected):
        with pytest.raises(ExecutionError) as err:
            run_script(f"new data X Data\nstep\nassume {expected} access X s R T1 T4\n")
        assert err.value.line == 3
        assert "reaches past access step T2" in str(err.value)

    def test_duplicate_label(self):
        with pytest.raises(ExecutionError) as err:
            run_script("new data X Data\ngrant X s R :c1\ngrant X s R :c1\n")
        assert err.value.line == 3


class TestOneRuleOneMessage:
    """A plain access and an assume over it ask one query, refused alike."""

    @pytest.mark.parametrize("data, message", [
        ("X", "collection interval [T1, T4) reaches past access step T2"),
        ("Nowhere", "unknown concept: 'Nowhere'"),  # outranks the interval
    ])
    def test_access_and_assume_agree(self, data, message):
        messages = set()
        for form in ("access", "assume true access", "assume false access"):
            with pytest.raises(ExecutionError) as err:
                run_script(f"new data X Data\nstep\n{form} {data} s R T1 T4\n")
            assert err.value.line == 3
            messages.add(err.value.message)
        assert messages == {message}


class TestDeclarationGuard:
    BASE = """\
new data B Data
new data C Data
new disjoint B C
new data A B
grant A s R :c1
collect A s R
"""

    @pytest.mark.parametrize("declaration", ["new data A C", "new equiv A C"],
                             ids=["fresh-parent", "equivalence"])
    def test_fresh_parents_and_equivalences_are_guarded(self, declaration):
        # As docs/language.md says: a fresh parent that would make A, which a
        # recorded event uses, unsatisfiable is refused like the equivalence
        # with the same effect, and the refused edge leaves no trace.
        with pytest.raises(ExecutionError) as err:
            run_script(self.BASE + declaration + "\n")
        assert err.value.line == 7
        assert "would contradict recorded events on: A" in str(err.value)
        led = Ledger()
        execute(parse_script(self.BASE), led)
        with pytest.raises(ConsentryError):
            execute(parse_script(declaration), led)
        assert not led.ontology.is_unsatisfiable(led.ontology.lookup("A"))
        assert led.ontology.lookup("C") not in led.ontology.ancestors(led.ontology.lookup("A"))

    def test_disjointness_is_guarded(self):
        # A sits under B and C with a recorded collect; declaring B and C
        # disjoint would flip the assume that passed on line 7.
        script = """\
new data B Data
new data C Data
new data A B
new data A C
grant A s R :c1
collect A s R
assume true collect A s R
new disjoint B C
assume true collect A s R
"""
        with pytest.raises(ExecutionError) as err:
            run_script(script)
        assert err.value.line == 8
        assert "would contradict recorded events on: A" in str(err.value)
        led = Ledger()
        head, _, _ = script.partition("new disjoint")
        execute(parse_script(head), led)
        with pytest.raises(ConsentryError):
            execute(parse_script("new disjoint B C\n"), led)
        graph = led.ontology
        assert not graph.is_unsatisfiable(graph.lookup("A"))
        assert not graph.are_disjoint(graph.lookup("B"), graph.lookup("C"))
        # With no event recorded on A, the same declaration is accepted.
        unrecorded = script.replace("collect A s R\nassume true", "assume true")
        report = run_script(unrecorded + "assume false collect A s R\n")
        assert [a.passed for a in report.assumes] == [True, False, True]

    def test_a_refused_equivalence_keeps_an_existing_parent_edge(self):
        # A is already under B, so equating them adds only B's edge to A,
        # and the refusal must take back that edge alone.
        script = """\
new data B Data
new data A B
new data X Data
new data P B
new data P X
new disjoint A X
collect P s R
new equiv A B
"""
        with pytest.raises(ExecutionError) as err:
            run_script(script)
        assert err.value.line == 8
        assert "would contradict recorded events on: P" in str(err.value)
        led = Ledger()
        head, _, _ = script.partition("new equiv")
        execute(parse_script(head), led)
        with pytest.raises(ConsentryError):
            execute(parse_script("new equiv A B\n"), led)
        graph = led.ontology
        a, b = graph.lookup("A"), graph.lookup("B")
        assert graph.subsumes(b, a) and not graph.subsumes(a, b)
        assert not graph.is_unsatisfiable(graph.lookup("P"))

    def test_a_fresh_parent_away_from_the_history_is_accepted(self):
        report = run_script(self.BASE + "new data D B\nnew data D C\n"
                            "assume false collect D s R\nassume true collect A s R\n")
        assert report.passed


class TestGoldenScripts:
    @pytest.mark.parametrize("name,expected_assumes", sorted(GOLDEN_SCRIPTS.items()))
    def test_all_assumes_pass(self, name, expected_assumes):
        report = run_script(golden_text(name))
        assert len(report.assumes) == expected_assumes
        failed = [a.statement for a in report.assumes if not a.passed]
        assert report.passed, f"{name}: failed assumes: {failed}"
