"""Lexer, parser, and interpreter for the consent scenario language.

A script is line-oriented: one statement per line, lines end at "\n",
"\r\n" or a lone "\r", '#' starts a comment, blank lines are ignored. Example:

    new data RealTimeLocation Data
    new data DrivingRoute RealTimeLocation
    new recipient Advertiser
    grant DrivingRoute datasubject1 Advertiser :consent1
    assume true collect DrivingRoute datasubject1 Advertiser
    step
    withdraw retro :consent1

Keywords are lowercase words; any other word names a concept or an
individual; ':name' labels a consent; 'T<n>' references a time step.
Subjects and recipient roles spring into existence on first mention
(an undeclared recipient lands directly under the Recipient root);
data concepts must be declared before use.

Time defaults: a collect (or assume over one) speaks about the current
step. An access with no time tokens spans all collected history
[T1, now+1); 'access ... Tx' means data collected at step x alone;
'access ... Tx Ty' means the half-open range [x, y). The access itself
always happens at the current step.

Assume statements evaluate their inner action without recording an
event. A failed assume does not stop the run; it flips the report's
overall verdict. Semantic errors (unknown names, impossible intervals)
abort execution with the offending line.

Front end cost: one pass over the lines, and no token objects. Each line
is split into its words once, each distinct word is classified once (the
classifier is memoised), and the statement is built straight from the
words by its head keyword. `tokenize` is a view over the same line lexer.

Each statement type is a named tuple class that carries all the interpreter
knows of it, so `execute` and the log monitor name no statement type:
- `role`, one of ROLES. The log monitor reads declarations from its
  manifest, consents from the consent log and events from the access log,
  and makes the clock steps itself; an assume is written in scripts only;
- `text()`, its canonical text;
- `apply(led)`, its effect on a ledger, returning the recorded event, the
  AssumeResult or None. An assume asks `Ledger.decide_event` for the
  verdict its action's event would get;
- `note(led, result)`, the note a run report gives it once applied.
"""

from __future__ import annotations

import re
from enum import Enum
from functools import lru_cache
from typing import Iterable, NamedTuple, Union

from .chronology import STEP_TOKEN, StepInterval, format_step, parse_step
from .core import ActionType, EventRecord, Ledger
from .errors import (
    ConsentryError, ExecutionError, IntervalError, InvalidValueError, LexError, ParseError,
)

KEYWORDS = frozenset({
    "new", "data", "recipient", "disjoint", "equiv",
    "grant", "withdraw", "retro",
    "collect", "access", "step",
    "assume", "true", "false",
})

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# Blanks, then a word, a label (':' and a word) or one character that starts neither.
_LEXEME = re.compile(rf"[ \t]*(:?{_WORD.pattern}|[^ \t])")


class TokenKind(Enum):
    KEYWORD = "keyword"
    NAME = "name"
    LABEL = "label"
    TIME = "time"


class Token(NamedTuple):
    kind: TokenKind
    text: str  # labels keep their bare name, without the leading ':'
    line: int
    column: int


@lru_cache(maxsize=4096)  # scripts repeat their words, so most are judged once
def _word_kind(word: str) -> TokenKind | None:
    """What one lexeme means: a keyword, a label such as :c1, a time step
    such as T3, or a name; None for anything that is not one lexeme."""
    if word in KEYWORDS:
        return TokenKind.KEYWORD
    if _WORD.fullmatch(word):
        return TokenKind.TIME if STEP_TOKEN.match(word) else TokenKind.NAME
    if word[:1] == ":" and _WORD.fullmatch(word, 1):
        return TokenKind.LABEL
    return None


def _lex(line: str, line_no: int) -> tuple[list[str], list[TokenKind]]:
    """One line's lexemes, labels with their ':', and the kind of each."""
    words = _LEXEME.findall(line.partition("#")[0])
    kinds = list(map(_word_kind, words))
    if None in kinds:
        bad = kinds.index(None)
        message = "expected a label name after ':'" if words[bad] == ":" else \
            f"illegal character {words[bad]!r}"
        raise LexError(line_no, _columns(line, words[:bad + 1])[bad], message)
    return words, kinds


def _columns(line: str, words: list[str]) -> list[int]:
    """Where each of a line's lexemes starts (1-based); only blanks lie between."""
    columns, pos = [], 0
    for word in words:
        pos = line.index(word, pos)
        columns.append(pos + 1)
        pos += len(word)
    return columns


def _lines(text: str) -> list[str]:
    """The script's lines, ended by "\n", "\r\n" or a lone "\r" only.

    str.splitlines() would also break at U+2028, U+2029, U+0085 and the
    control characters \x0b, \x0c and \x1c-\x1e, splitting a comment
    holding one; here they stay in their line, an illegal character unless
    a comment holds them.
    """
    if not isinstance(text, str):
        raise InvalidValueError(f"expected the text as a str, got {text!r:.40}")
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def tokenize(text: str) -> list[Token]:
    """Split source text into tokens. Comments and blank lines vanish."""
    tokens: list[Token] = []
    for line_no, line in enumerate(_lines(text), start=1):
        words, kinds = _lex(line, line_no)
        for word, kind, column in zip(words, kinds, _columns(line, words)):
            tokens.append(Token(kind, word.lstrip(":"), line_no, column))
    return tokens


# -- statements ------------------------------------------------------------
#
# Statements are named tuples whose last field is their line. Line numbers
# ride along for error reporting but take no part in equality or hash, so
# that parse(print_program(p)) == p holds structurally. `RunReport` shares
# the same three methods to leave its ledger out. The module docstring lists
# what else each statement class carries.


def _eq_but_last(self, other: object) -> bool:
    # Equal only to the same type. False, not NotImplemented: tuple's reflected
    # __eq__ would compare any other tuple field by field, line included.
    return type(other) is type(self) and self[:-1] == other[:-1]


_BUT_LAST = (_eq_but_last, lambda self, other: not _eq_but_last(self, other),
             lambda self: hash(self[:-1]))
ROLES = ("declaration", "consent", "event", "clock", "assume")


def _fixed(note: str):  # a `note` method that gives the same text every time
    return lambda self, led, result: note


# Recipient roles spring into existence on first mention, like subjects: each
# statement that names one declares it, unless known, directly under the
# Recipient root, exactly what an explicit declaration would do. Data concepts
# never auto-declare; their place in the hierarchy carries meaning.


def _record(self: Collect | Access, led: Ledger) -> EventRecord:
    if self.recipient not in led.ontology:
        led.declare_recipient(self.recipient)
    return led.record_event(self.action_type, self.data, self.subject, self.recipient,
                            self.interval())


def _event_note(self, led: Ledger, event: EventRecord) -> str:
    verdict = "authorized" if event.verdict.authorized else \
        f"denied ({event.verdict.reason._value_})"
    return f"event {event.id} {verdict}"


class NewData(NamedTuple):
    name: str
    parent: str
    line: int = 0
    __eq__, __ne__, __hash__ = _BUT_LAST
    role, note = "declaration", _fixed("declared")

    def text(self) -> str:
        return f"new data {self.name} {self.parent}"

    def apply(self, led: Ledger) -> None:
        led.declare_data(self.name, self.parent)


class NewRecipient(NamedTuple):
    name: str
    line: int = 0
    __eq__, __ne__, __hash__ = _BUT_LAST
    role, note = "declaration", _fixed("declared")

    def text(self) -> str:
        return f"new recipient {self.name}"

    def apply(self, led: Ledger) -> None:
        led.declare_recipient(self.name)


class NewDisjoint(NamedTuple):
    names: tuple[str, ...]
    line: int = 0
    __eq__, __ne__, __hash__ = _BUT_LAST
    role, note = "declaration", _fixed("declared disjoint")

    def text(self) -> str:
        return "new disjoint " + " ".join(self.names)

    def apply(self, led: Ledger) -> None:
        led.declare_disjoint(*self.names)


class NewEquiv(NamedTuple):
    a: str
    b: str
    line: int = 0
    __eq__, __ne__, __hash__ = _BUT_LAST
    role, note = "declaration", _fixed("declared equivalent")

    def text(self) -> str:
        return f"new equiv {self.a} {self.b}"

    def apply(self, led: Ledger) -> None:
        led.declare_equivalent(self.a, self.b)


class Grant(NamedTuple):
    data: str
    subject: str
    recipient: str
    label: str
    retro: bool = False
    line: int = 0
    __eq__, __ne__, __hash__ = _BUT_LAST
    role = "consent"

    def text(self) -> str:
        retro = "retro " if self.retro else ""
        return f"grant {retro}{self.data} {self.subject} {self.recipient} :{self.label}"

    def apply(self, led: Ledger) -> None:
        if self.recipient not in led.ontology:
            led.declare_recipient(self.recipient)
        led.grant(self.data, self.subject, self.recipient, retroactive=self.retro,
                  label=self.label)

    def note(self, led: Ledger, result: None) -> str:
        return f"granted :{self.label} at {format_step(led.now)}"


class Withdraw(NamedTuple):
    label: str
    retro: bool = False
    line: int = 0
    __eq__, __ne__, __hash__ = _BUT_LAST
    role = "consent"

    def text(self) -> str:
        retro = "retro " if self.retro else ""
        return f"withdraw {retro}:{self.label}"

    def apply(self, led: Ledger) -> None:
        led.withdraw(self.label, retroactive=self.retro)

    def note(self, led: Ledger, result: None) -> str:
        return f"withdrew :{self.label} at {format_step(led.now)}"


class Collect(NamedTuple):
    data: str
    subject: str
    recipient: str
    line: int = 0
    __eq__, __ne__, __hash__ = _BUT_LAST
    role, action_type, apply, note = "event", ActionType.COLLECT, _record, _event_note

    def text(self) -> str:
        return f"collect {self.data} {self.subject} {self.recipient}"

    def interval(self) -> None:
        return None  # the collect's own step


class Access(NamedTuple):
    data: str
    subject: str
    recipient: str
    # Time tokens exactly as written: (None, None) spans all history,
    # (x, None) is the single step x, (x, y) is the range [x, y).
    start: int | None = None
    end: int | None = None
    line: int = 0
    __eq__, __ne__, __hash__ = _BUT_LAST
    role, action_type, apply, note = "event", ActionType.ACCESS, _record, _event_note

    def text(self) -> str:
        parts = [f"access {self.data} {self.subject} {self.recipient}"]
        if self.start is not None:
            parts.append(format_step(self.start))
            if self.end is not None:
                parts.append(format_step(self.end))
        return " ".join(parts)

    def interval(self) -> StepInterval | None:
        if self.start is None:
            return None  # all collected history, [T1, now+1)
        return StepInterval(self.start, self.start + 1 if self.end is None else self.end)


class Step(NamedTuple):
    """Advance the clock. A script's `step` line is one step; a gap of
    `count` steps, as the log monitor builds, prints as that many lines."""

    count: int = 1
    line: int = 0
    __eq__, __ne__, __hash__ = _BUT_LAST
    role = "clock"

    def text(self) -> str:
        return "\n".join(["step"] * self.count)

    def apply(self, led: Ledger) -> None:
        led.advance(self.count)

    def note(self, led: Ledger, result: None) -> str:
        return f"advanced to {format_step(led.now)}"


class Assume(NamedTuple):
    expected: bool
    action: Union[Collect, Access]
    line: int = 0
    __eq__, __ne__, __hash__ = _BUT_LAST
    role = "assume"

    def text(self) -> str:
        return f"assume {'true' if self.expected else 'false'} {self.action.text()}"

    def apply(self, led: Ledger) -> AssumeResult:
        """Decide the inner action as its event would be, recording nothing."""
        inner = self.action
        # Subjects spring into existence on first mention, even inside assume.
        led.declare_subject(inner.subject)
        if inner.recipient not in led.ontology:
            led.declare_recipient(inner.recipient)
        decision = led.decide_event(inner.action_type, inner.data, inner.subject,
                                    inner.recipient, inner.interval())
        return AssumeResult(self.line, self.expected, decision.authorized, self.text())

    def note(self, led: Ledger, result: AssumeResult) -> str:
        return "PASS" if result.passed else "FAIL"


Statement = Union[
    NewData, NewRecipient, NewDisjoint, NewEquiv,
    Grant, Withdraw, Collect, Access, Step, Assume,
]


def parse(text: str) -> list[Statement]:
    """Parse each line that holds a token, in order, as one statement."""
    statements = []
    lines = _lines(text)
    for line_no, line in enumerate(lines, start=1):
        words, kinds = _lex(line, line_no)
        if words:
            try:
                statements.append(_statement(words, kinds, line_no))
            except ParseError:
                # A lex error on any line outranks a parse error; the lines
                # up to this one have lexed already.
                for later_no, later in enumerate(lines[line_no:], start=line_no + 1):
                    _lex(later, later_no)
                raise
    return statements


# The exported name. Package code calls `parse` itself, so a wrapper set on
# `script.parse` sees every parse.
parse_script = parse


# The kinds a run of words must have, and how errors describe each word.
_ACTION = ([TokenKind.NAME] * 3, ("a data concept", "a data subject", "a recipient"))
_GRANT = (_ACTION[0] + [TokenKind.LABEL], _ACTION[1] + ("a consent label like :consent1",))
_WITHDRAW = ([TokenKind.LABEL], ("a consent label",))
_NEW_DATA = ([TokenKind.NAME] * 2, ("a concept name", "a parent concept"))
_NEW_RECIPIENT = ([TokenKind.NAME], ("a recipient name",))
_HEADS = ("new", "grant", "withdraw", "collect", "access", "step", "assume")


def _statement(words: list[str], kinds: list[TokenKind], line: int) -> Statement:
    """Build one line's statement straight from its words, by its head keyword."""
    head = _keyword(words, 0, _HEADS, line)
    if head == "assume":
        expected = _keyword(words, 1, ("true", "false"), line)
        _keyword(words, 2, ("collect", "access"), line)
        action, end = _action(words, kinds, 2, line)
        stmt = Assume(expected == "true", action, line)
    elif head == "collect" or head == "access":
        stmt, end = _action(words, kinds, 0, line)
    elif head == "new":
        what = _keyword(words, 1, ("data", "recipient", "disjoint", "equiv"), line)
        if what == "data":
            stmt, end = NewData(*_take(words, kinds, 2, _NEW_DATA, line), line), 4
        elif what == "recipient":
            stmt, end = NewRecipient(*_take(words, kinds, 2, _NEW_RECIPIENT, line), line), 3
        else:
            end = 4 if what == "equiv" else max(len(words), 4)
            names = _take(words, kinds, 2, ([TokenKind.NAME] * (end - 2),
                                             ("a concept name",) * (end - 2)), line)
            stmt = NewEquiv(*names, line) if what == "equiv" else NewDisjoint(tuple(names), line)
    elif head == "step":
        stmt, end = Step(line=line), 1
    else:
        retro = words[1:2] == ["retro"]
        end = 2 if retro else 1
        if head == "grant":
            *names, label = _take(words, kinds, end, _GRANT, line)
            stmt, end = Grant(*names, label[1:], retro, line), end + 4
        else:
            label, = _take(words, kinds, end, _WITHDRAW, line)
            stmt, end = Withdraw(label[1:], retro, line), end + 1
    if end < len(words):
        raise ParseError(line, f"unexpected trailing {words[end].lstrip(':')!r}")
    return stmt


def _action(words: list[str], kinds: list[TokenKind], at: int,
            line: int) -> tuple[Collect | Access, int]:
    """The collect or access whose keyword is words[at], and where it ends."""
    names = _take(words, kinds, at + 1, _ACTION, line)
    end = at + 4
    if words[at] == "collect":
        return Collect(*names, line), end
    steps = [None, None]
    try:
        for i in (0, 1):
            if end == len(words) or kinds[end] is not TokenKind.TIME:
                break
            steps[i] = parse_step(words[end])
            end += 1
    except IntervalError as err:
        raise ParseError(line, str(err)) from None
    return Access(*names, *steps, line), end


def _keyword(words: list[str], at: int, options: tuple[str, ...], line: int) -> str:
    """words[at], which must be one of the keywords in options."""
    if at < len(words) and words[at] in options:  # a label keeps its ':'
        return words[at]
    raise _expected(" or ".join(f"'{o}'" for o in options), words, at, line)


def _take(words: list[str], kinds: list[TokenKind], at: int,
          slots: tuple[list[TokenKind], tuple[str, ...]], line: int) -> list[str]:
    """The words from at on, which must have the kinds that slots lists."""
    want, whats = slots
    end = at + len(want)
    if kinds[at:end] != want:
        bad = next(i for i, kind in enumerate(want, at)
                   if i >= len(kinds) or kinds[i] is not kind)
        raise _expected(whats[bad - at], words, bad, line)
    return words[at:end]


def _expected(what: str, words: list[str], at: int, line: int) -> ParseError:
    found = repr(words[at].lstrip(":")) if at < len(words) else "end of line"
    return ParseError(line, f"expected {what}, found {found}")


# -- canonical rendering -----------------------------------------------------


def print_program(statements: Iterable[Statement]) -> str:
    return "\n".join(s.text() for s in statements) + "\n"


def unprintable_name(stmt: Statement) -> str | None:
    """The first name or label of a consent or event that would not read back
    as itself.

    A label may be any word; a name must also be neither a keyword nor a
    time token such as T3. Declarations, steps and assumes are not checked.
    """
    if stmt.role == "consent" and _word_kind(":" + stmt.label) is None:
        return stmt.label
    # A withdrawal names its consent alone.
    if stmt.role == "event" or (stmt.role == "consent" and "subject" in stmt._fields):
        for name in stmt[:3]:  # data, subject and recipient, in that order
            if _word_kind(name) is not TokenKind.NAME:
                return name
    return None


# -- execution ---------------------------------------------------------------


class AssumeResult(NamedTuple):
    line: int
    expected: bool
    actual: bool
    statement: str

    @property
    def passed(self) -> bool:
        return self.expected == self.actual


class StatementOutcome(NamedTuple):
    line: int
    text: str
    note: str


class RunReport(NamedTuple):
    outcomes: list[StatementOutcome]
    assumes: list[AssumeResult]
    events: list[EventRecord]
    final_step: int
    ledger: Ledger  # last, so that equality leaves it out
    __eq__, __ne__, __hash__ = _BUT_LAST

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assumes)


def execute(statements: list[Statement], ledger: Ledger | None = None) -> RunReport:
    """Run a parsed program against a ledger (a fresh one by default)."""
    led = ledger if ledger is not None else Ledger()
    outcomes: list[StatementOutcome] = []
    assumes: list[AssumeResult] = []
    events: list[EventRecord] = []
    for stmt in statements:
        try:
            result = stmt.apply(led)
        except ConsentryError as err:
            raise ExecutionError(stmt.line, str(err)) from err
        if stmt.role == "assume":
            assumes.append(result)
            text = result.statement  # `Assume.apply` rendered it
        else:
            if result is not None:
                events.append(result)
            text = stmt.text()
        outcomes.append(StatementOutcome(stmt.line, text, stmt.note(led, result)))
    return RunReport(outcomes, assumes, events, led.now, led)


def run_script(text: str) -> RunReport:
    """Parse and execute source text on a fresh ledger in one go."""
    return execute(parse(text))
