"""Lexer, parser, and interpreter for the consent scenario language.

A script is line-oriented: one statement per line, '#' starts a comment,
blank lines are ignored. Example:

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
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from itertools import groupby
from operator import attrgetter
from typing import Iterable, Union

from .chronology import STEP_TOKEN, StepInterval, format_step, parse_step
from .core import ActionType, EventRecord, Ledger, Mode
from .errors import ConsentryError, ExecutionError, IntervalError, LexError, ParseError

KEYWORDS = frozenset({
    "new", "data", "recipient", "disjoint", "equiv",
    "grant", "withdraw", "retro",
    "collect", "access", "step",
    "assume", "true", "false",
})

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# Blanks, then one lexeme: a word (a label if ':' leads it), a comment, the
# end of the line, or a character that starts no token. Every position
# matches, so `finditer` walks a line without skipping anything.
_LEXEME = re.compile(rf"[ \t]*(?:(:?)({_WORD.pattern})|#|\Z|(.))")


class TokenKind(Enum):
    KEYWORD = "keyword"
    NAME = "name"
    LABEL = "label"
    TIME = "time"


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str  # labels keep their bare name, without the leading ':'
    line: int
    column: int


@lru_cache(maxsize=4096)  # scripts repeat their names, so most words are judged once
def _word_kind(word: str) -> TokenKind:
    """What a bare word means: a keyword, a time step such as T3, or a name."""
    if word in KEYWORDS:
        return TokenKind.KEYWORD
    if STEP_TOKEN.match(word):
        return TokenKind.TIME
    return TokenKind.NAME


def tokenize(text: str) -> list[Token]:
    """Split source text into tokens. Comments and blank lines vanish."""
    tokens: list[Token] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        for m in _LEXEME.finditer(line):
            colon, word, bad = m.groups()
            if word is not None:
                kind = TokenKind.LABEL if colon else _word_kind(word)
                tokens.append(Token(kind, word, line_no, m.start(1) + 1))
            elif bad is None:
                break  # a comment or the end of the line
            elif bad == ":":
                raise LexError(line_no, m.start(3) + 1, "expected a label name after ':'")
            else:
                raise LexError(line_no, m.start(3) + 1, f"illegal character {bad!r}")
    return tokens


# -- statements ------------------------------------------------------------
#
# Line numbers ride along for error reporting but are excluded from
# equality so that parse(print_program(p)) == p holds structurally.


@dataclass(frozen=True)
class NewData:
    name: str
    parent: str
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class NewRecipient:
    name: str
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class NewDisjoint:
    names: tuple[str, ...]
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class NewEquiv:
    a: str
    b: str
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Grant:
    data: str
    subject: str
    recipient: str
    label: str
    retro: bool = False
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Withdraw:
    label: str
    retro: bool = False
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Collect:
    data: str
    subject: str
    recipient: str
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Access:
    data: str
    subject: str
    recipient: str
    # Time tokens exactly as written: (None, None) spans all history,
    # (x, None) is the single step x, (x, y) is the range [x, y).
    start: int | None = None
    end: int | None = None
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Step:
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Assume:
    expected: bool
    action: Union[Collect, Access]
    line: int = field(default=0, compare=False)


Statement = Union[
    NewData, NewRecipient, NewDisjoint, NewEquiv,
    Grant, Withdraw, Collect, Access, Step, Assume,
]


class _Cursor:
    """One statement's worth of tokens with expectation-style consumption."""

    def __init__(self, tokens: list[Token], line: int):
        self.tokens = tokens
        self.line = line
        self.pos = 0

    def done(self) -> bool:
        return self.pos >= len(self.tokens)

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def expect(self, kind: TokenKind, what: str) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError(self.line, f"expected {what}, found end of line")
        if tok.kind is not kind:
            raise ParseError(self.line, f"expected {what}, found {tok.text!r}")
        self.pos += 1
        return tok

    def name(self, what: str) -> str:
        return self.expect(TokenKind.NAME, what).text

    def label(self, what: str) -> str:
        return self.expect(TokenKind.LABEL, what).text

    def keyword(self, *options: str) -> str:
        what = " or ".join(f"'{o}'" for o in options)
        tok = self.expect(TokenKind.KEYWORD, what)
        if tok.text not in options:
            raise ParseError(self.line, f"expected {what}, found {tok.text!r}")
        return tok.text

    def match_keyword(self, word: str) -> bool:
        tok = self.peek()
        if tok is not None and tok.kind is TokenKind.KEYWORD and tok.text == word:
            self.pos += 1
            return True
        return False

    def time(self) -> int:
        tok = self.expect(TokenKind.TIME, "a time step like T3")
        try:
            return parse_step(tok.text)
        except IntervalError as err:
            raise ParseError(self.line, str(err)) from None

    def finish(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise ParseError(self.line, f"unexpected trailing {tok.text!r}")


def parse(tokens: list[Token]) -> list[Statement]:
    """Parse each line's tokens, in order, as one statement."""
    return [_parse_statement(_Cursor(list(line_tokens), line))
            for line, line_tokens in groupby(tokens, key=attrgetter("line"))]


def parse_script(text: str) -> list[Statement]:
    return parse(tokenize(text))


def _parse_statement(cur: _Cursor) -> Statement:
    head = cur.keyword("new", "grant", "withdraw", "collect", "access", "step", "assume")
    if head == "new":
        stmt = _parse_new(cur)
    elif head == "grant":
        retro = cur.match_keyword("retro")
        data = cur.name("a data concept")
        subject = cur.name("a data subject")
        recipient = cur.name("a recipient")
        label = cur.label("a consent label like :consent1")
        stmt = Grant(data, subject, recipient, label, retro, line=cur.line)
    elif head == "withdraw":
        retro = cur.match_keyword("retro")
        stmt = Withdraw(cur.label("a consent label"), retro, line=cur.line)
    elif head == "collect":
        stmt = _parse_collect(cur)
    elif head == "access":
        stmt = _parse_access(cur)
    elif head == "step":
        stmt = Step(line=cur.line)
    else:
        expected = cur.keyword("true", "false")
        inner_head = cur.keyword("collect", "access")
        inner = _parse_collect(cur) if inner_head == "collect" else _parse_access(cur)
        stmt = Assume(expected == "true", inner, line=cur.line)
    cur.finish()
    return stmt


def _parse_new(cur: _Cursor) -> Statement:
    what = cur.keyword("data", "recipient", "disjoint", "equiv")
    if what == "data":
        return NewData(cur.name("a concept name"), cur.name("a parent concept"),
                       line=cur.line)
    if what == "recipient":
        return NewRecipient(cur.name("a recipient name"), line=cur.line)
    if what == "equiv":
        return NewEquiv(cur.name("a concept name"), cur.name("a concept name"),
                        line=cur.line)
    names = [cur.name("a concept name"), cur.name("a concept name")]
    while not cur.done():
        names.append(cur.name("a concept name"))
    return NewDisjoint(tuple(names), line=cur.line)


def _parse_collect(cur: _Cursor) -> Collect:
    return Collect(cur.name("a data concept"), cur.name("a data subject"),
                   cur.name("a recipient"), line=cur.line)


def _parse_access(cur: _Cursor) -> Access:
    data = cur.name("a data concept")
    subject = cur.name("a data subject")
    recipient = cur.name("a recipient")
    start = end = None
    tok = cur.peek()
    if tok is not None and tok.kind is TokenKind.TIME:
        start = cur.time()
        tok = cur.peek()
        if tok is not None and tok.kind is TokenKind.TIME:
            end = cur.time()
    return Access(data, subject, recipient, start, end, line=cur.line)


# -- canonical rendering -----------------------------------------------------


def print_statement(stmt: Statement) -> str:
    if isinstance(stmt, NewData):
        return f"new data {stmt.name} {stmt.parent}"
    if isinstance(stmt, NewRecipient):
        return f"new recipient {stmt.name}"
    if isinstance(stmt, NewDisjoint):
        return "new disjoint " + " ".join(stmt.names)
    if isinstance(stmt, NewEquiv):
        return f"new equiv {stmt.a} {stmt.b}"
    if isinstance(stmt, Grant):
        retro = "retro " if stmt.retro else ""
        return f"grant {retro}{stmt.data} {stmt.subject} {stmt.recipient} :{stmt.label}"
    if isinstance(stmt, Withdraw):
        retro = "retro " if stmt.retro else ""
        return f"withdraw {retro}:{stmt.label}"
    if isinstance(stmt, Collect):
        return f"collect {stmt.data} {stmt.subject} {stmt.recipient}"
    if isinstance(stmt, Access):
        parts = [f"access {stmt.data} {stmt.subject} {stmt.recipient}"]
        if stmt.start is not None:
            parts.append(format_step(stmt.start))
            if stmt.end is not None:
                parts.append(format_step(stmt.end))
        return " ".join(parts)
    if isinstance(stmt, Step):
        return "step"
    if isinstance(stmt, Assume):
        word = "true" if stmt.expected else "false"
        return f"assume {word} {print_statement(stmt.action)}"
    raise TypeError(f"not a statement: {stmt!r}")


def print_program(statements: Iterable[Statement]) -> str:
    return "\n".join(print_statement(s) for s in statements) + "\n"


def unprintable_name(stmt: Statement) -> str | None:
    """The first name or label of an action that would not read back as itself.

    A label may be any word; a name must also be neither a keyword nor a
    time token such as T3. Declarations are not checked.
    """
    if isinstance(stmt, (Grant, Withdraw)) and not _WORD.fullmatch(stmt.label):
        return stmt.label
    if isinstance(stmt, (Grant, Collect, Access)):
        for name in (stmt.data, stmt.subject, stmt.recipient):
            if not _WORD.fullmatch(name) or _word_kind(name) is not TokenKind.NAME:
                return name
    return None


# -- execution ---------------------------------------------------------------


@dataclass(frozen=True)
class AssumeResult:
    line: int
    expected: bool
    actual: bool
    statement: str

    @property
    def passed(self) -> bool:
        return self.expected == self.actual


@dataclass(frozen=True)
class StatementOutcome:
    line: int
    text: str
    note: str


@dataclass
class RunReport:
    outcomes: list[StatementOutcome]
    assumes: list[AssumeResult]
    events: list[EventRecord]
    final_step: int
    ledger: Ledger = field(compare=False, repr=False)

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assumes)


def execute(statements: list[Statement], ledger: Ledger | None = None) -> RunReport:
    """Run a parsed program against a ledger (a fresh one by default)."""
    led = ledger if ledger is not None else Ledger()
    outcomes: list[StatementOutcome] = []
    assumes: list[AssumeResult] = []
    for stmt in statements:
        try:
            result = apply(led, stmt)
        except ConsentryError as err:
            if isinstance(err, ExecutionError):
                raise
            raise ExecutionError(stmt.line, str(err)) from err
        if isinstance(result, AssumeResult):
            assumes.append(result)
        outcomes.append(StatementOutcome(stmt.line, print_statement(stmt),
                                         _note(led, stmt, result)))
    return RunReport(outcomes, assumes, list(led.events), led.now, led)


def _ensure_recipient(led: Ledger, name: str) -> None:
    # Recipient roles spring into existence on first mention, like subjects:
    # an undeclared one lands directly under the Recipient root, exactly what
    # an explicit declaration would do. Data concepts never auto-declare;
    # their place in the hierarchy carries meaning.
    if name not in led.ontology:
        led.declare_recipient(name)


def apply(led: Ledger, stmt: Statement) -> EventRecord | AssumeResult | None:
    """Apply one statement to the ledger.

    Returns the recorded event for collect and access, the outcome for
    assume, and None for every other statement.
    """
    if isinstance(stmt, NewData):
        led.declare_data(stmt.name, stmt.parent)
    elif isinstance(stmt, NewRecipient):
        led.declare_recipient(stmt.name)
    elif isinstance(stmt, NewDisjoint):
        led.declare_disjoint(*stmt.names)
    elif isinstance(stmt, NewEquiv):
        led.declare_equivalent(stmt.a, stmt.b)
    elif isinstance(stmt, Grant):
        _ensure_recipient(led, stmt.recipient)
        led.grant(stmt.data, stmt.subject, stmt.recipient,
                  retroactive=stmt.retro, label=stmt.label)
    elif isinstance(stmt, Withdraw):
        led.withdraw(stmt.label, retroactive=stmt.retro)
    elif isinstance(stmt, Step):
        led.advance()
    elif isinstance(stmt, Collect):
        _ensure_recipient(led, stmt.recipient)
        return led.record_event(ActionType.COLLECT, stmt.data, stmt.subject,
                                stmt.recipient)
    elif isinstance(stmt, Access):
        _ensure_recipient(led, stmt.recipient)
        return led.record_event(ActionType.ACCESS, stmt.data, stmt.subject,
                                stmt.recipient, _access_interval(stmt))
    elif isinstance(stmt, Assume):
        inner = stmt.action
        # Subjects spring into existence on first mention, even inside assume.
        led.declare_subject(inner.subject)
        _ensure_recipient(led, inner.recipient)
        if isinstance(inner, Collect):
            query = led.collect_query(inner.data, inner.subject, inner.recipient)
        else:
            query = led.access_query(inner.data, inner.subject, inner.recipient,
                                     _access_interval(inner))
        return AssumeResult(stmt.line, stmt.expected, led.check(query).authorized,
                            print_statement(stmt))
    else:
        raise TypeError(f"not a statement: {stmt!r}")
    return None


def _note(led: Ledger, stmt: Statement,
          result: EventRecord | AssumeResult | None) -> str:
    if isinstance(result, EventRecord):
        verdict = "authorized" if result.verdict.authorized else \
            f"denied ({result.verdict.reason.value})"
        return f"event {result.id} {verdict}"
    if isinstance(result, AssumeResult):
        return "PASS" if result.passed else "FAIL"
    if isinstance(stmt, NewDisjoint):
        return "declared disjoint"
    if isinstance(stmt, NewEquiv):
        return "declared equivalent"
    if isinstance(stmt, Grant):
        return f"granted :{stmt.label} at {format_step(led.now)}"
    if isinstance(stmt, Withdraw):
        return f"withdrew :{stmt.label} at {format_step(led.now)}"
    if isinstance(stmt, Step):
        return f"advanced to {format_step(led.now)}"
    return "declared"


def _access_interval(stmt: Access) -> StepInterval | None:
    if stmt.start is None:
        return None  # all collected history, [T1, now+1)
    if stmt.end is None:
        return StepInterval.single(stmt.start)
    if stmt.end <= stmt.start:
        raise ExecutionError(stmt.line, f"empty interval [{format_step(stmt.start)}, "
                                        f"{format_step(stmt.end)})")
    return StepInterval(stmt.start, stmt.end)


def run_script(text: str, ledger: Ledger | None = None) -> RunReport:
    """Parse and execute source text in one go."""
    return execute(parse_script(text), ledger)
