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
"""

from __future__ import annotations

import re
from enum import Enum
from functools import lru_cache
from typing import Iterable, NamedTuple, Union

from .chronology import STEP_TOKEN, StepInterval, format_step, parse_step
from .core import ActionType, EventRecord, Ledger
from .errors import ConsentryError, ExecutionError, IntervalError, LexError, ParseError

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
# the same three methods to leave its ledger out.


def _eq_but_last(self, other: object) -> bool:
    # Equal only to the same type. False, not NotImplemented: tuple's reflected
    # __eq__ would compare any other tuple field by field, line included.
    return type(other) is type(self) and self[:-1] == other[:-1]


_BUT_LAST = (_eq_but_last, lambda self, other: not _eq_but_last(self, other),
             lambda self: hash(self[:-1]))


class NewData(NamedTuple):
    name: str
    parent: str
    line: int = 0
    __eq__, __ne__, __hash__ = _BUT_LAST


class NewRecipient(NamedTuple):
    name: str
    line: int = 0
    __eq__, __ne__, __hash__ = _BUT_LAST


class NewDisjoint(NamedTuple):
    names: tuple[str, ...]
    line: int = 0
    __eq__, __ne__, __hash__ = _BUT_LAST


class NewEquiv(NamedTuple):
    a: str
    b: str
    line: int = 0
    __eq__, __ne__, __hash__ = _BUT_LAST


class Grant(NamedTuple):
    data: str
    subject: str
    recipient: str
    label: str
    retro: bool = False
    line: int = 0
    __eq__, __ne__, __hash__ = _BUT_LAST


class Withdraw(NamedTuple):
    label: str
    retro: bool = False
    line: int = 0
    __eq__, __ne__, __hash__ = _BUT_LAST


class Collect(NamedTuple):
    data: str
    subject: str
    recipient: str
    line: int = 0
    __eq__, __ne__, __hash__ = _BUT_LAST


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


class Step(NamedTuple):
    """Advance the clock. A script's `step` line is one step; a gap of
    `count` steps, as the log monitor builds, prints as that many lines."""

    count: int = 1
    line: int = 0
    __eq__, __ne__, __hash__ = _BUT_LAST


class Assume(NamedTuple):
    expected: bool
    action: Union[Collect, Access]
    line: int = 0
    __eq__, __ne__, __hash__ = _BUT_LAST


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


def parse_script(text: str) -> list[Statement]:
    return parse(text)


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
        return "\n".join(["step"] * stmt.count)
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
    if isinstance(stmt, (Grant, Withdraw)) and _word_kind(":" + stmt.label) is None:
        return stmt.label
    if isinstance(stmt, (Grant, Collect, Access)):
        for name in (stmt.data, stmt.subject, stmt.recipient):
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
            result = apply(led, stmt)
        except ConsentryError as err:
            raise ExecutionError(stmt.line, str(err)) from err
        if isinstance(result, AssumeResult):
            assumes.append(result)
        elif result is not None:
            events.append(result)
        text = result.statement if isinstance(result, AssumeResult) else print_statement(stmt)
        outcomes.append(StatementOutcome(stmt.line, text, _note(led, stmt, result)))
    return RunReport(outcomes, assumes, events, led.now, led)


_ACTIONS = {Collect: ActionType.COLLECT, Access: ActionType.ACCESS}


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
        led.advance(stmt.count)
    elif isinstance(stmt, (Collect, Access)):
        _ensure_recipient(led, stmt.recipient)
        return led.record_event(_ACTIONS[type(stmt)], stmt.data, stmt.subject,
                                stmt.recipient, _access_interval(stmt))
    elif isinstance(stmt, Assume):
        inner = stmt.action
        # Subjects spring into existence on first mention, even inside assume.
        led.declare_subject(inner.subject)
        _ensure_recipient(led, inner.recipient)
        # The same query an event would record, decided without recording it.
        query = led._event_query(_ACTIONS[type(inner)], inner.data, inner.subject,
                                 inner.recipient, _access_interval(inner))
        return AssumeResult(stmt.line, stmt.expected, led._decide(query).authorized,
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


def _access_interval(stmt: Collect | Access) -> StepInterval | None:
    if isinstance(stmt, Collect) or stmt.start is None:
        return None  # a collect's own step, or all collected history [T1, now+1)
    if stmt.end is None:
        return StepInterval.single(stmt.start)
    if stmt.end <= stmt.start:
        raise IntervalError(f"empty interval [{format_step(stmt.start)}, "
                            f"{format_step(stmt.end)})")
    return StepInterval(stmt.start, stmt.end)


def run_script(text: str) -> RunReport:
    """Parse and execute source text on a fresh ledger in one go."""
    return execute(parse_script(text))
