"""Shared helpers for the test suite.

The replay helper is the bridge for differential tests: it takes an
oracle FiniteScenario (plain name/step tuples) and drives the real
engine through it, declaration order preserved, returning the engine's
verdict for every query. The oracle side answers the same queries from
its own naive code path; the two must agree.
"""

from __future__ import annotations

import json
import random
import re
import sys
from contextlib import contextmanager
from itertools import groupby
from operator import attrgetter

from consentry.chronology import StepInterval, parse_step
from consentry.core import (
    ActionType, AuthzQuery, ConsentRecord, Decision, Ledger, Mode, Reason, Run,
)
from consentry.errors import (
    ConsistencyError, IntervalError, LexError, LogFormatError, ParseError,
)
from consentry.ontology import ConceptGraph, ConceptKind
from consentry.oracle import FiniteScenario
from consentry.script import (
    KEYWORDS, Access, Assume, Collect, Grant, NewData, NewDisjoint, NewEquiv,
    NewRecipient, Statement, Step, Token, TokenKind, Withdraw,
)

_MODES = {"guaranteed": Mode.GUARANTEED, "possible": Mode.POSSIBLE}
_ACTIONS = {"collect": ActionType.COLLECT, "access": ActionType.ACCESS}


def build_ledger(scenario: FiniteScenario) -> Ledger:
    """Apply a scenario's static declarations to a fresh ledger."""
    ledger = Ledger()
    for name, parent in scenario.data_facts.concepts:
        ledger.declare_data(name, parent)
    for name, parent in scenario.recipient_facts.concepts:
        ledger.declare_recipient(name, parent)
    for facts in (scenario.data_facts, scenario.recipient_facts):
        for a, b in facts.equivalences:
            ledger.declare_equivalent(a, b)
        for a, b in facts.disjoint_pairs:
            ledger.declare_disjoint(a, b)
    for subject in scenario.subjects:
        ledger.declare_subject(subject)
    return ledger


def covers_collection(consent: ConsentRecord, step: int) -> bool:
    """Does the consent cover collecting at `step`? Read off its reach."""
    lo, hi = consent.reach(ActionType.COLLECT, step)
    return lo <= step and (hi is None or step < hi)


def covers_access(consent: ConsentRecord, collected_at: int, accessed_at: int) -> bool:
    """Does the consent cover reading, at `accessed_at`, data collected at
    `collected_at`? Read off its reach; nothing is read before it is collected."""
    lo, hi = consent.reach(ActionType.ACCESS, accessed_at)
    return collected_at <= accessed_at and lo <= collected_at and \
        (hi is None or collected_at < hi)


def authorized_region(consent: ConsentRecord, horizon: int) -> set[tuple[int, int]]:
    """All (collection step, access step) pairs the consent covers up to horizon."""
    return {
        (t_c, t_a)
        for t_a in range(1, horizon + 1)
        for t_c in range(1, t_a + 1)
        if covers_access(consent, t_c, t_a)
    }


# Lower rank wins when several causes explain a denial.
_DENIAL_RANK = {
    Reason.CONCEPT_UNSATISFIABLE: 0,
    Reason.SUBJECT_MISMATCH: 1,
    Reason.NO_MATCHING_CONSENT: 2,
    Reason.WITHDRAWN_RETRO: 3,
    Reason.WITHDRAWN_NON_RETRO: 4,
    Reason.OUTSIDE_GRANT_WINDOW: 5,
}


def concepts_match(graph: ConceptGraph, consent: ConsentRecord, query: AuthzQuery) -> bool:
    """Do the consent's concepts apply to the query's? Asked of the graph's
    public tests, one consent at a time, so no engine index or mask is read."""
    if query.mode is Mode.GUARANTEED:
        return graph.subsumes(consent.data_concept, query.data_concept) and \
            graph.subsumes(consent.recipient_concept, query.recipient_concept)
    return not graph.are_disjoint(consent.data_concept, query.data_concept) and \
        not graph.are_disjoint(consent.recipient_concept, query.recipient_concept)


def reference_decide(ledger: Ledger, query: AuthzQuery) -> Decision:
    """The decision kernel as cuts and rescans, kept as the reference that
    `Ledger._decide`'s covers and clips must agree with: runs, verdict and reason.
    The candidates are every consent in `ledger.consents`, judged one by one
    by `concepts_match`, so none of the engine's indexes is trusted. The runs
    come from every reach end inside the span, each run's ids from a scan of
    every reach, and a denial's cause from a second reach per consent at the
    last uncovered step."""
    graph = ledger.ontology
    span = query.collected_interval
    if graph.is_unsatisfiable(query.data_concept) or graph.is_unsatisfiable(
        query.recipient_concept
    ):
        return Decision(((span, frozenset()),), Reason.CONCEPT_UNSATISFIABLE)
    applying = [c for c in ledger.consents if concepts_match(graph, c, query)]
    matching = [c for c in applying if c.subject == query.subject]
    runs = reference_runs(span, matching, query.action, query.access_at)
    if all(ids for _, ids in runs):
        return Decision(runs, Reason.OK)
    if matching:
        last = next(run.last for run, ids in reversed(runs) if not ids)
        causes = set()
        for c in matching:
            hi = c.reach(query.action, query.access_at)[1]
            if hi is None or last < hi:
                causes.add(Reason.OUTSIDE_GRANT_WINDOW)
            elif c.withdrawal.retroactive:
                causes.add(Reason.WITHDRAWN_RETRO)
            else:
                causes.add(Reason.WITHDRAWN_NON_RETRO)
        reason = min(causes, key=_DENIAL_RANK.__getitem__)
    else:
        # None of the subject's own consents applies, so any that does is
        # another subject's.
        reason = Reason.SUBJECT_MISMATCH if applying else Reason.NO_MATCHING_CONSENT
    return Decision(runs, reason)


def reference_runs(span: StepInterval, consents: list[ConsentRecord],
                   action: ActionType, accessed_at: int) -> tuple[Run, ...]:
    """Cut span into maximal runs of steps, each with the consents covering it.

    The cuts are the span's ends plus every end of a consent's reach inside
    it. Each inner cut is where some consent starts or stops covering, and
    every consent occurs once, so neighbouring runs never share an id set.
    """
    start, end = span.start, span.end
    reaches = []
    cuts = {start, end}
    for c in consents:
        lo, hi = c.reach(action, accessed_at)
        lo = max(lo, start)
        hi = end if hi is None else min(hi, end)
        if lo < hi:
            reaches.append((c.id, lo, hi))
            cuts.add(lo)
            cuts.add(hi)
    bounds = sorted(cuts)
    return tuple(
        (StepInterval(a, b),
         frozenset([cid for cid, lo, hi in reaches if lo <= a and b <= hi]))
        for a, b in zip(bounds, bounds[1:])
    )


def engine_verdicts(scenario: FiniteScenario) -> list[bool]:
    """Replay the scenario through the engine, answering every query."""
    ledger = build_ledger(scenario)
    verdicts: dict[int, bool] = {}
    granted: dict[int, int] = {}  # scenario consent index -> ledger consent id
    for now in range(1, scenario.horizon + 1):
        for idx, consent in enumerate(scenario.consents):
            if consent.granted_at == now:
                granted[idx] = ledger.grant(
                    consent.data, consent.subject, consent.recipient,
                    retroactive=consent.grant_retroactive)
        for idx, consent in enumerate(scenario.consents):
            if consent.withdrawn_at == now:
                ledger.withdraw(granted[idx],
                                retroactive=consent.withdraw_retroactive)
        for q_idx, query in enumerate(scenario.queries):
            if query.at != now:
                continue
            authz = AuthzQuery(
                action=_ACTIONS[query.action],
                data_concept=ledger.ontology.lookup(query.data),
                subject=query.subject,
                recipient_concept=ledger.ontology.lookup(query.recipient),
                collected_interval=StepInterval(query.start, query.end),
                access_at=query.at,
                mode=_MODES[query.mode],
            )
            verdicts[q_idx] = ledger.check(authz).authorized
        if now < scenario.horizon:
            ledger.advance()
    return [verdicts[i] for i in range(len(scenario.queries))]


def random_graph(rng: random.Random, max_concepts: int = 50):
    """Build a random data-concept graph alongside naive fact lists.

    Returns (graph, names, edges, equivalences, disjoint_pairs) where the
    fact lists describe exactly the declarations the graph accepted.
    """
    graph = ConceptGraph()
    names: list[str] = []
    edges: list[tuple[str, str]] = []
    equivalences: list[tuple[str, str]] = []
    disjoints: list[tuple[str, str]] = []
    count = rng.randint(2, max_concepts)
    for i in range(count):
        name = f"C{i}"
        pool = ["Data"] + names
        parents = rng.sample(pool, k=min(len(pool), rng.choice((1, 1, 1, 2))))
        graph.declare_concept(name, ConceptKind.DATA, parents)
        names.append(name)
        edges.extend((name, p) for p in parents)
    # Monotone refinements: a few existing concepts gain an extra parent.
    for _ in range(rng.randint(0, 3)):
        child = rng.choice(names)
        parent = rng.choice(["Data"] + names)
        if parent == child:
            continue
        graph.declare_concept(child, ConceptKind.DATA, [parent])
        edges.append((child, parent))
    for _ in range(rng.randint(0, 4)):
        a, b = rng.sample(names, 2)
        graph.declare_equivalent(a, b)
        equivalences.append((a, b))
    for _ in range(rng.randint(0, 6)):
        a, b = rng.sample(names, 2)
        try:
            graph.declare_disjoint((a, b))
        except ConsistencyError:
            continue
        disjoints.append((a, b))
    return graph, names, edges, equivalences, disjoints


def naive_reachability(names: list[str], edges: list[tuple[str, str]],
                       equivalences: list[tuple[str, str]]) -> dict[str, set[str]]:
    """Transitive closure over parent and (bidirectional) equivalence edges."""
    adjacency: dict[str, set[str]] = {n: {n} for n in names + ["Data"]}
    for child, parent in edges:
        adjacency[child].add(parent)
    for a, b in equivalences:
        adjacency[a].add(b)
        adjacency[b].add(a)
    closure: dict[str, set[str]] = {}
    for start in adjacency:
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for nxt in adjacency[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        closure[start] = seen
    return closure


@contextmanager
def digit_limit(limit: int):
    """Set CPython's cap on int-string digits (0 means none) for the block."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def reference_record_lines(text: str) -> tuple[list[tuple[int, dict]], LogFormatError | None]:
    """The records a log's lines hold, read with one `JSONDecoder.decode` per
    non-blank line: the `(line, payload)` pairs before the first bad line,
    and the LogFormatError that line gets, or None when every line is good."""
    decode = json.JSONDecoder().decode
    pairs = []
    for line_no, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            payload = decode(line)
        except json.JSONDecodeError as err:
            msg = "Unexpected UTF-8 BOM (decode using utf-8-sig)" \
                if line.startswith("\ufeff") else err.msg
            return pairs, LogFormatError(f"not valid JSON: {msg}", line_no)
        except ValueError:
            return pairs, LogFormatError("not valid JSON: an integer is too long", line_no)
        except RecursionError:
            return pairs, LogFormatError("not valid JSON: nested too deeply", line_no)
        if not isinstance(payload, dict):
            return pairs, LogFormatError("each record must be a JSON object", line_no)
        pairs.append((line_no, payload))
    return pairs, None


_REF_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_REF_TIME = re.compile(r"T[0-9]+\Z")


def reference_tokenize(text: str) -> list[Token]:
    """The script lexer as a per-character loop, kept as the reference that
    `script.tokenize` must agree with, token for token and error for error."""
    tokens: list[Token] = []
    for line_no, line in enumerate(re.split(r"\r\n|\r|\n", text), start=1):
        pos = 0
        while pos < len(line):
            ch = line[pos]
            if ch in " \t":
                pos += 1
                continue
            if ch == "#":
                break
            if ch == ":":
                m = _REF_WORD.match(line, pos + 1)
                if m is None:
                    raise LexError(line_no, pos + 1, "expected a label name after ':'")
                tokens.append(Token(TokenKind.LABEL, m.group(), line_no, pos + 1))
                pos = m.end()
                continue
            m = _REF_WORD.match(line, pos)
            if m is None:
                raise LexError(line_no, pos + 1, f"illegal character {ch!r}")
            word = m.group()
            if word in KEYWORDS:
                kind = TokenKind.KEYWORD
            elif _REF_TIME.match(word):
                kind = TokenKind.TIME
            else:
                kind = TokenKind.NAME
            tokens.append(Token(kind, word, line_no, pos + 1))
            pos = m.end()
    return tokens


def reference_parse(text: str) -> list[Statement]:
    """The script parser as a token cursor over `reference_tokenize`, kept as
    the reference that `script.parse_script` must agree with, statement for
    statement and error for error. The whole text is lexed before any line
    is parsed, so a lex error on any line comes before a parse error."""
    tokens = reference_tokenize(text)
    return [_RefCursor(list(line_tokens), line).statement()
            for line, line_tokens in groupby(tokens, key=attrgetter("line"))]


class _RefCursor:
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

    def statement(self) -> Statement:
        head = self.keyword("new", "grant", "withdraw", "collect", "access", "step",
                            "assume")
        if head == "new":
            stmt = self.new()
        elif head == "grant":
            retro = self.match_keyword("retro")
            data = self.name("a data concept")
            subject = self.name("a data subject")
            recipient = self.name("a recipient")
            label = self.label("a consent label like :consent1")
            stmt = Grant(data, subject, recipient, label, retro, line=self.line)
        elif head == "withdraw":
            retro = self.match_keyword("retro")
            stmt = Withdraw(self.label("a consent label"), retro, line=self.line)
        elif head == "collect":
            stmt = self.collect()
        elif head == "access":
            stmt = self.access()
        elif head == "step":
            stmt = Step(line=self.line)
        else:
            expected = self.keyword("true", "false")
            inner_head = self.keyword("collect", "access")
            inner = self.collect() if inner_head == "collect" else self.access()
            stmt = Assume(expected == "true", inner, line=self.line)
        self.finish()
        return stmt

    def new(self) -> Statement:
        what = self.keyword("data", "recipient", "disjoint", "equiv")
        if what == "data":
            return NewData(self.name("a concept name"), self.name("a parent concept"),
                           line=self.line)
        if what == "recipient":
            return NewRecipient(self.name("a recipient name"), line=self.line)
        if what == "equiv":
            return NewEquiv(self.name("a concept name"), self.name("a concept name"),
                            line=self.line)
        names = [self.name("a concept name"), self.name("a concept name")]
        while not self.done():
            names.append(self.name("a concept name"))
        return NewDisjoint(tuple(names), line=self.line)

    def collect(self) -> Collect:
        return Collect(self.name("a data concept"), self.name("a data subject"),
                       self.name("a recipient"), line=self.line)

    def access(self) -> Access:
        data = self.name("a data concept")
        subject = self.name("a data subject")
        recipient = self.name("a recipient")
        start = end = None
        tok = self.peek()
        if tok is not None and tok.kind is TokenKind.TIME:
            start = self.time()
            tok = self.peek()
            if tok is not None and tok.kind is TokenKind.TIME:
                end = self.time()
        return Access(data, subject, recipient, start, end, line=self.line)
