"""Consent records, authorization queries, and the append-only ledger.

The ledger is the engine's knowledge base: an ontology, a clock and granted
consents. Everything is append-only. Withdrawing a consent does not delete
it; the record gains a withdrawal mark and the decision procedure reads
both. Recorded events go back to the caller with their verdicts attached.

Time semantics, written once in `ConsentRecord.reach`: at a fixed access
step a consent covers one half-open interval [lo, hi) of collection steps.

* Collection ignores the access step and retroactivity: [g, w) for a grant
  at g and a withdrawal at w (hi is None while not withdrawn). The step of
  withdrawal itself is no longer covered.
* Access reaches back to lo = T1 once a retroactive grant is in force, and
  otherwise starts at the grant, lo = g. A non-retroactive withdrawal at w
  keeps data collected before it readable (hi = w); a retroactive one, once
  in force, cuts every step (hi = T1). Access also needs the collection
  step at or before the access step, so nothing is read before its grant.

An access query spans a collection interval. Each step of the interval
may be covered by a different consent; the query is authorized when no
step is left uncovered. There is no union reasoning within one step: a
single consent must cover a given collection step outright.

A decision therefore stores coverage in closed form: the query interval
cut into maximal runs of steps, each with the ids of the consents that
cover all of it. It is read off a cover: one pass over the matching
consents' reaches cuts [T1, oo) into maximal runs, and keeps the least hi
that a withdrawal ends a reach at, and the least that a retroactive one
does. Clipping the cover to the query interval finds the runs that meet it
by bisection, and the last uncovered step by one more. A consent fails an
uncovered step at or past its hi because it was withdrawn, and below it
because the step is outside its grant window, so the two least his give a
denial's cause.

Every grant and withdrawal happens at a step no later than the present, so
from the present on no reach moves with the access step. Each subject keeps
its covers built at the present in one map keyed by action and pairs, the
action's value and the set of its pairs that a query matched. A later
decision at the present with the same key costs a clip. A grant or
withdrawal on a pair drops the covers whose keys hold it, and no other;
declarations drop nothing, since they change which set a query matches, not
what a set covers. A query asked before the present builds its cover on the
spot.

`Ledger.check` finds candidates through two `_PairIndex`es, which `grant`
fills: a mask with bit d for each data concept d that files a
(data, recipient) pair, and per such concept the mask of the recipients
paired with it. One index per subject holds its own pairs, next to their
consents filed by pair; the other holds the distinct pairs of all
consents and is read only on the denial path, where it tells a subject
mismatch from no matching consent. The query's concepts are validated
once at entry; after that one matching rule, `_matching`, walks an index
with mask ANDs. In guaranteed mode a pair applies when both its concepts
are ancestors of the query's, so the walk visits the data concepts in
`data_keys & _up[data]` and keeps, under each, the recipients in
`by_data[d] & _up[recipient]`. Possible mode walks every filed data
concept and recipient and keeps those not disjoint from the query's, one
clash test per concept. A pair is visited once, however many consents it
files, so a check whose question is new costs in proportion to the
subject's filed data concepts and the runs it returns, plus its matching
consents when it builds a cover, not the ledger's size.

The denial path walks the index of all pairs after the subject's own
pairs have failed the rule, so a pair that applies there is another
subject's: the subject-mismatch verdict needs no exclusion, does not
depend on the subject, and is settled by the first pair that applies,
where the walk stops. In guaranteed mode that walk visits at most the
ancestors of the query's data concept that file a pair.

What the rule answers is kept, in each index's `kept` map, so that a
question asked again costs dict lookups and a clip. A subject's file maps a
question, `(data, recipient, action, mode)` with the enum members by value,
to its kept-cover key. The index of all pairs maps `(data, recipient, mode)`
to a denial's reason, which does not depend on the subject, so a subject
the ledger has never seen reads it too. An index clears its map when it
gains a new pair; a regrant on a pair it has and a withdrawal change no
match and clear nothing. The rule also reads the ontology's masks, so every
map is dropped when `ConceptGraph._commit` has rewritten them since, which
its generation counter tells; a fresh concept writes no old mask and drops
nothing. The unsatisfiability test reads the masks first on every decision
and is never kept. The maps grow with the distinct questions asked of each
subject, not with events.

`record_event` and `decide_event`, which the script interpreter's `assume`
calls, build their query in one place, `_event_query`. It refuses a bad
action, subject or collect interval, then builds the query with `_query`,
the one builder `collect_query` and `access_query` call too. It checks
each concept inline, a name of the kind asked with one lookup and one kind
test, and hands any other to `resolve`, which reads an id or raises;
`check` checks its ids inline with a type, a bounds and a kind test. An
access's interval, when the caller gives one, then gets `check`'s shape
test; the ledger builds the others on its own clock. So both skip the rest
of `check`'s entry validation and report a bad query alike.

`Withdrawal` and the values built on every decision, `AuthzQuery`,
`Decision` and `EventRecord`, are named tuples: immutable, equal to plain
tuples with the same values, changed with `_replace` and built by position.
The ledger builds these per-event values with `tuple.__new__`, as it builds
intervals on its own clock, since their classes check nothing: a call to
the class would only add a Python frame per value. The log monitor builds
its statements the same way, a per-event string is read off its enum
member's `_value_` (on 3.11 the `.value` property costs two frames), and
`EventRecord.fields` reads names off the graph's concept list, since the
ids were resolved when the query was built.
`ConsentRecord` is a slotted class that `withdraw` marks in place.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from enum import Enum
from math import inf
from typing import Iterator, NamedTuple

from . import chronology
from .chronology import StepInterval
from .errors import (
    AlreadyWithdrawnError,
    DuplicateLabelError,
    InvalidValueError,
    QueryError,
    UnknownConsentError,
    UnknownSubjectError,
)
from .ontology import ConceptGraph, ConceptKind


class ActionType(Enum):
    COLLECT = "collect"
    ACCESS = "access"


class Mode(Enum):
    """How much the decision may assume about concept overlap.

    GUARANTEED requires provable coverage: the consent's concepts must
    subsume the query's. POSSIBLE only requires non-contradiction: the
    concepts must not be provably disjoint. Guaranteed authorization
    always implies possible authorization.
    """

    GUARANTEED = "guaranteed"
    POSSIBLE = "possible"


class Reason(Enum):
    OK = "Ok"
    NO_MATCHING_CONSENT = "NoMatchingConsent"
    OUTSIDE_GRANT_WINDOW = "OutsideGrantWindow"
    WITHDRAWN_NON_RETRO = "WithdrawnNonRetro"
    WITHDRAWN_RETRO = "WithdrawnRetro"
    CONCEPT_UNSATISFIABLE = "ConceptUnsatisfiable"
    SUBJECT_MISMATCH = "SubjectMismatch"


# The enum members that every decision reads, read off their classes once
# here: on 3.10 and 3.11 each read off the class costs about as much as a
# Python call.
_DATA, _RECIPIENT = ConceptKind.DATA, ConceptKind.RECIPIENT
_COLLECT, _ACCESS = ActionType.COLLECT, ActionType.ACCESS
_GUARANTEED, _OK = Mode.GUARANTEED, Reason.OK


class Withdrawal(NamedTuple):
    step: int
    retroactive: bool


class ConsentRecord:
    """One grant, optionally marked withdrawn later. Never deleted."""

    __slots__ = ("id", "label", "data_concept", "subject", "recipient_concept",
                 "granted_at", "grant_retroactive", "withdrawal")

    def __init__(self, id: int, label: str | None, data_concept: int, subject: str,
                 recipient_concept: int, granted_at: int, grant_retroactive: bool,
                 withdrawal: Withdrawal | None = None):
        self.id, self.label, self.data_concept, self.subject = id, label, data_concept, subject
        self.recipient_concept, self.granted_at = recipient_concept, granted_at
        self.grant_retroactive, self.withdrawal = grant_retroactive, withdrawal

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def reach(self, action: ActionType, accessed_at: int) -> tuple[int, int | None]:
        """The collection steps [lo, hi) this consent covers at one access step.

        A hi of None leaves the interval unbounded; lo >= hi covers nothing.
        See the module docstring for the rules.
        """
        w = self.withdrawal
        hi = None if w is None else w.step
        if action is _COLLECT:
            return self.granted_at, hi
        in_force = accessed_at >= self.granted_at
        lo = 1 if self.grant_retroactive and in_force else self.granted_at
        if w is not None and w.retroactive:
            hi = 1 if accessed_at >= w.step else None
        return lo, hi


class AuthzQuery(NamedTuple):
    """One yes/no question against the ledger. Evaluation never mutates."""

    action: ActionType
    data_concept: int
    subject: str
    recipient_concept: int
    collected_interval: StepInterval
    access_at: int
    mode: Mode = Mode.GUARANTEED


Run = tuple[StepInterval, frozenset[int]]


class Decision(NamedTuple):
    """Outcome of one query: who covered what, and why not.

    `runs` cuts the query's collection interval into maximal runs of steps,
    in order, each with the ids of the consents covering every step of it.
    The query is authorized exactly when the reason is OK.
    """

    runs: tuple[Run, ...]
    reason: Reason

    @property
    def authorized(self) -> bool:
        return self.reason is _OK


# A set of consents' coverage of [T1, oo) at one access step, as `_cover`
# builds it: (starts, runs, gaps, first_cut, first_retro_cut). `runs` tiles
# [T1, oo) with maximal runs, the last one unbounded, and `starts` holds
# their first steps, for bisection; `gaps` holds the indexes of the empty
# ones. `first_cut` is the least hi of a reach that a withdrawal ends, and
# `first_retro_cut` the least of one a retroactive withdrawal ends; inf,
# past every step, when there is none.
_Cover = tuple[tuple[int, ...], tuple[Run, ...], tuple[int, ...], float, float]

# The ids of no consent: one shared value for every empty run, since
# `frozenset()` builds a new object each time.
_NOTHING: frozenset[int] = frozenset()


class _PairIndex:
    """Distinct (data, recipient) pairs, indexed for the matching walk:
    `data_keys` has bit d for each data concept d that files a pair, and
    `by_data[d]` bit r for each recipient r paired with it. `kept` holds
    what the ledger read off a walk of the index, by question; a new pair
    clears it, since it may change any walk's answer."""

    __slots__ = ("data_keys", "by_data", "kept")

    def __init__(self) -> None:
        self.data_keys = 0
        self.by_data: dict[int, int] = {}
        self.kept: dict[tuple, object] = {}

    def add(self, data: int, recipient: int) -> None:
        mask, bit = self.by_data.get(data, 0), 1 << recipient
        if not mask & bit:
            self.data_keys |= 1 << data
            self.by_data[data] = mask | bit
            self.kept.clear()


class _SubjectFile(_PairIndex):
    """One subject's pairs, indexed as the ledger indexes all pairs, its
    consents filed by pair in id order, and its covers built at the present
    in one map keyed by action and pairs, `(action, *pairs)` with the action's
    value and the pairs as `_matching` yields them. `kept` maps a question,
    `(data, recipient, action, mode)` by value, to that key. A grant or
    withdrawal on a pair calls `drop`."""

    __slots__ = ("pairs", "covers")

    def __init__(self) -> None:
        super().__init__()
        self.pairs: dict[tuple[int, int], list[ConsentRecord]] = {}
        self.covers: dict[tuple, _Cover] = {}

    def file(self, record: ConsentRecord) -> None:
        pair = record.data_concept, record.recipient_concept
        filed = self.pairs.get(pair)
        if filed is None:
            filed = self.pairs[pair] = []
            self.add(*pair)
        else:  # a kept cover names only pairs filed before
            self.drop(pair)
        filed.append(record)

    def drop(self, pair: tuple[int, int]) -> None:
        """Forget the kept covers built from the pair's consents."""
        self.covers = {key: cover for key, cover in self.covers.items() if pair not in key}


class EventRecord(NamedTuple):
    """A collection or access that actually happened: its query and verdict.

    Events are recorded regardless of the verdict; the engine observes,
    it does not gate. The event happened at `query.access_at`; an access's
    `query.collected_interval` holds the steps its data was collected in,
    and a collect's is just its own step.
    """

    id: int
    query: AuthzQuery
    verdict: Decision

    def fields(self, graph: ConceptGraph) -> dict[str, object]:
        """The event as reports name it: concepts by name, and the half-open
        collected steps of an access (None for a collect)."""
        query = self.query
        span = query.collected_interval
        concepts = graph._concepts  # the ids were resolved with the query
        return {
            "action": query.action._value_,
            "data_concept": concepts[query.data_concept].name,
            "subject": query.subject,
            "recipient_concept": concepts[query.recipient_concept].name,
            "step": query.access_at,
            "collected_steps": (span.start, span.end)
            if query.action is _ACCESS else None,
        }


class Ledger:
    """Append-only knowledge base: ontology + clock + consents.

    Single writer assumed. Readers may snapshot `consents` freely since
    records are never removed or reordered. Recorded events are returned
    to the caller, not kept: the ledger keeps only their count, for the
    next id, and the concepts they use, which declarations must keep
    satisfiable. So its size follows the consents, not the history.
    """

    def __init__(self) -> None:
        self.ontology = ConceptGraph()
        self.now: int = 1
        self.consents: list[ConsentRecord] = []
        self._labels: dict[str, int] = {}
        # Indexes over `consents`, filled in `grant`; withdrawal marks the
        # shared record objects and drops its pair's covers. Indexing the map
        # declares a subject, its consents filed by (data, recipient) pair; a
        # read that must not declare one uses `.get` or `in`.
        self._by_subject: defaultdict[str, _SubjectFile] = defaultdict(_SubjectFile)
        # The distinct (data, recipient) pairs of all subjects; its `kept`
        # maps (data, recipient, mode) by value to a denial's reason.
        self._all_pairs = _PairIndex()
        # The ontology's generation that every `kept` map was read at.
        self._generation = self.ontology._generation
        self._event_concepts: set[int] = set()  # concepts recorded events use
        self._next_event = 1

    # -- clock and declarations ------------------------------------------

    def advance(self, count: int = 1) -> int:
        """Move the clock `count` steps on, in one call however many."""
        self.now = chronology.advance(self.now, count)
        return self.now

    def declare_subject(self, subject: str) -> str:
        _check_subject(subject)
        self._by_subject[subject]
        return subject

    def knows_subject(self, subject: str) -> bool:
        return isinstance(subject, str) and subject in self._by_subject

    def declare_data(self, name: str, *parents: str) -> int:
        return self.ontology.declare_concept(name, ConceptKind.DATA, parents,
                                             protected=self._event_concepts)

    def declare_recipient(self, name: str, *parents: str) -> int:
        return self.ontology.declare_concept(name, ConceptKind.RECIPIENT, parents,
                                             protected=self._event_concepts)

    def declare_disjoint(self, *names: str) -> None:
        # Concepts that recorded events classify must stay satisfiable.
        self.ontology.declare_disjoint(names, protected=self._event_concepts)

    def declare_equivalent(self, a: str, b: str) -> None:
        self.ontology.declare_equivalent(a, b, protected=self._event_concepts)

    # -- consents ----------------------------------------------------------

    def grant(self, data: int | str, subject: str, recipient: int | str,
              retroactive: bool = False, label: str | None = None) -> int:
        """Record a consent effective from the current step. Returns its id."""
        _check_flag(retroactive)
        _check_subject(subject)
        if label is not None and not isinstance(label, str):
            raise InvalidValueError(f"label must be a string or None, got {label!r}")
        data_id = self.ontology.resolve(data, ConceptKind.DATA)
        recipient_id = self.ontology.resolve(recipient, ConceptKind.RECIPIENT)
        if label in self._labels:
            raise DuplicateLabelError(f"consent label already in use: :{label}")
        record = ConsentRecord(
            id=len(self.consents),
            label=label,
            data_concept=data_id,
            subject=subject,
            recipient_concept=recipient_id,
            granted_at=self.now,
            grant_retroactive=retroactive,
        )
        self.consents.append(record)
        self._by_subject[subject].file(record)
        self._all_pairs.add(data_id, recipient_id)
        if label is not None:
            self._labels[label] = record.id
        return record.id

    def consent(self, ref: int | str) -> ConsentRecord:
        """Find a consent by id or label."""
        if isinstance(ref, str):
            if ref not in self._labels:
                raise UnknownConsentError(f":{ref}")
            return self.consents[self._labels[ref]]
        # A bool is an int, but names no consent.
        if not isinstance(ref, int) or isinstance(ref, bool) or not 0 <= ref < len(self.consents):
            raise UnknownConsentError(ref)
        return self.consents[ref]

    def withdraw(self, ref: int | str, retroactive: bool = False) -> ConsentRecord:
        """Mark a consent withdrawn at the current step."""
        _check_flag(retroactive)
        record = self.consent(ref)
        if record.withdrawal is not None:
            raise AlreadyWithdrawnError(
                f"consent {record.label or record.id} was already withdrawn "
                f"at {chronology.format_step(record.withdrawal.step)}"
            )
        record.withdrawal = Withdrawal(self.now, retroactive)
        self._by_subject[record.subject].drop((record.data_concept, record.recipient_concept))
        return record

    # -- queries -----------------------------------------------------------

    def collect_query(self, data: int | str, subject: str, recipient: int | str,
                      mode: Mode = Mode.GUARANTEED) -> AuthzQuery:
        """Ask about collecting right now."""
        return self._query(_COLLECT, data, subject, recipient, None, mode)

    def access_query(self, data: int | str, subject: str, recipient: int | str,
                     collected_interval: StepInterval | None = None,
                     mode: Mode = Mode.GUARANTEED) -> AuthzQuery:
        """Ask about accessing, right now, data collected over an interval.

        With no interval given the query spans all history, [T1, now+1).
        """
        return self._query(_ACCESS, data, subject, recipient, collected_interval,
                           mode)

    def _query(self, action: ActionType, data: int | str, subject: str,
               recipient: int | str, interval: StepInterval | None,
               mode: Mode) -> AuthzQuery:
        """The query asked now, built by position: the data concept resolved,
        then the recipient. A None interval is the ledger's own: a collect's
        step, or all history for an access. A given one is not checked."""
        graph, now = self.ontology, self.now
        # A name of the kind asked passes with one lookup and one test; any
        # other reference goes to `resolve`, which reads an id or refuses.
        by_name, concepts = graph._by_name, graph._concepts
        data_id = by_name.get(data) if type(data) is str else None
        if data_id is None or concepts[data_id].kind is not _DATA:
            data_id = graph.resolve(data, _DATA)
        recipient_id = by_name.get(recipient) if type(recipient) is str else None
        if recipient_id is None or concepts[recipient_id].kind is not _RECIPIENT:
            recipient_id = graph.resolve(recipient, _RECIPIENT)
        if interval is None:
            interval = _by_position(StepInterval, (
                now if action is _COLLECT else 1, now + 1))
        return _by_position(AuthzQuery, (action, data_id, subject, recipient_id, interval,
                                         now, mode))

    def check(self, query: AuthzQuery) -> Decision:
        """Decide a query against the current ledger. Pure: no reader sees a change."""
        if not isinstance(query, AuthzQuery):
            raise QueryError(f"expected an AuthzQuery, got {query!r}")
        if type(query.action) is not ActionType:
            raise QueryError(f"unknown action {query.action!r}, expected an ActionType")
        if type(query.mode) is not Mode:
            raise QueryError(f"unknown mode {query.mode!r}, expected a Mode")
        # Exactly int: a bool is an int too, but names no step.
        if type(query.access_at) is not int or query.access_at < 1:
            raise QueryError(f"access step must be an int of at least 1, "
                             f"got {query.access_at!r}")
        # A query holds concept ids. An id of the kind asked passes with a
        # type, a bounds and a kind test. Anything else is refused: a name
        # here, since `resolve` would read it, and the rest by `resolve`.
        graph, data, recipient = self.ontology, query.data_concept, query.recipient_concept
        concepts = graph._concepts
        if not (type(data) is int and 0 <= data < len(concepts)
                and concepts[data].kind is _DATA):
            if isinstance(data, str):
                raise QueryError(f"data_concept must be a concept id, not a name: {data!r}")
            graph.resolve(data, _DATA)
        if not (type(recipient) is int and 0 <= recipient < len(concepts)
                and concepts[recipient].kind is _RECIPIENT):
            if isinstance(recipient, str):
                raise QueryError(
                    f"recipient_concept must be a concept id, not a name: {recipient!r}")
            graph.resolve(recipient, _RECIPIENT)
        if not self.knows_subject(query.subject):
            raise UnknownSubjectError(query.subject)
        self._validate_query_shape(query)
        return self._decide(query)

    def _decide(self, query: AuthzQuery) -> Decision:
        """Decide a query whose concepts, subject and interval are valid.

        The matching rule picks the subject's own pairs that apply, and
        their consents' cover is clipped to the query's span: asked at the
        present or later, the cover the subject keeps in its one map keyed
        by action and pairs, built and kept first if there is none; asked
        before, one built for the query alone. When no pair applies, the
        same rule over every subject's pairs tells a subject mismatch from no
        matching consent: the subject's own pairs have just failed it, so
        the first pair that applies is another subject's.

        Each index keeps what the rule answered for a question, until it
        gains a pair or a declaration rewrites the masks the rule reads.
        """
        graph = self.ontology
        up, forbid = graph._up, graph._forbid
        data, recipient = query.data_concept, query.recipient_concept
        span = query.collected_interval
        # A concept is unsatisfiable when its ancestors meet the concepts
        # forbidden to them.
        if up[data] & forbid[data] or up[recipient] & forbid[recipient]:
            return _by_position(Decision, (((span, _NOTHING),), Reason.CONCEPT_UNSATISFIABLE))
        if graph._generation != self._generation:
            self._forget_matches()

        # The kept-cover key: the action and the own pairs that apply, none
        # for a subject not yet known, whom `decide_event` may ask about.
        # Questions are keyed by the enum members' values, whose hashes are
        # kept, unlike the members', which are computed in Python.
        own = self._by_subject.get(query.subject)
        action, mode = query.action._value_, query.mode._value_
        if own is None:
            key = None
        else:
            kept = own.kept
            key = kept.get((data, recipient, action, mode))
            if key is None:
                key = kept[data, recipient, action, mode] = (
                    action, *self._matching(query, own))
        if key is None or len(key) == 1:
            kept = self._all_pairs.kept
            reason = kept.get((data, recipient, mode))
            if reason is None:
                reason = kept[data, recipient, mode] = Reason.NO_MATCHING_CONSENT \
                    if next(self._matching(query, self._all_pairs), None) is None \
                    else Reason.SUBJECT_MISMATCH
            return _by_position(Decision, (((span, _NOTHING),), reason))
        access_at = query.access_at
        present = access_at >= self.now
        covers = own.covers
        cover = covers.get(key) if present else None
        if cover is None:
            cover = _cover([c for pair in key[1:] for c in own.pairs[pair]], query.action,
                           access_at)
            if present:
                covers[key] = cover
        return _clip(cover, span)

    def _forget_matches(self) -> None:
        """Drop every kept answer of the matching rule: a declaration has
        rewritten the masks it reads. The covers stay, since a set of pairs
        covers the same steps whichever queries it matches."""
        self._all_pairs.kept.clear()
        for own in self._by_subject.values():
            own.kept.clear()
        self._generation = self.ontology._generation

    def _validate_query_shape(self, query: AuthzQuery) -> None:
        interval = query.collected_interval
        if not isinstance(interval, StepInterval):
            raise QueryError(f"the collected interval must be a StepInterval, got {interval!r}")
        start, end = interval.start, interval.end
        if end is None:
            raise QueryError("queries need a bounded collection interval")
        # `_replace` skips StepInterval's check. A bool is an int, but no step.
        if type(start) is not int or type(end) is not int or not 1 <= start < end:
            raise QueryError(f"collection interval bounds must be whole steps with "
                             f"1 <= start < end, got [{start!r}, {end!r})")
        if query.action is _COLLECT:
            if end != start + 1:
                raise QueryError("collection queries cover exactly one step")
            if start != query.access_at:
                raise QueryError(
                    f"collection step {chronology.format_step(start)} is not "
                    f"the query's step {chronology.format_step(query.access_at)}"
                )
        elif end > query.access_at + 1:  # its last step, end - 1, is past the access
            raise QueryError(
                f"collection interval {interval} reaches past access step "
                f"{chronology.format_step(query.access_at)}"
            )

    def _matching(self, query: AuthzQuery,
                  index: _PairIndex) -> Iterator[tuple[int, int]]:
        """The matching rule: the indexed (data, recipient) pairs that apply
        to the query's concepts, before any subject or time reasoning, lowest
        data concept first, so a caller may stop at the first.

        The query's concepts were validated on entry, by `check` or by
        `_query`, which `_event_query` builds with, and a consent's were at
        its grant, so the ontology's masks are read unchecked.
        """
        graph = self.ontology
        data, recipient = query.data_concept, query.recipient_concept
        if query.mode is _GUARANTEED:
            # The pair's concepts subsume the query's: each is among the
            # query concept's ancestors, found with one AND per axis.
            up = graph._up
            walk, wanted, disjoint = index.data_keys & up[data], up[recipient], None
        else:
            # Possible mode: nothing may rule the overlap out, i.e. neither
            # of the pair's concepts is disjoint from the query's (this also
            # treats an unsatisfiable side as disjoint from everything). Every
            # filed concept is walked, and each is tested on its own.
            walk, wanted, disjoint = index.data_keys, -1, graph._disjoint
        by_data = index.by_data
        while walk:  # the set bits, lowest first
            low = walk & -walk
            walk ^= low
            d = low.bit_length() - 1
            if disjoint and disjoint(d, data):
                continue
            hits = by_data[d] & wanted
            while hits:
                bit = hits & -hits
                hits ^= bit
                r = bit.bit_length() - 1
                if not (disjoint and disjoint(r, recipient)):
                    yield d, r

    # -- events --------------------------------------------------------------

    def record_event(self, action: ActionType, data: int | str, subject: str,
                     recipient: int | str,
                     collected_interval: StepInterval | None = None) -> EventRecord:
        """Record a collection or access at the current step, verdict attached.

        The event is returned, not kept; ids count up from 1 per ledger.
        """
        query = self._event_query(action, data, subject, recipient, collected_interval)
        self._by_subject[subject]  # declared; `_event_query` checked it
        event = _by_position(EventRecord, (self._next_event, query, self._decide(query)))
        self._next_event += 1
        self._event_concepts.update((query.data_concept, query.recipient_concept))
        return event

    def decide_event(self, action: ActionType, data: int | str, subject: str,
                     recipient: int | str,
                     collected_interval: StepInterval | None = None) -> Decision:
        """The verdict `record_event` would attach now, with nothing recorded.

        The query is built and refused exactly as `record_event` builds and
        refuses it. Nothing is declared: an unknown subject holds no consent.
        """
        return self._decide(self._event_query(action, data, subject, recipient,
                                              collected_interval))

    def _event_query(self, action: ActionType, data: int | str, subject: str,
                     recipient: int | str,
                     collected_interval: StepInterval | None) -> AuthzQuery:
        """The query `record_event` and `decide_event` ask, ready to decide.

        Refusals come in one order: the action, the subject, a collect's
        interval (a collect takes none), then the data concept and the
        recipient, which `_query` resolves, and last an access's interval,
        when the caller gives one, checked as `check` checks it. So a
        collect's interval is refused before an unknown concept, and an
        unknown concept before an access's bad interval. The ledger builds
        the other intervals on its own clock, in shape. The subject is the
        caller's to declare.
        """
        if type(action) is not ActionType:
            raise QueryError(f"unknown action {action!r}, expected an ActionType")
        if type(subject) is not str:  # so a plain name pays no call for the check
            _check_subject(subject)
        if collected_interval is not None and action is _COLLECT:
            raise QueryError("collection events do not take a collected interval")
        query = self._query(action, data, subject, recipient, collected_interval,
                            _GUARANTEED)
        if collected_interval is not None:
            self._validate_query_shape(query)
        return query


def _check_flag(retroactive: object) -> None:
    if not isinstance(retroactive, bool):
        raise InvalidValueError(f"retroactive must be True or False, got {retroactive!r}")


def _check_subject(subject: object) -> None:
    if not isinstance(subject, str):
        raise InvalidValueError(f"subject must be a string, got {subject!r}")


# Builds a named tuple from its values without a call to its `__new__`. An
# interval on the ledger's own clock, or a run inside a query's span, which
# was checked when it was built, skips StepInterval's check; `AuthzQuery`,
# `Decision`, `EventRecord` and the monitor's statements check nothing, so a
# call would only cost a frame.
_by_position = tuple.__new__


def _cover(consents: list[ConsentRecord], action: ActionType, accessed_at: int) -> _Cover:
    """The consents' coverage of [T1, oo) at one access step, in one pass.

    The ends of the reaches are sorted and walked with one live id set. A run
    is emitted only where the step moves, so runs are maximal and at most
    2k + 1. The his of the reaches that a withdrawal ends count towards a
    denial's cause, even of an empty reach.
    """
    ends: list[tuple[int, int]] = []  # (step, id) starts, (step, ~id) stops
    cuts: list[int] = []  # the his of withdrawn reaches
    retro_cuts: list[int] = []  # of those a retroactive withdrawal ends
    for c in consents:
        lo, hi = c.reach(action, accessed_at)
        if hi is None:
            ends.append((lo, c.id))
        else:
            cuts.append(hi)
            if c.withdrawal.retroactive:
                retro_cuts.append(hi)
            if lo < hi:
                ends += (lo, c.id), (hi, ~c.id)
    ends.sort()
    # `starts` and `gaps` are kept as tuples of ints, which the collector
    # stops tracking once they survive a collection.
    starts, runs, gaps = [1], [], []
    live: set[int] = set()
    at = 1
    for step, cid in ends:
        if step != at:
            if not live:
                gaps.append(len(runs))
            runs.append((_by_position(StepInterval, (at, step)),
                         frozenset(live) if live else _NOTHING))
            starts.append(step)
            at = step
        if cid >= 0:
            live.add(cid)
        else:
            live.discard(~cid)
    if not live:  # else the open-ended reaches cover the rest
        gaps.append(len(runs))
    runs.append((_by_position(StepInterval, (at, None)), frozenset(live) if live else _NOTHING))
    return (tuple(starts), tuple(runs), tuple(gaps),
            min(cuts, default=inf), min(retro_cuts, default=inf))


def _clip(cover: _Cover, span: StepInterval) -> Decision:
    """The decision for one span, read off a cover.

    The runs that meet the span are found by bisection. The inner ones are
    the cover's own tuples; only the first and last are trimmed to the span.
    A denial's cause is judged at the last uncovered step, the last step of
    the last empty run that meets the span: a consent whose withdrawn reach
    ends at or below it was withdrawn, a retroactive withdrawal outranking a
    plain one, and without one the step is outside every grant window.
    """
    starts, runs, gaps, first_cut, first_retro_cut = cover
    start, end = span
    i = bisect_right(starts, start) - 1
    j = bisect_left(starts, end, i + 1)
    run, ids = runs[i]
    if j == i + 1:
        clipped: tuple[Run, ...] = ((span, ids),)
    else:
        head = runs[i] if run.start == start else \
            (_by_position(StepInterval, (start, run.end)), ids)
        run, ids = runs[j - 1]
        tail = runs[j - 1] if run.end == end else \
            (_by_position(StepInterval, (run.start, end)), ids)
        clipped = (head, *runs[i + 1:j - 1], tail)
    # Of the empty runs before run j, only the last can meet the span.
    k = bisect_left(gaps, j) - 1
    if k < 0 or gaps[k] < i:
        return _by_position(Decision, (clipped, _OK))
    gap = gaps[k]  # run j - 1 ends at or past the span's end
    last = end - 1 if gap == j - 1 else starts[gap + 1] - 1
    reason = Reason.WITHDRAWN_RETRO if first_retro_cut <= last \
        else Reason.WITHDRAWN_NON_RETRO if first_cut <= last \
        else Reason.OUTSIDE_GRANT_WINDOW
    return _by_position(Decision, (clipped, reason))
