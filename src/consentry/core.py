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
from the present on no reach moves with the access step. Each subject's
pair keeps, per action, the cover built at the present, and a decision on
that one pair costs a clip: bisections, and a slice of the cover's runs.
A grant or withdrawal on the pair drops its covers; declarations drop
nothing, since they change which pairs match, not what a pair covers. A
query that matches several pairs, or is asked before the present, builds
its cover on the spot. Covers follow the consents, at most two per pair.

`Ledger.check` finds candidates through two indexes that `grant` fills:
the querying subject's own consents, filed by (data, recipient) pair, and,
only on the denial path, the distinct pairs of all consents, filed by data
concept, which decide whether the denial is a subject mismatch. The
query's concepts are validated once at entry; after that one concept
predicate, built from the ontology's masks for them, judges every
candidate, and a candidate is always a (data, recipient) pair, asked at
most once per decision: each of the subject's own pairs once, however many
consents it files. So a check costs in proportion to the subject's pairs
and the runs it returns, plus its matching consents when it builds a
cover, not the ledger's size.
`record_event` and `decide_event`, which the script interpreter's `assume`
calls, build their query in one place, `_event_query`: the resolving
builders validate the concepts and an access's interval gets `check`'s
shape test, so both skip the rest of `check`'s entry validation and report
a bad query alike.

The subject-mismatch verdict ("does any distinct pair pass the predicate?")
does not depend on the subject. It is one walk over the filed data
concepts, asking the predicate of each recipient filed under one, except
the subject's own pairs, which have just failed it. The mode
only narrows the walk: in guaranteed mode a pair can pass only when its
data concept is an ancestor of the query's, so the walk visits just the
ancestors that file a pair, found with one AND of masks; possible mode
visits every filed data concept. The predicate and the walk read masks
that each declaration sets, so nothing needs dropping when the ontology
grows.

`Withdrawal` and the values built on every decision, `AuthzQuery`,
`Decision` and `EventRecord`, are named tuples: immutable, equal to plain
tuples with the same values, changed with `_replace` and built by position.
The ledger builds these per-event values with `tuple.__new__`, as it builds
intervals on its own clock, since their classes check nothing: a call to
the class would only add a Python frame per value.
`ConsentRecord` is a slotted class that `withdraw` marks in place.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from enum import Enum
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

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
        if action is ActionType.COLLECT:
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
        return self.reason is Reason.OK


# A set of consents' coverage of [T1, oo) at one access step, as `_cover`
# builds it: (starts, runs, gaps, first_cut, first_retro_cut). `runs` tiles
# [T1, oo) with maximal runs, the last one unbounded, and `starts` holds
# their first steps, for bisection; `gaps` holds the indexes of the empty
# ones. `first_cut` is the least hi of a reach that a withdrawal ends, and
# `first_retro_cut` the least of one a retroactive withdrawal ends; None
# when there is none.
_Cover = tuple[list[int], tuple[Run, ...], list[int], int | None, int | None]


class _PairFile:
    """One subject's consents on one (data, recipient) pair, in id order,
    and the covers decided from them.

    `covers` keeps a cover per action, keyed by `action is
    ActionType.ACCESS`, built at the present: at an access step no earlier
    than the ledger's clock, past every grant and withdrawal on the pair.
    A grant or withdrawal on the pair clears them.
    """

    __slots__ = ("consents", "covers")

    def __init__(self) -> None:
        self.consents: list[ConsentRecord] = []
        self.covers: dict[bool, _Cover] = {}


# An unknown subject's pairs: none, in one shared mapping that nothing writes.
_NO_PAIRS: Mapping[tuple[int, int], _PairFile] = MappingProxyType({})


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
        return {
            "action": query.action.value,
            "data_concept": graph.name_of(query.data_concept),
            "subject": query.subject,
            "recipient_concept": graph.name_of(query.recipient_concept),
            "step": query.access_at,
            "collected_steps": (span.start, span.end)
            if query.action is ActionType.ACCESS else None,
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
        # shared record objects and drops its pair's covers. Every known
        # subject is a key, with its consents filed by (data, recipient) pair.
        self._by_subject: dict[str, dict[tuple[int, int], _PairFile]] = {}
        # The distinct (data, recipient) pairs: data -> its recipients; and
        # its keys as a mask, bit d for data concept d.
        self._by_data: dict[int, set[int]] = {}
        self._data_keys = 0
        self._event_concepts: set[int] = set()  # concepts recorded events use
        self._next_event = 1

    # -- clock and declarations ------------------------------------------

    def advance(self, count: int = 1) -> int:
        """Move the clock `count` steps on, in one call however many."""
        self.now = chronology.advance(self.now, count)
        return self.now

    def declare_subject(self, subject: str) -> str:
        _check_subject(subject)
        if subject not in self._by_subject:
            self._by_subject[subject] = {}
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
        own = self._by_subject.setdefault(subject, {})
        filed = own.get((data_id, recipient_id))
        if filed is None:
            filed = own[data_id, recipient_id] = _PairFile()
        filed.consents.append(record)
        filed.covers.clear()
        self._by_data.setdefault(data_id, set()).add(recipient_id)
        self._data_keys |= 1 << data_id
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
        self._by_subject[record.subject][
            record.data_concept, record.recipient_concept].covers.clear()
        return record

    # -- queries -----------------------------------------------------------

    def collect_query(self, data: int | str, subject: str, recipient: int | str,
                      mode: Mode = Mode.GUARANTEED) -> AuthzQuery:
        """Ask about collecting right now."""
        graph, now = self.ontology, self.now
        return _by_position(AuthzQuery, (
            ActionType.COLLECT, graph.resolve(data, ConceptKind.DATA), subject,
            graph.resolve(recipient, ConceptKind.RECIPIENT),
            _by_position(StepInterval, (now, now + 1)), now, mode))

    def access_query(self, data: int | str, subject: str, recipient: int | str,
                     collected_interval: StepInterval | None = None,
                     mode: Mode = Mode.GUARANTEED) -> AuthzQuery:
        """Ask about accessing, right now, data collected over an interval.

        With no interval given the query spans all history, [T1, now+1).
        """
        graph, now = self.ontology, self.now
        interval = _by_position(StepInterval, (1, now + 1)) if collected_interval is None \
            else collected_interval
        return _by_position(AuthzQuery, (
            ActionType.ACCESS, graph.resolve(data, ConceptKind.DATA), subject,
            graph.resolve(recipient, ConceptKind.RECIPIENT), interval, now, mode))

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
        graph = self.ontology
        graph.resolve(query.data_concept, ConceptKind.DATA)
        graph.resolve(query.recipient_concept, ConceptKind.RECIPIENT)
        if not self.knows_subject(query.subject):
            raise UnknownSubjectError(query.subject)
        self._validate_query_shape(query)
        return self._decide(query)

    def _decide(self, query: AuthzQuery) -> Decision:
        """Decide a query whose concepts, subject and interval are valid.

        The predicate judges each of the subject's own pairs once. When one
        pair passes and the query is asked at the present or later, the
        pair's kept cover is clipped to it, built first if there is none. A
        query that several pairs pass, or asked before the present, builds
        its cover from their consents for itself alone.
        """
        # The ontology's unchecked clash test: a concept is unsatisfiable
        # when it is disjoint from itself.
        disjoint = self.ontology._disjoint
        data, recipient = query.data_concept, query.recipient_concept
        span = query.collected_interval
        if disjoint(data, data) or disjoint(recipient, recipient):
            return _by_position(Decision, (((span, frozenset()),),
                                           Reason.CONCEPT_UNSATISFIABLE))

        applies = self._concept_match(query)
        own = self._by_subject.get(query.subject, _NO_PAIRS)
        matched = [filed for pair, filed in own.items() if applies(*pair)]
        if not matched:
            # No consent matches, so the cause is structural: the subject's
            # own pairs all failed, so a distinct pair that applies is another's.
            reason = Reason.SUBJECT_MISMATCH if self._some_pair_applies(query, applies, own) \
                else Reason.NO_MATCHING_CONSENT
            return _by_position(Decision, (((span, frozenset()),), reason))
        action, access_at = query.action, query.access_at
        if len(matched) == 1 and access_at >= self.now:
            covers, slot = matched[0].covers, action is ActionType.ACCESS
            cover = covers.get(slot)
            if cover is None:
                cover = covers[slot] = _cover(matched[0].consents, action, access_at)
        else:
            cover = _cover([c for each in matched for c in each.consents], action, access_at)
        return _clip(cover, span)

    def _validate_query_shape(self, query: AuthzQuery) -> None:
        interval = query.collected_interval
        if not isinstance(interval, StepInterval):
            raise QueryError(f"the collected interval must be a StepInterval, got {interval!r}")
        if not interval.bounded:
            raise QueryError("queries need a bounded collection interval")
        if query.action is ActionType.COLLECT:
            if interval.end != interval.start + 1:
                raise QueryError("collection queries cover exactly one step")
            if interval.start != query.access_at:
                raise QueryError(
                    f"collection step {chronology.format_step(interval.start)} is not "
                    f"the query's step {chronology.format_step(query.access_at)}"
                )
        elif interval.last > query.access_at:
            raise QueryError(
                f"collection interval {interval} reaches past access step "
                f"{chronology.format_step(query.access_at)}"
            )

    def _concept_match(self, query: AuthzQuery) -> Callable[[int, int], object]:
        """The matching predicate: does a consent's (data, recipient) apply?

        Concept applicability only, before any subject or time reasoning.
        The query's concepts were validated on entry, by `check` or by the
        query builders `_event_query` uses, and a consent's were at its
        grant, so the ontology's masks and clash test are read unchecked.
        """
        graph = self.ontology
        data, recipient = query.data_concept, query.recipient_concept
        if query.mode is Mode.GUARANTEED:
            # The consent's concepts subsume the query's.
            data_up, recipient_up = graph._up[data], graph._up[recipient]
            return lambda d, r: data_up & 1 << d and recipient_up & 1 << r
        # Possible mode: nothing may rule the overlap out, i.e. neither axis
        # is disjoint from the query's (this also treats an unsatisfiable
        # side as disjoint from everything).
        disjoint = graph._disjoint
        return lambda d, r: not disjoint(d, data) and not disjoint(r, recipient)

    def _some_pair_applies(self, query: AuthzQuery, applies: Callable[[int, int], object],
                           own: Mapping[tuple[int, int], _PairFile]) -> bool:
        """Does `applies` pass any distinct (data, recipient) pair outside `own`?

        `own` holds the subject's pairs, which `applies` has just failed. One
        walk over the filed data concepts asks `applies` of each other
        recipient filed under one. The mode only narrows the walk: a pair
        passes in guaranteed mode only when its data concept is an ancestor
        of the query's, so only those are visited.
        """
        filed = self._data_keys
        if query.mode is Mode.GUARANTEED:
            filed &= self.ontology._up[query.data_concept]
        while filed:
            data = (filed & -filed).bit_length() - 1
            for recipient in self._by_data[data]:
                if (data, recipient) not in own and applies(data, recipient):
                    return True
            filed ^= 1 << data
        return False

    # -- events --------------------------------------------------------------

    def record_event(self, action: ActionType, data: int | str, subject: str,
                     recipient: int | str,
                     collected_interval: StepInterval | None = None) -> EventRecord:
        """Record a collection or access at the current step, verdict attached.

        The event is returned, not kept; ids count up from 1 per ledger.
        """
        query = self._event_query(action, data, subject, recipient, collected_interval)
        if subject not in self._by_subject:  # `_event_query` checked the subject
            self._by_subject[subject] = {}
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

        The builders resolve both concepts, so an unknown one is reported
        before a bad interval; an access's interval is then checked as
        `check` checks it. The subject is the caller's to declare.
        """
        if type(action) is not ActionType:
            raise QueryError(f"unknown action {action!r}, expected an ActionType")
        _check_subject(subject)
        if action is ActionType.COLLECT:
            if collected_interval is not None:
                raise QueryError("collection events do not take a collected interval")
            return self.collect_query(data, subject, recipient)
        query = self.access_query(data, subject, recipient, collected_interval)
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
# `Decision` and `EventRecord` check nothing, so a call would only cost a frame.
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
    starts, runs, gaps = [1], [], []
    live: set[int] = set()
    at = 1
    for step, cid in ends:
        if step != at:
            if not live:
                gaps.append(len(runs))
            runs.append((_by_position(StepInterval, (at, step)), frozenset(live)))
            starts.append(step)
            at = step
        if cid >= 0:
            live.add(cid)
        else:
            live.discard(~cid)
    if not live:  # else the open-ended reaches cover the rest
        gaps.append(len(runs))
    runs.append((_by_position(StepInterval, (at, None)), frozenset(live)))
    return starts, tuple(runs), gaps, min(cuts, default=None), min(retro_cuts, default=None)


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
        return _by_position(Decision, (clipped, Reason.OK))
    gap_end = runs[gaps[k]][0].end
    last = end - 1 if gap_end is None or gap_end > end else gap_end - 1
    reason = Reason.WITHDRAWN_RETRO if first_retro_cut is not None and first_retro_cut <= last \
        else Reason.WITHDRAWN_NON_RETRO if first_cut is not None and first_cut <= last \
        else Reason.OUTSIDE_GRANT_WINDOW
    return _by_position(Decision, (clipped, reason))
