"""Ex-post compliance scanning of consent and access logs.

Logs are line-delimited JSON, one record per line, ordered by timestamp
within each file. Lines end at "\n" only, so a string value may hold any
character JSON allows raw, U+2028 included. The consent log carries
grant/withdraw records, the access log carries collect/access records:

    {"timestamp": "2024-03-01T00:00:00Z", "action": "grant",
     "consent_id": "c1", "data_concept": "Location",
     "subject": "alice", "recipient_concept": "Advertiser",
     "retroactive": false}

    {"timestamp": "2024-03-12T09:30:00Z", "action": "access",
     "data_concept": "Location", "subject": "alice",
     "recipient_concept": "Advertiser",
     "collected_from": "2024-03-05T00:00:00Z",
     "collected_to": "2024-03-05T23:00:00Z"}

Each parser turns a record straight into a row: its timestamp, the
script statement it stands for (a Grant, Withdraw, Collect or Access
carrying the record's line), and the collection window's two instants
for an access that has one, else None. A record costs one call to the
JSON decoder's C scanner; a line the scanner fails on, or leaves more
than whitespace after, goes through the full decoder, which reports the
error. The manifest's statements, then both logs' rows merged by
timestamp in one stable sort (consent rows first at equal timestamps),
become one stream of script statements. Each wall-clock instant maps
onto a 1-based step of fixed duration starting at an epoch; with no
epoch given, the earliest instant either log mentions starts step 1, the
start of a collection window included. A windowed access is the one
statement that waits for the epoch: it is rebuilt with its window's
steps as it is merged. Each clock gap between rows is one Step statement
however many steps it spans, so a scan's cost follows its records, not
the step duration.
`scan` runs that stream through the script interpreter on a fresh ledger
and reports each denied event as a Violation: its log line, event id,
`EventRecord.fields` and reason. Scanning is replay: the same logs
always yield the same report, and appending new records never changes
the verdicts already issued.

`translate_to_script` prints the same stream as a script, a gap as one
`step` line per step. It rejects a subject, data or recipient name that
is a keyword, a time token such as T3 or not a word, and a consent id
that is not a word, since those would not read back; `scan` accepts them.

Unknown JSON fields are ignored so services can log extra context. Every
error in a record names its log and line, e.g. "access log line 3: ...",
and every error in the manifest names the manifest and its line.
"""

from __future__ import annotations

import json
import re
from datetime import datetime, timedelta, timezone
from itertools import chain
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple

from .chronology import StepInterval, format_step
from .core import Ledger, Reason
from .errors import (
    ConsentryError,
    EpochError,
    InvalidValueError,
    LogFormatError,
    LogOrderError,
    MonitorError,
    ScriptError,
)
from . import script as script_mod
from .script import Access, Collect, Grant, Statement, Step, Withdraw, print_program

CONSENT_ACTIONS = ("grant", "withdraw")
ACCESS_ACTIONS = ("collect", "access")
_NO_OFFSET = "the epoch and every instant need a UTC offset, such as +00:00"

# (timestamp, statement, collection window or None); see the module docstring.
Row = tuple[datetime, Statement, tuple[datetime, datetime] | None]


# One timestamp grammar on every Python: `fromisoformat` alone reads more
# forms from 3.11 on and fewer fraction widths on 3.10. [0-9], not \d, which
# matches other scripts' digits too.
_INSTANT = re.compile(
    r"([0-9]{4}-[0-9]{2}-[0-9]{2}"
    r"(?:[T ][0-9]{2}:[0-9]{2}(?::[0-9]{2}(\.[0-9]{1,6})?)?)?)"
    r"([Zz]|[+-][0-9]{2}:[0-5][0-9])?")


def parse_instant(value: str) -> datetime:
    """Parse `YYYY-MM-DD[(T| )HH:MM[:SS[.ffffff]]][Z|z|±HH:MM]` as a UTC
    instant; surrounding whitespace is ignored and no offset means UTC."""
    m = _INSTANT.fullmatch(value.strip()) if isinstance(value, str) else None
    if m is not None:
        naive, fraction, zone = m.groups()
        if fraction:  # 3.10 reads only 3 or 6 digits
            naive = naive[:-len(fraction)] + fraction.ljust(7, "0")
        elif len(naive) == 10:  # a date alone, which would read an offset as a time
            naive += "T00:00"
        try:
            if zone is None or zone in "Zz":
                return datetime.fromisoformat(naive + "+00:00")
            return datetime.fromisoformat(naive + zone).astimezone(timezone.utc)
        except (ValueError, OverflowError):  # a field out of range, or outside years 1-9999
            pass
    raise InvalidValueError(
        f"expected an ISO-8601 timestamp in years 1-9999, got {value!r}")


def _record_lines(text: str) -> Iterable[tuple[int, dict]]:
    # Records end at "\n" only: str.splitlines() also breaks at U+2028,
    # U+2029 and U+0085, which JSON strings may hold raw, and at control
    # characters, which JSON rejects on their own line. A "\r" left before
    # the "\n" is JSON whitespace. A line that opens an object costs one
    # call to the decoder's C scanner, the call `decode` makes, and keeps its
    # object when only JSON whitespace follows it, as `decode` would. A line
    # the scanner fails on or leaves more after goes through `decode`, which
    # reports the error. `decode` skips `json.loads`'s per-call checks; of
    # those, a leading BOM keeps its message.
    decoder = json.JSONDecoder()
    scan_once, decode = decoder.scan_once, decoder.decode
    for line_no, line in enumerate(text.split("\n"), start=1):
        if line[:1] == "{":
            try:
                payload, end = scan_once(line, 0)
            except (StopIteration, ValueError, RecursionError):  # `decode` reports it
                pass
            else:
                if end == len(line) or not line[end:].strip(" \t\r"):
                    yield line_no, payload
                    continue
        elif not line.strip():
            continue
        try:
            payload = decode(line)
        except json.JSONDecodeError as err:
            msg = "Unexpected UTF-8 BOM (decode using utf-8-sig)" \
                if line.startswith("\ufeff") else err.msg
            raise LogFormatError(f"not valid JSON: {msg}", line_no) from None
        except ValueError:  # more digits than int() converts
            raise LogFormatError("not valid JSON: an integer is too long", line_no) from None
        except RecursionError:
            raise LogFormatError("not valid JSON: nested too deeply", line_no) from None
        if not isinstance(payload, dict):
            raise LogFormatError("each record must be a JSON object", line_no)
        yield line_no, payload


def _field(payload: dict, key: str, line: int) -> str:
    value = payload.get(key)
    if not isinstance(value, str) or not value:
        raise LogFormatError(f"missing or invalid field {key!r}", line)
    return value


def _instant_field(payload: dict, key: str, line: int) -> datetime:
    try:
        return parse_instant(_field(payload, key, line))
    except InvalidValueError as err:
        raise LogFormatError(str(err), line) from None


def _names(payload: dict, line: int) -> tuple[str, str, str]:
    """The three name fields, each a non-empty string, checked in that order."""
    data = payload.get("data_concept")
    subject = payload.get("subject")
    recipient = payload.get("recipient_concept")
    if not (isinstance(data, str) and isinstance(subject, str)
            and isinstance(recipient, str) and data and subject and recipient):
        for key in ("data_concept", "subject", "recipient_concept"):
            _field(payload, key, line)  # raises for the first bad field
    return data, subject, recipient


def parse_consent_log(text: str) -> list[Row]:
    """The consent log's rows: a Grant or Withdraw each, with no window."""
    return _parse_log(text, "consent log", _consent_row)


def _consent_row(line_no: int, payload: dict) -> Row:
    action = _field(payload, "action", line_no)
    if action not in CONSENT_ACTIONS:
        raise LogFormatError(f"unknown consent action {action!r}", line_no)
    timestamp = _instant_field(payload, "timestamp", line_no)
    consent_id = _field(payload, "consent_id", line_no)
    retroactive = payload.get("retroactive", False)
    if not isinstance(retroactive, bool):
        raise LogFormatError("field 'retroactive' must be a boolean", line_no)
    if action == "grant":
        stmt = Grant(*_names(payload, line_no), consent_id, retroactive, line_no)
    else:
        stmt = Withdraw(consent_id, retroactive, line_no)
    return timestamp, stmt, None


def parse_access_log(text: str) -> list[Row]:
    """The access log's rows: a Collect or Access each, and an access's window."""
    # Collection-window stamps repeat across records; record stamps do not.
    windows: dict[str, datetime] = {}

    def window_end(payload: dict, key: str, line_no: int) -> datetime:
        raw = payload[key]
        instant = windows.get(raw) if isinstance(raw, str) else None
        if instant is None:
            instant = windows[raw] = _instant_field(payload, key, line_no)
        return instant

    def row(line_no: int, payload: dict) -> Row:
        action = payload.get("action")
        if action not in ACCESS_ACTIONS:
            _field(payload, "action", line_no)  # raises if missing or not a name
            raise LogFormatError(f"unknown event action {action!r}", line_no)
        timestamp = _instant_field(payload, "timestamp", line_no)
        names = _names(payload, line_no)
        window = None
        if action == "access":
            has_from = "collected_from" in payload
            has_to = "collected_to" in payload
            if has_from != has_to:
                raise LogFormatError(
                    "'collected_from' and 'collected_to' must appear together", line_no)
            if has_from:
                start = window_end(payload, "collected_from", line_no)
                end = window_end(payload, "collected_to", line_no)
                if end < start:
                    raise LogFormatError(
                        "'collected_to' precedes 'collected_from'", line_no)
                if end > timestamp:
                    raise LogFormatError(
                        "collection window reaches past the access timestamp", line_no)
                window = (start, end)
            stmt = Access(*names, line=line_no)
        elif "collected_from" in payload or "collected_to" in payload:
            raise LogFormatError("collect records do not take a collection window",
                                 line_no)
        else:
            stmt = Collect(*names, line_no)
        return timestamp, stmt, window

    return _parse_log(text, "access log", row)


def _parse_log(text: str, source: str, row: Callable[[int, dict], Row]) -> list[Row]:
    """Each record's row, a format error naming `source`. Order is checked
    once every record has parsed, so a malformed record anywhere outranks
    a backwards timestamp."""
    try:
        rows = [row(line_no, payload) for line_no, payload in _record_lines(text)]
    except LogFormatError as err:
        raise LogFormatError(err.message, err.line, source) from None
    for (prev, _, _), (cur, stmt, _) in zip(rows, rows[1:]):
        if cur < prev:
            raise LogOrderError(
                f"timestamp goes backwards (previous record at {prev.isoformat()})",
                stmt.line, source)
    return rows


def parse_manifest(text: str) -> list[Statement]:
    """Parse the declarations manifest: new-statements only."""
    try:
        statements = script_mod.parse(text)
    except ScriptError as err:
        raise MonitorError(err.message, err.line, "manifest") from None
    for stmt in statements:
        if stmt.role != "declaration":
            raise MonitorError(
                "only declarations are allowed here, found "
                f"{stmt.text().split()[0]!r}", stmt.line, "manifest")
    return statements


class Violation(NamedTuple):
    """One denied event: its log line, id, `EventRecord.fields` and reason."""

    log_line: int
    event_id: int
    fields: dict[str, object]
    reason: Reason

    def describe(self) -> str:
        f = self.fields
        where = format_step(f["step"])
        if f["collected_steps"] is not None:
            where += f" of data collected in {StepInterval(*f['collected_steps'])}"
        return (f"line {self.log_line}: {f['action']} {f['data_concept']} "
                f"subject={f['subject']} recipient={f['recipient_concept']} "
                f"at {where}: {self.reason.value}")


class ViolationReport(NamedTuple):
    violations: tuple[Violation, ...]
    events_scanned: int
    final_step: int

    @property
    def clean(self) -> bool:
        return not self.violations

    def summary(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for v in self.violations:
            counts[v.reason.value] = counts.get(v.reason.value, 0) + 1
        return counts

    def to_json(self) -> dict:
        return {
            "clean": self.clean,
            "events_scanned": self.events_scanned,
            "final_step": self.final_step,
            "violations": [{"line": v.log_line, "event_id": v.event_id, **v.fields,
                            "reason": v.reason.value} for v in self.violations],
            "summary": self.summary(),
        }

    def render_text(self) -> str:
        lines = [v.describe() for v in self.violations]
        if self.clean:
            lines.append(f"clean: no violations in {self.events_scanned} event(s)")
        else:
            counts = ", ".join(f"{k}: {n}" for k, n in sorted(self.summary().items()))
            lines.append(
                f"{len(self.violations)} violation(s) in {self.events_scanned} "
                f"event(s) ({counts})")
        return "\n".join(lines)


def _statements(manifest: str, consent_log: str, access_log: str,
                epoch: datetime | None, step_duration: timedelta) -> Iterator[Statement]:
    """The manifest's statements, then the merged log rows', as statements.

    A statement's line is its line in the source `_SOURCES` names for its role.
    Before each row comes one Step for the whole gap that brings the clock
    to the row's step, carrying the row's line, so the stream's length
    follows the records whatever the step duration.
    A None epoch means the earliest instant either log mentions, collection
    windows included. A step duration that is not positive, and an epoch
    with no UTC offset, are refused first, with no line: no record is at
    fault. After that an instant is only checked against the epoch, since
    `parse_instant` returns aware UTC instants alone.
    """
    if step_duration <= timedelta(0):
        raise InvalidValueError(f"step duration must be positive, got {step_duration}")
    if epoch is not None and epoch.utcoffset() is None:
        raise InvalidValueError(f"{_NO_OFFSET}, got the epoch {epoch.isoformat()}")
    yield from parse_manifest(manifest)
    consents = parse_consent_log(consent_log)
    accesses = parse_access_log(access_log)
    if epoch is None:
        firsts = (log[0][0] for log in (consents, accesses) if log)
        windows = (window[0] for _, _, window in accesses if window is not None)
        epoch = min(chain(firsts, windows), default=None)

    def step_of(instant: datetime, stmt: Statement) -> int:
        if instant < epoch:
            raise EpochError(f"instant {instant.isoformat()} precedes the epoch",
                             stmt.line, _SOURCES[stmt.role])
        return (instant - epoch) // step_duration + 1

    now = 1
    # Both row lists are timestamp-sorted, so the sort merges two runs.
    # Consent rows must win ties so a same-instant grant already counts for
    # the event next to it: the sort is stable and they come first.
    for timestamp, stmt, window in sorted(consents + accesses, key=itemgetter(0)):
        target = step_of(timestamp, stmt)
        if now < target:
            yield Step(target - now, stmt.line)
            now = target
        if window is not None:
            stmt = Access(stmt.data, stmt.subject, stmt.recipient,
                          step_of(window[0], stmt), step_of(window[1], stmt) + 1,
                          line=stmt.line)
        yield stmt


# The source of each role of statement `_statements` yields, to place an
# error. A Step is never asked: its count is an int of at least 1, so it
# cannot fail.
_SOURCES = {"declaration": "manifest", "consent": "consent log", "event": "access log"}


def scan(manifest: str, consent_log: str, access_log: str, epoch: datetime | None,
         step_duration: timedelta) -> ViolationReport:
    """Replay the logs and report every event no consent covered.

    `epoch` is the instant step 1 starts; None means the earliest instant
    either log mentions, collection windows included. The logs become one
    stream of statements (`_statements`) that runs on a fresh ledger. An
    error names its line in the statement's source: the manifest for a
    declaration, the consent log for a grant or withdrawal, the access log
    for a collect or access.
    """
    ledger = Ledger()
    violations = []
    events = 0
    new = tuple.__new__  # Violation checks nothing, so skip its __new__'s frame
    for stmt in _statements(manifest, consent_log, access_log, epoch, step_duration):
        try:
            event = stmt.apply(ledger)
        except ConsentryError as err:
            raise MonitorError(str(err), stmt.line, _SOURCES[stmt.role]) from None
        if event is None:
            continue
        events += 1
        if event.verdict.authorized:
            continue
        violations.append(new(Violation, (stmt.line, event.id,
                                          event.fields(ledger.ontology),
                                          event.verdict.reason)))
    return ViolationReport(tuple(violations), events, ledger.now)


def translate_to_script(manifest: str, consent_log: str, access_log: str,
                        epoch: datetime | None, step_duration: timedelta) -> str:
    """Print the statements `scan` replays as a script.

    Running the result reproduces the scan: the same events in the same
    order with the same verdicts. A subject, data or recipient name that
    is a keyword, a time token such as T3 or not a word, and a consent id
    that is not a word, raise MonitorError with the record's line.
    """
    statements = []
    for stmt in _statements(manifest, consent_log, access_log, epoch, step_duration):
        name = script_mod.unprintable_name(stmt)
        if name is not None:
            raise MonitorError(f"{name!r} cannot be written as a script name",
                               stmt.line, _SOURCES[stmt.role])
        statements.append(stmt)
    return print_program(statements) if statements else ""
