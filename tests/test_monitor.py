import json
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consentry.core import Ledger, Reason
from consentry.errors import InvalidValueError, LogFormatError, LogOrderError, MonitorError
from consentry.monitor import (
    _record_lines,
    parse_access_log,
    parse_consent_log,
    parse_instant,
    parse_manifest,
    scan,
    translate_to_script,
)
from consentry.script import Access, Grant, Withdraw, run_script
from conftest import FIXTURES
from support import reference_record_lines

EPOCH = datetime(2026, 1, 1, tzinfo=timezone.utc)
DAY = timedelta(days=1)


def at(day, hour=0):
    return f"2026-01-{day:02d}T{hour:02d}:00:00Z"


def jl(*records):
    return "\n".join(json.dumps(r) for r in records) + "\n"


def grant(day, cid, data, subject, recipient, retro=False, hour=0):
    return {"timestamp": at(day, hour), "action": "grant", "consent_id": cid,
            "data_concept": data, "subject": subject,
            "recipient_concept": recipient, "retroactive": retro}


def withdraw(day, cid, retro=False, hour=0):
    return {"timestamp": at(day, hour), "action": "withdraw",
            "consent_id": cid, "retroactive": retro}


def collect(day, data, subject, recipient, hour=0):
    return {"timestamp": at(day, hour), "action": "collect",
            "data_concept": data, "subject": subject,
            "recipient_concept": recipient}


def access(day, data, subject, recipient, from_day=None, to_day=None, hour=0):
    rec = {"timestamp": at(day, hour), "action": "access",
           "data_concept": data, "subject": subject,
           "recipient_concept": recipient}
    if from_day is not None:
        rec["collected_from"] = at(from_day)
        rec["collected_to"] = at(to_day, 12)
    return rec


MANIFEST = """\
new data Telemetry Data
new data Contacts Data
new recipient Analytics
"""

CONSENTS = jl(
    grant(1, "c1", "Telemetry", "alice", "Analytics"),
    grant(3, "c2", "Contacts", "alice", "Analytics", retro=True),
    withdraw(10, "c1"),
    withdraw(15, "c2", retro=True),
)

ACCESSES = jl(
    collect(2, "Telemetry", "alice", "Analytics"),
    access(5, "Contacts", "bob", "Analytics"),
    collect(11, "Telemetry", "alice", "Analytics"),
    access(12, "Telemetry", "alice", "Analytics", from_day=2, to_day=2),
    access(16, "Contacts", "alice", "Analytics", from_day=3, to_day=3),
)


class TestInstants:
    def test_zulu_suffix(self):
        assert parse_instant("2026-01-01T00:00:00Z") == EPOCH

    def test_naive_is_utc(self):
        assert parse_instant("2026-01-01T00:00:00") == EPOCH

    def test_offsets_normalize(self):
        assert parse_instant("2026-01-01T05:30:00+05:30") == EPOCH

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_instant("yesterday")

    # One grammar on every Python: `fromisoformat` alone refuses some of the
    # accepted forms on 3.10 and accepts some of the refused ones from 3.11.
    @pytest.mark.parametrize("text, expected", [
        ("2024-03-01", (2024, 3, 1)),
        ("2024-03-01T09:30", (2024, 3, 1, 9, 30)),
        ("2024-03-01 09:30:15", (2024, 3, 1, 9, 30, 15)),
        ("2024-03-01T09:30:00.5Z", (2024, 3, 1, 9, 30, 0, 500000)),
        ("2024-03-01T09:30:00.12z", (2024, 3, 1, 9, 30, 0, 120000)),
        ("2024-03-01T09:30:00.12345", (2024, 3, 1, 9, 30, 0, 123450)),
        ("2024-03-01T09:30:00.123456-05:30", (2024, 3, 1, 15, 0, 0, 123456)),
        ("2024-03-01+01:00", (2024, 2, 29, 23)),  # an offset, not a time
        ("2024-03-01Z", (2024, 3, 1)),
        (" 2024-03-01T09:30Z\n", (2024, 3, 1, 9, 30)),
    ])
    def test_accepted_forms(self, text, expected):
        assert parse_instant(text) == datetime(*expected, tzinfo=timezone.utc)

    @pytest.mark.parametrize("text", [
        "20240301T093000Z",           # basic format
        "2024-W09-5T09:30Z",          # week date
        "2024-061",                   # ordinal date
        "2024-03-01T09Z",             # hour alone
        "2024-03-01T0930",
        "2024-03-01t09:30",
        "2024-03-01x09:30",
        "2024-03-01T09:30.5",         # a fraction needs seconds
        "2024-03-01T09:30:00,5",
        "2024-03-01T09:30:00.1234567",
        "2024-03-01T09:30+0100",
        "2024-03-01T09:30+01:00:30",
        "2024-03-01T09:30+01:60",
        "2024-03-01T09:30+24:00",
        "2024-03-01T09:30Z+01:00",
        "2024-03-01T24:00",
        "2024-02-30",
        "٢٠٢٤-03-01",   # Arabic-Indic digits
        "２０２４-03-01",   # fullwidth digits
        "0001-01-01T00:00+01:00",     # before year 1 in UTC
        "9999-12-31T23:59-01:00",     # after year 9999 in UTC
        "",
    ])
    def test_refused_forms(self, text):
        with pytest.raises(InvalidValueError, match="in years 1-9999, got"):
            parse_instant(text)

    def test_a_non_string_is_refused(self):
        with pytest.raises(InvalidValueError, match="in years 1-9999, got 5"):
            parse_instant(5)


class TestStepGrid:
    """`scan` places each record on the step grid from an explicit epoch."""

    @staticmethod
    def step_of(offset):
        record = {"timestamp": (EPOCH + offset).isoformat(), "action": "collect",
                  "data_concept": "D", "subject": "s", "recipient_concept": "R"}
        return scan("new data D Data\n", "", jl(record), EPOCH, DAY).final_step

    def test_epoch_is_step_one(self):
        assert self.step_of(timedelta(0)) == 1

    def test_thirty_six_hours_in(self):
        assert self.step_of(timedelta(hours=36)) == 2

    def test_ninety_days_in(self):
        assert self.step_of(timedelta(days=90)) == 91

    def test_boundaries_are_half_open(self):
        assert self.step_of(DAY) == 2
        assert self.step_of(DAY - timedelta(seconds=1)) == 1

    def test_before_epoch_rejected(self):
        consents = jl(withdraw(1, "c1"), withdraw(2, "c2"))
        with pytest.raises(MonitorError) as err:
            scan("", consents, "", datetime(2026, 1, 2, tzinfo=timezone.utc), DAY)
        assert (err.value.source, err.value.line) == ("consent log", 1)
        assert str(err.value) == ("consent log line 1: instant 2026-01-01T00:00:00+00:00 "
                                  "precedes the epoch")

    def test_nonpositive_duration_rejected(self):
        record = {"timestamp": EPOCH.isoformat(), "action": "collect",
                  "data_concept": "D", "subject": "s", "recipient_concept": "R"}
        with pytest.raises(ValueError):
            scan("new data D Data\n", "", jl(record), EPOCH, timedelta(0))

    # A record instant with no offset reads as UTC, so only the epoch can be naive.
    @pytest.mark.parametrize("epoch", [datetime(2024, 3, 1)], ids=["epoch"])
    def test_a_naive_datetime_is_refused(self, epoch):
        with pytest.raises(InvalidValueError, match="need a UTC offset"):
            scan("", jl(withdraw(1, "c1")), "", epoch, DAY)


class TestConsentLogParsing:
    def test_round_trip_fields(self):
        rows = parse_consent_log(CONSENTS)
        assert [stmt for _, stmt, _ in rows] == [
            Grant("Telemetry", "alice", "Analytics", "c1"),
            Grant("Contacts", "alice", "Analytics", "c2", retro=True),
            Withdraw("c1"),
            Withdraw("c2", retro=True),
        ]
        assert [stmt.line for _, stmt, _ in rows] == [1, 2, 3, 4]
        assert [(ts, window) for ts, _, window in rows] == [
            (parse_instant(at(day)), None) for day in (1, 3, 10, 15)]

    def test_unknown_fields_ignored(self):
        rec = dict(grant(1, "c1", "D", "s", "R"), service="geo-api")
        assert parse_consent_log(jl(rec))[0][1] == Grant("D", "s", "R", "c1")

    def test_blank_lines_skipped(self):
        text = "\n" + jl(grant(1, "c1", "D", "s", "R")) + "\n\n"
        rows = parse_consent_log(text)
        assert len(rows) == 1 and rows[0][1].line == 2

    @pytest.mark.parametrize("mangle,missing", [
        (lambda r: r.pop("consent_id"), "consent_id"),
        (lambda r: r.pop("data_concept"), "data_concept"),
        (lambda r: r.pop("timestamp"), "timestamp"),
        (lambda r: r.update(retroactive="yes"), "retroactive"),
        (lambda r: r.update(action="revoke"), "revoke"),
        (lambda r: r.update(timestamp="0001-01-01T00:00:00+05:00"), "0001-01-01"),
    ])
    def test_bad_records(self, mangle, missing):
        rec = grant(1, "c1", "D", "s", "R")
        mangle(rec)
        with pytest.raises(LogFormatError) as err:
            parse_consent_log(jl(grant(1, "c0", "D", "s", "R"), rec))
        assert err.value.line == 2
        assert missing in str(err.value)

    def test_withdraw_needs_no_concepts(self):
        parse_consent_log(jl(withdraw(1, "c1")))

    def test_invalid_json_with_line(self):
        with pytest.raises(LogFormatError) as err:
            parse_consent_log(jl(withdraw(1, "c1")) + "{oops\n")
        assert err.value.line == 2

    def test_long_integer_in_an_ignored_field(self, int_digit_limit):
        record = json.dumps(withdraw(1, "c1"))[:-1] + ', "note": ' + "9" * 5000 + "}"
        text = jl(withdraw(1, "c0")) + record + "\n"
        if not int_digit_limit:
            assert len(parse_consent_log(text)) == 2
            return
        with pytest.raises(LogFormatError) as err:
            parse_consent_log(text)
        assert err.value.line == 2

    def test_deep_nesting_in_an_ignored_field(self):
        nested = "[" * 100_000 + "]" * 100_000
        record = json.dumps(withdraw(1, "c1"))[:-1] + f', "note": {nested}}}'
        with pytest.raises(LogFormatError) as err:
            parse_consent_log(jl(withdraw(1, "c0")) + record + "\n")
        assert err.value.line == 2

    def test_backwards_timestamps(self):
        with pytest.raises(LogOrderError) as err:
            parse_consent_log(jl(withdraw(5, "c1"), withdraw(4, "c2")))
        assert err.value.line == 2
        assert "consent log" in str(err.value)


class TestAccessLogParsing:
    def test_collect_rejects_window(self):
        rec = dict(collect(2, "D", "s", "R"), collected_from=at(1))
        with pytest.raises(LogFormatError):
            parse_access_log(jl(rec))

    def test_window_fields_come_together(self):
        rec = access(5, "D", "s", "R", from_day=2, to_day=2)
        del rec["collected_to"]
        with pytest.raises(LogFormatError):
            parse_access_log(jl(rec))

    def test_window_must_be_ordered(self):
        with pytest.raises(LogFormatError):
            parse_access_log(jl(access(5, "D", "s", "R", from_day=4, to_day=2)))

    def test_window_cannot_reach_past_the_access(self):
        with pytest.raises(LogFormatError):
            parse_access_log(jl(access(3, "D", "s", "R", from_day=2, to_day=4)))

    def test_windowless_access_is_fine(self):
        rows = parse_access_log(jl(access(5, "D", "s", "R")))
        assert rows == [(parse_instant(at(5)), Access("D", "s", "R"), None)]


    @pytest.mark.parametrize("mangle,message", [
        (lambda r: r.pop("action"), "missing or invalid field 'action'"),
        (lambda r: r.update(action=["access"], timestamp=None),
         "missing or invalid field 'action'"),
        (lambda r: r.update(action="grant", subject=""), "unknown event action 'grant'"),
        (lambda r: r.update(timestamp="soon", data_concept=""), "'soon'"),
        (lambda r: r.update(data_concept="", subject=3),
         "missing or invalid field 'data_concept'"),
        (lambda r: r.update(subject=3, recipient_concept=None),
         "missing or invalid field 'subject'"),
        (lambda r: r.pop("recipient_concept"),
         "missing or invalid field 'recipient_concept'"),
        (lambda r: r.pop("collected_to"), "must appear together"),
        (lambda r: r.update(collected_from="later", collected_to=5), "'later'"),
        (lambda r: r.update(collected_from=[at(2)]),
         "missing or invalid field 'collected_from'"),
        (lambda r: r.update(collected_to={}), "missing or invalid field 'collected_to'"),
        (lambda r: r.update(collected_to=at(1)), "'collected_to' precedes"),
        (lambda r: r.update(collected_to=at(6)), "reaches past the access"),
    ])
    def test_bad_records_report_their_first_fault(self, mangle, message):
        # The first record parses the same window stamps the second one uses.
        rec = access(5, "D", "s", "R", from_day=2, to_day=2)
        mangle(rec)
        with pytest.raises(LogFormatError) as err:
            parse_access_log(jl(access(5, "D", "s", "R", from_day=2, to_day=2), rec))
        assert err.value.line == 2
        assert message in str(err.value)

    def test_repeated_window_stamps_parse_alike(self):
        rows = parse_access_log(jl(access(3, "D", "s", "R", from_day=1, to_day=2),
                                   access(4, "D", "t", "R", from_day=2, to_day=2),
                                   access(5, "D", "u", "R", from_day=1, to_day=2)))
        assert [stmt for _, stmt, _ in rows] == [
            Access("D", "s", "R"), Access("D", "t", "R"), Access("D", "u", "R")]
        assert [window for _, _, window in rows] == [
            (parse_instant(at(1)), parse_instant(at(2, 12))),
            (parse_instant(at(2)), parse_instant(at(2, 12))),
            (parse_instant(at(1)), parse_instant(at(2, 12))),
        ]


class TestFormatErrorsNameTheirLog:
    """A malformed record is reported against its own log, as an order error is."""

    @pytest.mark.parametrize("parse,source,first", [
        (parse_consent_log, "consent log", withdraw(1, "c0")),
        (parse_access_log, "access log", collect(1, "D", "s", "R")),
    ], ids=["consent-log", "access-log"])
    @pytest.mark.parametrize("bad,message", [
        ("{oops", "not valid JSON"),
        ("[1, 2]", "each record must be a JSON object"),
        ('{"action": "grant", "timestamp": "soon"}', None),
        ('{"timestamp": "soon"}', "missing or invalid field 'action'"),
    ], ids=["json", "not-an-object", "wrong-action-or-timestamp", "no-action"])
    def test_malformed_record(self, parse, source, first, bad, message):
        if message is None:  # a grant is fine in the consent log, not the access log
            message = "'soon'" if parse is parse_consent_log \
                else "unknown event action 'grant'"
        with pytest.raises(LogFormatError) as err:
            parse(jl(first) + bad + "\n")
        assert (err.value.line, err.value.source) == (2, source)
        assert str(err.value).startswith(f"{source} line 2: ")
        assert message in str(err.value)


class TestOrderCheckRunsLast:
    """Order is checked once the whole log has parsed, so a malformed record
    outranks a backwards timestamp that comes before it."""

    @pytest.mark.parametrize("parse,later,earlier", [
        (parse_consent_log, withdraw(5, "c1"), withdraw(4, "c2")),
        (parse_access_log, collect(5, "D", "s", "R"), access(4, "D", "s", "R", 1, 2)),
    ], ids=["consent-log", "access-log"])
    def test_malformed_record_after_a_backwards_timestamp(self, parse, later, earlier):
        text = jl(later, earlier)
        with pytest.raises(LogOrderError) as err:
            parse(text)
        assert err.value.line == 2
        with pytest.raises(MonitorError) as err:
            parse(text + jl(dict(later, timestamp="soon")))
        assert type(err.value) is LogFormatError
        assert err.value.line == 3 and "'soon'" in str(err.value)


# Characters str.splitlines() breaks at that JSON allows raw inside a string.
RAW_IN_STRINGS = ["\u2028", "\u2029", "\x85"]


class TestRecordLines:
    """A record ends at "\\n" only, so line numbers count newlines."""

    @pytest.mark.parametrize("char", RAW_IN_STRINGS)
    @pytest.mark.parametrize("parse,first,second", [
        (parse_consent_log, grant(1, "c1", "D", "al{}ice", "R"), withdraw(2, "c1")),
        (parse_access_log, collect(1, "D", "al{}ice", "R"), collect(2, "D", "bob", "R")),
    ], ids=["consent-log", "access-log"])
    def test_raw_separators_stay_inside_their_record(self, char, parse, first, second):
        first = dict(first, subject=first["subject"].format(char))
        text = json.dumps(first, ensure_ascii=False) + "\n" + json.dumps(second) + "\n"
        rows = parse(text)
        assert [stmt.line for _, stmt, _ in rows] == [1, 2]
        assert rows[0][1].subject == f"al{char}ice"
        with pytest.raises(LogFormatError) as err:
            parse(text + "{oops\n")
        assert err.value.line == 3

    def test_scan_matches_a_subject_with_a_raw_separator(self):
        subject = "al\u2028ice"
        consents = json.dumps(grant(1, "c1", "Telemetry", subject, "Analytics"),
                              ensure_ascii=False) + "\n"
        accesses = json.dumps(collect(2, "Telemetry", subject, "Analytics"),
                              ensure_ascii=False) + "\n"
        report = scan(MANIFEST, consents, accesses, None, DAY)
        assert report.clean and report.events_scanned == 1

    def test_crlf_line_ends(self):
        text = jl(withdraw(1, "c0"), withdraw(2, "c1")).replace("\n", "\r\n")
        assert [stmt.line for _, stmt, _ in parse_consent_log(text)] == [1, 2]
        with pytest.raises(LogFormatError) as err:
            parse_consent_log(text + "{oops\r\n")
        assert err.value.line == 3

    @pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
    def test_raw_control_characters_fail_on_their_own_line(self, char):
        # JSON forbids these raw in a string, so the record itself is bad.
        record = json.dumps(withdraw(2, "c1"))[:-1] + f', "note": "a{char}b"}}'
        with pytest.raises(LogFormatError) as err:
            parse_consent_log(jl(withdraw(1, "c0")) + record + "\n")
        assert err.value.line == 2
        assert "control character" in str(err.value)

    @pytest.mark.parametrize("parse", [parse_consent_log, parse_access_log])
    def test_a_leading_bom_is_reported_as_json_loads_reports_it(self, parse):
        line = "\ufeff" + json.dumps(collect(1, "D", "s", "R"))
        with pytest.raises(LogFormatError) as err:
            parse(line + "\n")
        with pytest.raises(json.JSONDecodeError) as plain:
            json.loads(line)
        assert err.value.line == 1
        assert str(err.value).endswith(f"line 1: not valid JSON: {plain.value.msg}")


# JSON whitespace; "\r" is the one a CRLF log leaves at a line's end.
JSON_SPACE = st.text(alphabet=" \t\r", max_size=2)
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(),
                    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=6))
# More digits than CPython converts by default, at any nesting.
LONG_INT = "1" * 5000
DEEP = 100_000  # past any interpreter's nesting limit


@st.composite
def json_objects(draw):
    """An object's JSON text, random whitespace around each of its tokens."""
    ascii_only = draw(st.booleans())

    def dump(value):
        return json.dumps(value, ensure_ascii=ascii_only)
    members = [draw(JSON_SPACE) + dump(key) + draw(JSON_SPACE) + ":" + draw(JSON_SPACE)
               + dump(value) + draw(JSON_SPACE)
               for key, value in draw(st.dictionaries(st.text(max_size=4), SCALARS,
                                                      max_size=3)).items()]
    return "{" + ",".join(members) + draw(JSON_SPACE) + "}"


def nested_arrays(depth):
    return '{"a": ' + "[" * depth + "]" * depth + "}"


GOOD_LINES = st.one_of(
    # records, maybe with whitespace around them or a trailing "\r"
    st.tuples(JSON_SPACE, json_objects(), JSON_SPACE).map("".join),
    st.integers(1, 30).map(nested_arrays),
    # blank lines, to Python's strip() and not only to JSON
    st.text(alphabet=" \t\r\x0b\x0c", max_size=3),
)
# Each kind of bad line as likely as the others.
BAD_LINES = st.sampled_from([
    # trailing data, a second object included, or whitespace JSON does not allow
    st.tuples(json_objects(), st.sampled_from(["x", "1", "]", ",", "{}", ' {"a": 1}',
                                               "\x0c", " \u00a0"])).map("".join),
    json_objects().map("\ufeff".__add__),
    # values that are not objects
    SCALARS.map(json.dumps),
    st.lists(st.integers(), max_size=3).map(json.dumps),
    st.just(nested_arrays(DEEP)),
    st.sampled_from([LONG_INT, f'{{"n": {LONG_INT}}}', f'{{"n": [{LONG_INT}]}}']),
    st.sampled_from(["{", "{oops", '{"a": }', '{"a" 1}', '{"a": 1,}', "{'a': 1}"]),
]).flatmap(lambda kind: kind)


@st.composite
def logs(draw):
    """Good lines with at most one bad line among them, "\n"-joined."""
    lines = draw(st.lists(GOOD_LINES, max_size=8))
    # whitespace after a bad line, "\r" included, leaves it bad
    bad = draw(st.none() | st.tuples(BAD_LINES, JSON_SPACE).map("".join))
    if bad is not None:
        lines.insert(draw(st.integers(0, len(lines))), bad)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


class TestScannerPath:
    """`_record_lines` reads each line as one plain `decode` per line reads it."""

    @settings(max_examples=300, deadline=None)
    @given(logs())
    def test_same_records_and_errors_as_decode(self, text):
        expected, error = reference_record_lines(text)
        got = []
        if error is None:
            got.extend(_record_lines(text))
        else:
            with pytest.raises(LogFormatError) as err:
                for pair in _record_lines(text):
                    got.append(pair)
            assert (err.value.message, err.value.line) == (error.message, error.line)
        assert got == expected


class TestManifest:
    def test_declarations_only(self):
        stmts = parse_manifest(MANIFEST)
        assert len(stmts) == 3

    def test_rejects_actions(self):
        with pytest.raises(MonitorError) as err:
            parse_manifest("new data X Data\ngrant X s R :c1\n")
        assert "grant" in str(err.value)


    @pytest.mark.parametrize("manifest, message", [
        ("new data A Data\nnew data X\n",
         "manifest line 2: expected a parent concept, found end of line"),
        ("new data A$ Data\n", "manifest line 1: column 11: illegal character '$'"),
    ], ids=["parse", "lex"])
    def test_syntax_error_names_the_manifest(self, manifest, message):
        with pytest.raises(MonitorError) as err:
            translate_to_script(manifest, "", "", None, DAY)
        assert str(err.value) == message
        assert err.value.source == "manifest"

class TestEarliestTimestamp:
    """With no epoch, step 1 starts at the earliest instant either log mentions."""

    def test_minimum_across_both_logs(self):
        assert scan(MANIFEST, CONSENTS, ACCESSES, None, DAY) == \
            scan(MANIFEST, CONSENTS, ACCESSES, EPOCH, DAY)
        # The earliest record may sit in either log.
        late_grant = jl(grant(3, "c1", "Telemetry", "alice", "Analytics"))
        early_collect = jl(collect(2, "Telemetry", "alice", "Analytics"))
        report = scan(MANIFEST, late_grant, early_collect, None, DAY)
        assert report.final_step == 2
        assert [v.fields["step"] for v in report.violations] == [1]

    def test_collection_window_may_start_the_clock(self):
        # The window opens on 2026-01-02, before the only record, so that
        # instant is step 1 and the window is [T1, T3) of the access at T4.
        accesses = jl(access(5, "Telemetry", "alice", "Analytics", 2, 3))
        report = scan(MANIFEST, "", accesses, None, DAY)
        assert report == scan(MANIFEST, "", accesses, parse_instant(at(2)), DAY)
        assert report.final_step == 4
        assert [(v.fields["step"], v.fields["collected_steps"])
                for v in report.violations] == [(4, (1, 3))]
        text = translate_to_script(MANIFEST, "", accesses, None, DAY)
        assert text.endswith("access Telemetry alice Analytics T1 T3\n")
        replay = run_script(text)
        assert [(e.query.access_at, e.verdict.reason) for e in replay.events] == \
            [(v.fields["step"], v.reason) for v in report.violations]

    def test_empty_logs(self):
        report = scan(MANIFEST, "", "", None, DAY)
        assert report.clean and report.events_scanned == 0
        assert report.final_step == 1


class TestScan:
    def test_finds_each_violation_flavor(self):
        report = scan(MANIFEST, CONSENTS, ACCESSES, EPOCH, DAY)
        assert not report.clean
        assert report.events_scanned == 5
        assert [(v.fields["step"], v.reason) for v in report.violations] == [
            (5, Reason.SUBJECT_MISMATCH),
            (11, Reason.WITHDRAWN_NON_RETRO),
            (16, Reason.WITHDRAWN_RETRO),
        ]
        assert report.final_step == 16

    def test_violations_are_self_contained(self):
        report = scan(MANIFEST, CONSENTS, ACCESSES, EPOCH, DAY)
        last = report.violations[-1]
        assert last.fields["data_concept"] == "Contacts"
        assert last.fields["collected_steps"] == (3, 4)
        assert "T16" in last.describe()
        assert "Contacts" in last.describe()

    def test_clean_run(self):
        accesses = jl(
            collect(2, "Telemetry", "alice", "Analytics"),
            access(12, "Telemetry", "alice", "Analytics", from_day=2, to_day=2),
        )
        report = scan(MANIFEST, CONSENTS, accesses, EPOCH, DAY)
        assert report.clean
        assert report.events_scanned == 2
        assert "clean" in report.render_text()

    def test_empty_logs_scan_clean(self):
        report = scan(MANIFEST, "", "", EPOCH, DAY)
        assert report.clean and report.events_scanned == 0
        assert report.final_step == 1

    def test_json_shape(self):
        report = scan(MANIFEST, CONSENTS, ACCESSES, EPOCH, DAY)
        payload = json.loads(json.dumps(report.to_json()))
        assert payload["clean"] is False
        assert payload["events_scanned"] == 5
        assert payload["summary"]["WithdrawnRetro"] == 1
        assert payload["violations"][2]["collected_steps"] == [3, 4]

    def test_grant_beats_event_on_equal_timestamps(self):
        consents = jl(grant(2, "c1", "Telemetry", "alice", "Analytics"))
        accesses = jl(collect(2, "Telemetry", "alice", "Analytics"))
        assert scan(MANIFEST, consents, accesses, EPOCH, DAY).clean

    def test_withdrawal_beats_event_on_equal_timestamps(self):
        consents = jl(
            grant(1, "c1", "Telemetry", "alice", "Analytics"),
            withdraw(2, "c1"),
        )
        accesses = jl(collect(2, "Telemetry", "alice", "Analytics"))
        report = scan(MANIFEST, consents, accesses, EPOCH, DAY)
        assert [v.reason for v in report.violations] == [Reason.WITHDRAWN_NON_RETRO]

    def test_appending_records_never_rewrites_old_verdicts(self):
        before = scan(MANIFEST, CONSENTS, ACCESSES, EPOCH, DAY)
        grown_consents = CONSENTS + jl(
            grant(20, "c3", "Telemetry", "alice", "Analytics", retro=True))
        grown_accesses = ACCESSES + jl(
            collect(21, "Contacts", "alice", "Analytics"))
        after = scan(MANIFEST, grown_consents, grown_accesses, EPOCH, DAY)
        old_lines = {v.log_line for v in before.violations}
        kept = tuple(v for v in after.violations if v.log_line in old_lines)
        assert kept == before.violations
        assert after.events_scanned == before.events_scanned + 1

    def test_unknown_concept_reports_log_line(self):
        consents = jl(grant(1, "c1", "Mystery", "alice", "Analytics"))
        with pytest.raises(MonitorError) as err:
            scan(MANIFEST, consents, "", EPOCH, DAY)
        assert err.value.line == 1
        assert "consent log" in str(err.value)

    def test_record_before_epoch_reports_source(self):
        late_epoch = datetime(2026, 1, 4, tzinfo=timezone.utc)
        with pytest.raises(MonitorError) as err:
            scan(MANIFEST, CONSENTS, ACCESSES, late_epoch, DAY)
        assert "consent log" in str(err.value)

    def test_failing_declaration_reports_manifest_line(self):
        manifest = MANIFEST + "new data Route Missing\n"
        with pytest.raises(MonitorError) as err:
            scan(manifest, CONSENTS, ACCESSES, EPOCH, DAY)
        assert (err.value.line, err.value.source) == (4, "manifest")
        assert "manifest line 4" in str(err.value)
        assert "Missing" in str(err.value)

    def test_hourly_grid_spreads_steps(self):
        hourly = scan(MANIFEST, CONSENTS, ACCESSES, EPOCH, timedelta(hours=1))
        assert hourly.final_step == 15 * 24 + 1  # Jan 16 00:00 on 1h steps


class TestClockGaps:
    """A gap between records is one Step, whatever the step duration."""

    SECOND = timedelta(seconds=1)

    @staticmethod
    def fixture_logs():
        return [(FIXTURES / "monitor" / name).read_text(encoding="utf-8")
                for name in ("manifest.consent", "consents.jsonl", "accesses.jsonl")]

    def test_one_advance_per_record_at_most(self, monkeypatch):
        logs = self.fixture_logs()
        records = sum(len(log.splitlines()) for log in logs[1:])
        counts = []
        advance = Ledger.advance

        def counted(led, *args):
            counts.append(args)
            return advance(led, *args)
        monkeypatch.setattr(Ledger, "advance", counted)
        report = scan(*logs, None, self.SECOND)
        assert report.final_step > 400_000  # days apart, on one-second steps
        assert 0 < len(counts) <= records
        assert 1 + sum(args[0] if args else 1 for args in counts) == report.final_step

    def test_translation_still_prints_every_step(self):
        logs = self.fixture_logs()
        lines = translate_to_script(*logs, None, self.SECOND).splitlines()
        report = scan(*logs, None, self.SECOND)
        assert lines.count("step") == report.final_step - 1
        # Between the steps stand the same statements as on daily steps,
        # but for the steps of the collection windows.
        daily = translate_to_script(*logs, None, DAY).splitlines()
        assert [line.split()[:4] for line in lines if line != "step"] == \
            [line.split()[:4] for line in daily if line != "step"]


class TestStepDurationIsNoRecordsFault:
    """A step duration that is not positive is refused before any record is
    read, with no line: no record is at fault, and empty logs do not hide it."""

    @pytest.mark.parametrize("entry", [scan, translate_to_script])
    @pytest.mark.parametrize("duration", [timedelta(0), -DAY])
    def test_refused_without_a_line(self, entry, duration):
        with pytest.raises(InvalidValueError) as err:
            entry(*TestClockGaps.fixture_logs(), None, duration)
        assert not isinstance(err.value, MonitorError)
        assert str(err.value) == f"step duration must be positive, got {duration}"

    @pytest.mark.parametrize("entry", [scan, translate_to_script])
    def test_refused_with_empty_logs(self, entry):
        with pytest.raises(InvalidValueError, match="step duration must be positive"):
            entry("", "", "", None, timedelta(0))


class TestNaiveEpochIsNoRecordsFault:
    """An epoch with no UTC offset is refused before any record is read, with
    no line, as an InvalidValueError rather than a raw TypeError."""

    @pytest.mark.parametrize("entry", [scan, translate_to_script])
    @pytest.mark.parametrize("logs", ["fixture", "empty"])
    def test_refused_without_a_line(self, entry, logs):
        args = TestClockGaps.fixture_logs() if logs == "fixture" else ("", "", "")
        with pytest.raises(InvalidValueError) as err:
            entry(*args, datetime(2024, 1, 1), DAY)
        assert not isinstance(err.value, MonitorError)
        assert str(err.value) == ("the epoch and every instant need a UTC offset, "
                                  "such as +00:00, got the epoch 2024-01-01T00:00:00")

    def test_an_aware_epoch_in_any_zone_is_accepted(self):
        east = timezone(timedelta(hours=2))
        report = scan(*TestClockGaps.fixture_logs(), datetime(2024, 1, 1, tzinfo=east), DAY)
        assert report.events_scanned == 5


class TestTranslation:
    def test_script_replays_to_the_same_verdicts(self):
        text = translate_to_script(MANIFEST, CONSENTS, ACCESSES, EPOCH, DAY)
        report = run_script(text)
        scanned = scan(MANIFEST, CONSENTS, ACCESSES, EPOCH, DAY)
        assert len(report.events) == scanned.events_scanned
        assert report.final_step == scanned.final_step
        denied = [e for e in report.events if not e.verdict.authorized]
        assert [(e.query.access_at, e.verdict.reason) for e in denied] == \
            [(v.fields["step"], v.reason) for v in scanned.violations]

    def test_renders_expected_statements(self):
        consents = jl(grant(2, "c1", "Telemetry", "alice", "Analytics", retro=True))
        accesses = jl(access(4, "Telemetry", "alice", "Analytics",
                             from_day=2, to_day=3))
        text = translate_to_script(MANIFEST, consents, accesses, EPOCH, DAY)
        lines = text.splitlines()
        assert lines[3] == "step"
        assert lines[4] == "grant retro Telemetry alice Analytics :c1"
        assert lines[5] == lines[6] == "step"
        assert lines[7] == "access Telemetry alice Analytics T2 T4"

    def test_empty_everything_translates_to_nothing(self):
        assert translate_to_script("", "", "", EPOCH, DAY) == ""

    def test_collection_window_before_epoch_reports_line(self):
        late_epoch = datetime(2026, 1, 4, tzinfo=timezone.utc)
        accesses = jl(access(5, "Telemetry", "alice", "Analytics",
                             from_day=2, to_day=3))
        for run in (scan, translate_to_script):
            with pytest.raises(MonitorError) as err:
                run(MANIFEST, "", accesses, late_epoch, DAY)
            assert err.value.line == 1
            assert "access log line 1" in str(err.value)
            assert "precedes the epoch" in str(err.value)

    def test_consent_ids_must_be_label_safe(self):
        consents = jl(grant(1, "c 1", "Telemetry", "alice", "Analytics"))
        with pytest.raises(MonitorError):
            translate_to_script(MANIFEST, consents, "", EPOCH, DAY)
        # The scanner itself has no such restriction.
        scan(MANIFEST, consents, "", EPOCH, DAY)

        # Nor on subject and recipient names the grammar cannot carry:
        # keywords, time tokens and non-words. Each bad record is on line 2.
        ok_grant = grant(1, "c0", "Telemetry", "alice", "Analytics")
        ok_collect = collect(1, "Telemetry", "alice", "Analytics")
        for name in ("step", "retro", "T3", "T0", "a-b", "alice smith"):
            for consents, accesses, source in [
                (jl(ok_grant, grant(2, "c1", "Telemetry", name, "Analytics")),
                 "", "consent log"),
                (jl(ok_grant, grant(2, "c1", "Telemetry", "alice", name)),
                 "", "consent log"),
                (jl(ok_grant),
                 jl(ok_collect, collect(2, "Telemetry", name, "Analytics")),
                 "access log"),
                (jl(ok_grant),
                 jl(ok_collect, access(3, "Telemetry", "alice", name, 1, 2)),
                 "access log"),
            ]:
                with pytest.raises(MonitorError) as err:
                    translate_to_script(MANIFEST, consents, accesses, EPOCH, DAY)
                assert (err.value.line, err.value.source) == (2, source)
                assert repr(name) in str(err.value)
                scan(MANIFEST, consents, accesses, EPOCH, DAY)
            # A data name like that cannot be declared, so scan rejects it
            # as unknown; translation names the record all the same.
            accesses = jl(ok_collect, collect(2, name, "alice", "Analytics"))
            with pytest.raises(MonitorError) as err:
                translate_to_script(MANIFEST, jl(ok_grant), accesses, EPOCH, DAY)
            assert (err.value.line, err.value.source) == (2, "access log")
        # A withdrawal names its consent id too.
        consents = jl(ok_grant, withdraw(2, "c-0"))
        with pytest.raises(MonitorError) as err:
            translate_to_script(MANIFEST, consents, "", EPOCH, DAY)
        assert (err.value.line, err.value.source) == (2, "consent log")


# -- one replay, two renderings ----------------------------------------------
#
# Names a log may carry. Subjects and recipients spring into existence on
# first mention, so scan accepts every one of them; data concepts come from
# the manifest, so the unprintable ones are unknown to scan as well.

PROPERTY_MANIFEST = """\
new data Telemetry Data
new data Location Telemetry
new data Contacts Data
new recipient Analytics
"""
SUBJECTS = ("alice", "bob", "step", "T3", "a-b", "alice smith")
RECIPIENTS = ("Analytics", "Ads", "grant", "T0", "x.y")
DATA = ("Telemetry", "Location", "Contacts", "access")
CONSENT_IDS = ("c1", "c2", "c3", "c4", "retro", "T7", "c-5", "c 6")
UNPRINTABLE_NAMES = {"step", "T3", "a-b", "alice smith", "grant", "T0", "x.y",
                     "access"}
UNPRINTABLE_IDS = {"c-5", "c 6"}
SLOTS = 32  # six-hour slots after EPOCH, so records often share an instant


def _slot(n):
    return (EPOCH + timedelta(hours=6 * n)).isoformat()


@st.composite
def log_pairs(draw):
    """A consent log, an access log and an epoch. At most two unprintable
    names occur in one pair, so each one is often the only one."""
    unprintable = UNPRINTABLE_NAMES | UNPRINTABLE_IDS
    allowed = draw(st.sets(st.sampled_from(sorted(unprintable)), max_size=2))

    def usable(pool):
        return [n for n in pool if n in allowed or n not in unprintable]

    def pick(pool):
        return draw(st.sampled_from(usable(pool)))

    consents = []
    ids = draw(st.lists(st.sampled_from(usable(CONSENT_IDS)), unique=True,
                        max_size=5))
    for cid in ids:
        start = draw(st.integers(0, SLOTS))
        consents.append((start, 0, {
            "action": "grant", "consent_id": cid,
            "data_concept": pick(DATA),
            "subject": pick(SUBJECTS),
            "recipient_concept": pick(RECIPIENTS),
            "retroactive": draw(st.booleans())}))
        if draw(st.booleans()):
            consents.append((draw(st.integers(start, SLOTS)), 1, {
                "action": "withdraw", "consent_id": cid,
                "retroactive": draw(st.booleans())}))
    accesses = [(draw(st.integers(0, SLOTS)), draw(st.booleans()))
                for _ in range(draw(st.integers(0, 8)))]
    events = []
    for slot, windowed in accesses:
        record = {"action": "access" if windowed or draw(st.booleans())
                  else "collect",
                  "data_concept": pick(DATA),
                  "subject": pick(SUBJECTS),
                  "recipient_concept": pick(RECIPIENTS)}
        if windowed:
            lo = draw(st.integers(0, slot))
            record["collected_from"] = _slot(lo)
            record["collected_to"] = _slot(draw(st.integers(lo, slot)))
        events.append((slot, record))
    # Sorting is stable, and a withdrawal never precedes its own grant.
    consents.sort(key=lambda c: c[:2])
    events.sort(key=lambda e: e[0])
    consent_records = [dict(r, timestamp=_slot(slot)) for slot, _, r in consents]
    access_records = [dict(r, timestamp=_slot(slot)) for slot, r in events]
    epoch = None if draw(st.booleans()) else EPOCH
    return consent_records, access_records, epoch


def _holds_unprintable_name(record):
    names = {record.get(k) for k in ("data_concept", "subject", "recipient_concept")}
    return bool(names & UNPRINTABLE_NAMES) or record.get("consent_id") in UNPRINTABLE_IDS


class TestOneReplay:
    @settings(max_examples=200, deadline=None)
    @given(log_pairs())
    def test_translation_replays_to_the_scan(self, pair):
        consent_records, access_records, epoch = pair
        consents, accesses = jl(*consent_records), jl(*access_records)
        try:
            report = scan(PROPERTY_MANIFEST, consents, accesses, epoch, DAY)
        except MonitorError:
            report = None
        try:
            text = translate_to_script(PROPERTY_MANIFEST, consents, accesses,
                                       epoch, DAY)
        except MonitorError as err:
            records = (consent_records if err.source == "consent log"
                       else access_records)
            assert _holds_unprintable_name(records[err.line - 1]), str(err)
            return
        assert report is not None, "translated logs that scan rejects"
        replay = run_script(text)
        assert len(replay.events) == report.events_scanned
        assert replay.final_step == report.final_step
        assert [(e.query.access_at, e.verdict.reason) for e in replay.events
                if not e.verdict.authorized] == \
            [(v.fields["step"], v.reason) for v in report.violations]
