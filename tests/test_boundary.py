"""Every deliberate failure at the input boundary is a ConsentryError.

Fuzzed scripts, logs, durations, instants, bench scenarios, ontology
declarations, ledger calls, queries, step tokens and intervals either go
through or raise a ConsentryError; no raw ValueError, TypeError,
OverflowError or RecursionError escapes. Each property over text runs
with CPython's cap on int-string digits and without it, since the cap
decides where a long number fails. Arguments of the wrong type, such as
None for a script or an int for a step duration, raise InvalidValueError.
"""

from __future__ import annotations

import json
import re
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from consentry import monitor
from consentry.bench import BenchScenario, run_scenario, scenario_names
from consentry.chronology import StepInterval, parse_step
from consentry.cli import parse_duration
from consentry.core import ActionType, AuthzQuery, Ledger, Mode
from consentry.errors import (ConsentryError, IntervalError, InvalidValueError, QueryError,
                              UnknownConceptError)
from consentry.ontology import ConceptGraph, ConceptKind
from consentry.script import KEYWORDS, parse, run_script, tokenize

from support import digit_limit, graph_state

EPOCH = datetime(2026, 1, 1, tzinfo=timezone.utc)
LONG_NUMBER = "9" * 5000
DEEP_NESTING = "[" * 100_000 + "]" * 100_000

digit_limits = st.sampled_from([4300, 0])


def holds_or_rejects(limit, fn, *args):
    """Call fn under the given digit cap; a ConsentryError is the only
    failure allowed out."""
    try:
        with digit_limit(limit):
            fn(*args)
    except ConsentryError:
        pass


# -- scripts -------------------------------------------------------------------

SCRIPT_WORDS = sorted(KEYWORDS) + [
    "Data", "A", "B", "s", "R", ":c1", ":c2", "T0", "T1", "T2", "T9",
    "T" + LONG_NUMBER, "#", ":", "@", "é",
]
script_lines = st.lists(st.sampled_from(SCRIPT_WORDS), max_size=7).map(" ".join)
scripts = (st.lists(script_lines, max_size=12).map("\n".join)
           | st.text(max_size=60))


@settings(max_examples=300, deadline=None)
@given(scripts, digit_limits)
@example("access A b C T" + LONG_NUMBER, 4300)
@example("new data A Data\naccess A b C T" + LONG_NUMBER, 0)
def test_run_script(text, limit):
    holds_or_rejects(limit, run_script, text)


# -- logs ------------------------------------------------------------------------

NAMES = st.sampled_from(["A", "B", "s", "R", "step", "T3", "a-b", ""])
INSTANTS = st.one_of(
    st.datetimes(min_value=datetime(2025, 12, 30), max_value=datetime(2026, 1, 9))
    .map(lambda t: t.isoformat() + "Z"),
    st.sampled_from(["yesterday", "0001-01-01T00:00:00+05:00", "9999-12-31T23:59:59-05:00"]),
)
VALUES = st.one_of(NAMES, INSTANTS, st.booleans(), st.none(), st.integers(),
                   st.floats(allow_nan=False), st.lists(st.integers(), max_size=2))
FIELDS = ("timestamp", "action", "consent_id", "data_concept", "subject",
          "recipient_concept", "retroactive", "collected_from", "collected_to", "note")
ACTIONS = st.sampled_from(["grant", "withdraw", "collect", "access", "revoke"])


@st.composite
def log_text(draw):
    records = [
        {**base, **overrides} for base, overrides in draw(st.lists(st.tuples(
            st.fixed_dictionaries(
                {"timestamp": INSTANTS, "action": ACTIONS, "consent_id": NAMES,
                 "data_concept": NAMES, "subject": NAMES, "recipient_concept": NAMES}),
            st.dictionaries(st.sampled_from(FIELDS), VALUES, max_size=2)), max_size=6))]
    if draw(st.booleans()):
        records.sort(key=lambda r: str(r["timestamp"]))
    lines = [json.dumps(r) for r in records]
    for _ in range(draw(st.integers(0, 1))):
        raw = draw(st.sampled_from(["{oops", "[1]", "", "{}", LONG_NUMBER, DEEP_NESTING]))
        lines.insert(draw(st.integers(0, len(lines))), raw)
    return "\n".join(lines) + "\n"


manifests = (st.lists(st.sampled_from([
    "new data A Data", "new data B A", "new recipient R", "new disjoint A B",
    "new equiv A B", "step", "new data T3 Data", "grant A s R :c1"]), max_size=4)
    .map("\n".join))
epochs = st.none() | st.just(EPOCH)
step_durations = st.sampled_from([timedelta(days=1), timedelta(hours=7)])


@settings(max_examples=300, deadline=None)
@given(manifests, log_text(), log_text(), epochs, step_durations, digit_limits)
@example("", "", '{"note": ' + LONG_NUMBER + "}\n", None, timedelta(days=1), 4300)
@example("", '{"note": ' + DEEP_NESTING + "}\n", "", None, timedelta(days=1), 0)
def test_scan_and_translate(manifest, consents, accesses, epoch, duration, limit):
    args = (manifest, consents, accesses, epoch, duration)
    holds_or_rejects(limit, monitor.scan, *args)
    holds_or_rejects(limit, lambda: run_script(monitor.translate_to_script(*args)))


# -- values --------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.text(st.sampled_from("0123456789dhms ²٣x-")) | st.text(), digit_limits)
@example(LONG_NUMBER, 4300)
@example(LONG_NUMBER + "s", 4300)
@example(LONG_NUMBER + "s", 0)
def test_parse_duration(text, limit):
    holds_or_rejects(limit, parse_duration, text)


@settings(max_examples=300, deadline=None)
@given(INSTANTS | st.text() | st.integers() | st.none(), digit_limits)
@example("2026-01-01T00:00:00+" + LONG_NUMBER, 4300)
def test_parse_instant(value, limit):
    holds_or_rejects(limit, monitor.parse_instant, value)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(scenario_names()) | st.text(),
       st.integers(max_value=20) | st.floats() | st.booleans(),
       st.integers() | st.floats() | st.booleans() | st.none() | st.text()
       | st.lists(st.integers(), max_size=2),
       st.integers(max_value=2) | st.floats() | st.booleans())
@example("steps", 2.5, 0, 1)
@example("realistic", 3, [1], 1)
def test_bench_scenario(name, steps, seed, reps):
    holds_or_rejects(4300, lambda: run_scenario(BenchScenario(name, steps, seed), reps))


# -- declarations ----------------------------------------------------------------

DECLARED_NAMES = st.one_of(
    st.sampled_from(["A", "B", "C", "R", "Data", "Recipient", "AB", "BA", "ABC"]),
    st.integers(-1, 9), st.none(), st.lists(st.sampled_from(["A", "B"]), max_size=2))
declarations = st.lists(st.tuples(
    st.sampled_from(["data", "recipient", "equivalent", "disjoint"]),
    st.lists(DECLARED_NAMES, min_size=1, max_size=3)), max_size=6)


@settings(max_examples=300, deadline=None)
@given(declarations)
@example([("data", [7])])
@example([("data", [["x"]])])
@example([("equivalent", [["x"], "A"])])
@example([("disjoint", [["x"], "A"])])
def test_declarations(steps):
    """A declaration goes through or raises a ConsentryError, and a concept
    it declares can be named afterwards by the name it was given."""
    led = Ledger()
    led.declare_data("A")
    led.declare_data("B")
    led.declare_recipient("R")
    for kind, names in steps:
        declare = {"data": led.declare_data, "recipient": led.declare_recipient,
                   "equivalent": lambda a, b="A", *_: led.declare_equivalent(a, b),
                   "disjoint": led.declare_disjoint}[kind]
        try:
            cid = declare(*names)
        except ConsentryError:
            continue
        if kind in ("data", "recipient"):
            assert led.ontology.resolve(names[0]) == cid


# -- the value API ---------------------------------------------------------------

JUNK = st.one_of(
    st.sampled_from(["D", "R", "s", "c", "Data", "Recipient", "T3", b"T3", "", None, True,
                     False, 1.0, [1], (1, 2), ActionType.COLLECT, ActionType.ACCESS,
                     Mode.GUARANTEED, Mode.POSSIBLE, StepInterval(1, 2), StepInterval(2)]),
    st.integers(-2, 12), st.text(max_size=3), st.floats())


def holds_in(value, interval):
    """`in` on an interval: only an int, and not a bool, lies inside."""
    assert (value in interval) is (type(value) is int and interval.start <= value
                                   and (interval.end is None or value < interval.end))


def replaced(action, field):
    def call(led, args):
        query = led.collect_query("D", "s", "R") if action is ActionType.COLLECT \
            else led.access_query("D", "s", "R")
        return led.check(query._replace(**{field: args[0]}))
    return call


# Each call takes the five junk values it is given, or the first few of them.
VALUE_CALLS = {
    "grant": lambda led, a: led.grant(*a),
    "withdraw": lambda led, a: led.withdraw(*a[:2]),
    "consent": lambda led, a: led.consent(a[0]),
    "advance": lambda led, a: led.advance(a[0]),
    "record_event": lambda led, a: led.record_event(*a),
    "decide_event": lambda led, a: led.decide_event(*a),
    "check-collect": lambda led, a: led.check(led.collect_query(*a[:3], mode=a[3])),
    "check-access": lambda led, a: led.check(led.access_query(*a)),
    **{f"check-{action.value}-{field}": replaced(action, field)
       for action in ActionType for field in AuthzQuery._fields},
    "parse_step": lambda led, a: parse_step(a[0]),
    "StepInterval": lambda led, a: StepInterval(*a[:2]),
    "single": lambda led, a: StepInterval.single(a[0]),
    "in": lambda led, a: (holds_in(a[0], StepInterval(1, 3)), holds_in(a[0], StepInterval(2))),
}


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(sorted(VALUE_CALLS)), st.tuples(*[JUNK] * 5)),
                max_size=8))
@example([("check-access-data_concept", ("D",) * 5)])
@example([("check-collect-recipient_concept", ("R",) * 5)])
@example([("parse_step", (None,) * 5), ("parse_step", (3,) * 5),
          ("parse_step", (b"T3",) * 5)])
@example([("in", ("x",) * 5)])
@example([("single", ("x",) * 5), ("single", (None,) * 5), ("single", ([1],) * 5),
          ("single", (2.5,) * 5), ("single", (True,) * 5), ("single", (0,) * 5)])
@example([("in", (True,) * 5)])
def test_the_value_api_refuses_junk_with_its_own_errors(calls):
    """Ledger calls, built and replaced queries, step tokens and intervals
    given junk values go through or raise a ConsentryError, and `in` on an
    interval answers a bool for any value."""
    led = Ledger()
    led.declare_data("D")
    led.declare_recipient("R")
    led.grant("D", "s", "R", label="c")
    led.advance(2)
    for name, args in calls:
        try:
            VALUE_CALLS[name](led, args)
        except ConsentryError:
            pass


# -- arguments of the wrong type -----------------------------------------------

DAY = timedelta(days=1)


@pytest.mark.parametrize("call", [
    pytest.param(lambda g: g.resolve("Data", "recipient"), id="resolve-kind"),
    pytest.param(lambda g: g.declare_concept("X", ConceptKind.DATA, 7), id="parents"),
    pytest.param(lambda g: g.declare_disjoint(7), id="disjoint-names"),
])
def test_the_ontology_refuses_a_wrong_type(call):
    graph = ConceptGraph()
    before = graph_state(graph)
    with pytest.raises(InvalidValueError):
        call(graph)
    assert graph_state(graph) == before and "X" not in graph


def test_a_name_that_is_not_a_string_is_not_present():
    led = Ledger()
    led.declare_subject("s")
    assert ["x"] not in led.ontology
    assert not led.knows_subject([1])


@pytest.mark.parametrize("call", [
    pytest.param(lambda: parse(None), id="parse"),
    pytest.param(lambda: tokenize(None), id="tokenize"),
    pytest.param(lambda: run_script(None), id="run-none"),
    pytest.param(lambda: run_script(b"step"), id="run-bytes"),
    pytest.param(lambda: monitor.scan(None, "", "", None, DAY), id="scan-manifest"),
    pytest.param(lambda: monitor.scan("", b"", "", None, DAY), id="scan-consent-log"),
    pytest.param(lambda: monitor.scan("", "", None, None, DAY), id="scan-access-log"),
    pytest.param(lambda: monitor.scan("", "", "", None, 1), id="scan-duration"),
    pytest.param(lambda: monitor.scan("", "", "", "2024-01-01", DAY), id="scan-epoch"),
    pytest.param(lambda: monitor.translate_to_script("", "", "", None, 1),
                 id="translate-duration"),
    pytest.param(lambda: monitor.translate_to_script("", "", "", "2024-01-01", DAY),
                 id="translate-epoch"),
    pytest.param(lambda: parse_duration(5), id="parse-duration"),
])
def test_a_text_or_time_argument_of_the_wrong_type_is_refused(call):
    with pytest.raises(InvalidValueError):
        call()


@pytest.mark.parametrize("field, value, error", [
    ("data_concept", "D", QueryError),
    ("recipient_concept", "R", QueryError),
    ("data_concept", True, UnknownConceptError),
    ("recipient_concept", 1.0, UnknownConceptError),
])
def test_check_refuses_a_concept_name_naming_the_field(field, value, error):
    led = Ledger()
    led.declare_data("D")
    led.declare_recipient("R")
    led.declare_subject("s")
    query = led.access_query("D", "s", "R")._replace(**{field: value})
    with pytest.raises(error, match=field if error is QueryError else None):
        led.check(query)


@pytest.mark.parametrize("token", [None, 3, b"T3"])
def test_parse_step_refuses_a_token_that_is_not_a_str(token):
    with pytest.raises(IntervalError, match=f"^not a step token: {re.escape(repr(token))}$"):
        parse_step(token)
