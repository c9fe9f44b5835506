"""Every deliberate failure at the input boundary is a ConsentryError.

Fuzzed scripts, logs, durations, instants, bench scenarios and ontology
declarations either go through or raise a ConsentryError; no raw
ValueError, TypeError, OverflowError or RecursionError escapes. Each property runs with CPython's cap on
int-string digits and without it, since the cap decides where a long
number fails.
"""

from __future__ import annotations

import json
from datetime import datetime, timedelta, timezone

from hypothesis import example, given, settings
from hypothesis import strategies as st

from consentry import monitor
from consentry.bench import BenchScenario, run_scenario, scenario_names
from consentry.cli import parse_duration
from consentry.core import Ledger
from consentry.errors import ConsentryError
from consentry.script import KEYWORDS, run_script

from support import digit_limit

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
       st.integers(max_value=20) | st.floats() | st.booleans(), st.integers(),
       st.integers(max_value=2) | st.floats() | st.booleans())
@example("steps", 2.5, 0, 1)
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
