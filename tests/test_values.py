"""The value types keep a fixed face.

Those built on every record are named tuples: each keeps its field names,
order, defaults and `repr`, refuses attribute assignment, and equals the
plain tuple of its values. The other classes that load with the package
keep the fields, defaults, `repr` and equality their dataclasses had.
"""

import json
import os
import subprocess
import sys
import textwrap
from datetime import timedelta
from inspect import signature

import pytest

from consentry.bench import BenchScenario, TimingSeries
from consentry.chronology import StepInterval
from consentry.core import (
    ActionType, AuthzQuery, ConsentRecord, Decision, EventRecord, Ledger, Mode, Reason,
    Withdrawal,
)
from consentry.monitor import Violation, ViolationReport, scan
from consentry.ontology import Concept, ConceptKind
from consentry.script import (
    Access, Assume, AssumeResult, Collect, Grant, NewData, NewDisjoint, NewEquiv,
    NewRecipient, RunReport, StatementOutcome, Step, Token, TokenKind, Withdraw,
)

SPAN = StepInterval(1, 3)
QUERY = AuthzQuery(ActionType.ACCESS, 2, "alice", 8, SPAN, 4)
DECISION = Decision(((SPAN, frozenset({0})),), Reason.OK)

# Each value's repr as the frozen dataclasses printed it.
SPAN_REPR = "StepInterval(start=1, end=3)"
QUERY_REPR = ("AuthzQuery(action=<ActionType.ACCESS: 'access'>, data_concept=2, "
              f"subject='alice', recipient_concept=8, collected_interval={SPAN_REPR}, "
              "access_at=4, mode=<Mode.GUARANTEED: 'guaranteed'>)")
DECISION_REPR = f"Decision(runs=(({SPAN_REPR}, frozenset({{0}})),), reason=<Reason.OK: 'Ok'>)"
VIOLATION_REPR = (
    "Violation(log_line={}, event_id=1, fields={{'action': 'access', "
    "'data_concept': 'Location', 'subject': 'alice', 'recipient_concept': 'Partner', "
    "'step': 4, 'collected_steps': (1, 3)}}, "
    "reason=<Reason.WITHDRAWN_RETRO: 'WithdrawnRetro'>)")
VALUES = [
    (SPAN, SPAN_REPR),
    (QUERY, QUERY_REPR),
    (DECISION, DECISION_REPR),
    (EventRecord(1, QUERY, DECISION),
     f"EventRecord(id=1, query={QUERY_REPR}, verdict={DECISION_REPR})"),
    (Violation(3, 1, {"action": "access", "data_concept": "Location", "subject": "alice",
                      "recipient_concept": "Partner", "step": 4, "collected_steps": (1, 3)},
               Reason.WITHDRAWN_RETRO),
     VIOLATION_REPR.format(3)),
    (AssumeResult(5, True, False, "assume true collect Location alice Partner"),
     "AssumeResult(line=5, expected=True, actual=False, "
     "statement='assume true collect Location alice Partner')"),
    (StatementOutcome(2, "step", "advanced to T2"),
     "StatementOutcome(line=2, text='step', note='advanced to T2')"),
]
IDS = [type(value).__name__ for value, _ in VALUES]


def recorded_event() -> EventRecord:
    """An access event as `Ledger.record_event` returns it."""
    ledger = Ledger()
    ledger.declare_data("Location")
    ledger.declare_recipient("Partner")
    ledger.grant("Location", "alice", "Partner")
    ledger.advance(3)
    return ledger.record_event(ActionType.ACCESS, "Location", "alice", "Partner", SPAN)


def scanned_violation() -> Violation:
    """The one violation `scan` reports: an access after a retroactive
    withdrawal, on the access log's line 1."""
    def log(*records):
        return "".join(json.dumps(record) + "\n" for record in records)
    names = {"data_concept": "Location", "subject": "alice", "recipient_concept": "Partner"}
    consents = log(
        {"timestamp": "2026-01-01T00:00:00Z", "action": "grant", "consent_id": "c1", **names},
        {"timestamp": "2026-01-03T00:00:00Z", "action": "withdraw", "consent_id": "c1",
         "retroactive": True})
    accesses = log({"timestamp": "2026-01-04T00:00:00Z", "action": "access", **names,
                    "collected_from": "2026-01-01T00:00:00Z",
                    "collected_to": "2026-01-02T12:00:00Z"})
    report = scan("new data Location Data\nnew recipient Partner\n", consents, accesses,
                  None, timedelta(days=1))
    (violation,) = report.violations
    return violation


# The same types as the ledger and `scan` build them: by position, with
# `tuple.__new__`, not by a call to the class.
RECORDED = recorded_event()
RECORDED_QUERY_REPR = QUERY_REPR.replace("recipient_concept=8", "recipient_concept=3")
BUILT = [
    (RECORDED.query, RECORDED_QUERY_REPR),
    (RECORDED.verdict, DECISION_REPR),
    (RECORDED, f"EventRecord(id=1, query={RECORDED_QUERY_REPR}, verdict={DECISION_REPR})"),
    (scanned_violation(), VIOLATION_REPR.format(1)),
]
VALUES += BUILT
IDS += [f"built-{type(value).__name__}" for value, _ in BUILT]


@pytest.mark.parametrize("value, _", VALUES, ids=IDS)
def test_no_attribute_can_be_assigned(value, _):
    for name in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("value, text", VALUES, ids=IDS)
def test_repr_is_unchanged(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("value, _", VALUES, ids=IDS)
def test_equal_to_the_plain_tuple_of_its_values(value, _):
    assert value == tuple(getattr(value, name) for name in value._fields)


def test_defaults_and_properties_stay():
    assert QUERY.mode is Mode.GUARANTEED
    assert StepInterval(4).end is None
    assert DECISION.authorized
    assert not Decision((), Reason.NO_MATCHING_CONSENT).authorized
    assert not AssumeResult(1, True, False, "").passed
    assert AssumeResult(1, False, False, "").passed


# -- the classes that load with the package, as their dataclasses behaved ----

COLLECT = Collect("Location", "alice", "Partner", 7)
COLLECT_REPR = "Collect(data='Location', subject='alice', recipient='Partner', line=7)"
STATEMENTS = [
    (NewData("Location", "Data", 1), "NewData(name='Location', parent='Data', line=1)"),
    (NewRecipient("Partner", 2), "NewRecipient(name='Partner', line=2)"),
    (NewDisjoint(("A", "B"), 3), "NewDisjoint(names=('A', 'B'), line=3)"),
    (NewEquiv("A", "B", 4), "NewEquiv(a='A', b='B', line=4)"),
    (Grant("Location", "alice", "Partner", "c1", True, 5),
     "Grant(data='Location', subject='alice', recipient='Partner', label='c1', "
     "retro=True, line=5)"),
    (Withdraw("c1", line=6), "Withdraw(label='c1', retro=False, line=6)"),
    (COLLECT, COLLECT_REPR),
    (Access("Location", "alice", "Partner", 1, 3, 8),
     "Access(data='Location', subject='alice', recipient='Partner', start=1, end=3, "
     "line=8)"),
    (Step(line=9), "Step(count=1, line=9)"),
    (Assume(False, COLLECT, 10), f"Assume(expected=False, action={COLLECT_REPR}, line=10)"),
]
SCENARIO = BenchScenario("steps", 2)
SCENARIO_REPR = "BenchScenario(name='steps', steps=2, seed=0)"
IMMUTABLE = STATEMENTS + [
    (Withdrawal(3, True), "Withdrawal(step=3, retroactive=True)"),
    (Concept(0, "Data", ConceptKind.DATA),
     "Concept(id=0, name='Data', kind=<ConceptKind.DATA: 'data'>)"),
    (Token(TokenKind.LABEL, "c1", 5, 30),
     "Token(kind=<TokenKind.LABEL: 'label'>, text='c1', line=5, column=30)"),
    (ViolationReport((), 4, 7), "ViolationReport(violations=(), events_scanned=4, final_step=7)"),
    (SCENARIO, SCENARIO_REPR),
]
RECORD_REPR = ("ConsentRecord(id=0, label='c1', data_concept=2, subject='alice', "
               "recipient_concept=3, granted_at=1, grant_retroactive=False, withdrawal={})")
LOADED = IMMUTABLE + [
    (TimingSeries(SCENARIO, [[1, 2]], [[(), ()]]),
     f"TimingSeries(scenario={SCENARIO_REPR}, micros=[[1, 2]], verdicts=[[(), ()]])"),
    (ConsentRecord(0, "c1", 2, "alice", 3, 1, False), RECORD_REPR.format("None")),
    (ConsentRecord(0, "c1", 2, "alice", 3, 1, False, Withdrawal(4, False)),
     RECORD_REPR.format("Withdrawal(step=4, retroactive=False)")),
]


def loaded_ids(values):
    return [type(value).__name__ for value, _ in values]


def field_names(value) -> list[str]:
    return list(signature(type(value)).parameters)


def field_values(value) -> tuple:
    return tuple(getattr(value, name) for name in field_names(value))


@pytest.mark.parametrize("value, text", LOADED, ids=loaded_ids(LOADED))
def test_loaded_repr_is_unchanged(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("cls, fields", [
    (NewData, "name, parent, line=0"),
    (NewRecipient, "name, line=0"),
    (NewDisjoint, "names, line=0"),
    (NewEquiv, "a, b, line=0"),
    (Grant, "data, subject, recipient, label, retro=False, line=0"),
    (Withdraw, "label, retro=False, line=0"),
    (Collect, "data, subject, recipient, line=0"),
    (Access, "data, subject, recipient, start=None, end=None, line=0"),
    (Step, "count=1, line=0"),
    (Assume, "expected, action, line=0"),
    (Token, "kind, text, line, column"),
    (RunReport, "outcomes, assumes, events, final_step, ledger"),
    (Withdrawal, "step, retroactive"),
    (ConsentRecord, "id, label, data_concept, subject, recipient_concept, granted_at, "
                    "grant_retroactive, withdrawal=None"),
    (Concept, "id, name, kind"),
    (ViolationReport, "violations, events_scanned, final_step"),
    (BenchScenario, "name, steps, seed=0"),
], ids=lambda x: getattr(x, "__name__", ""))
def test_loaded_fields_order_and_defaults_are_unchanged(cls, fields):
    params = signature(cls).parameters.values()
    assert ", ".join(p.name if p.default is p.empty else f"{p.name}={p.default!r}"
                     for p in params) == fields


@pytest.mark.parametrize("value, _", IMMUTABLE, ids=loaded_ids(IMMUTABLE))
def test_loaded_immutable_values_refuse_assignment(value, _):
    for name in field_names(value):
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("stmt, _", STATEMENTS, ids=loaded_ids(STATEMENTS))
def test_a_statement_ignores_its_line(stmt, _):
    *values, line = field_values(stmt)
    moved = type(stmt)(*values, line + 100)
    assert stmt == moved
    assert not stmt != moved
    assert hash(stmt) == hash(moved) == hash(tuple(values))


def test_step_lines_take_no_part_in_equality():
    assert Step(line=1) == Step(line=2)
    assert not Step(line=1) != Step(line=2)
    assert hash(Step(line=1)) == hash(Step(line=2))


@pytest.mark.parametrize("a, b", [
    (Collect("D", "s", "R"), Access("D", "s", "R")),
    (NewData("A", "B"), NewEquiv("A", "B")),
], ids=["collect-access", "newdata-newequiv"])
def test_a_statement_equals_only_its_own_type(a, b):
    for x, y in ((a, b), (b, a)):
        assert not x == y
        assert x != y


@pytest.mark.parametrize("stmt, _", STATEMENTS, ids=loaded_ids(STATEMENTS))
def test_a_statement_never_equals_a_plain_tuple(stmt, _):
    values = field_values(stmt)
    for plain in (values, values[:-1]):
        assert not stmt == plain
        assert not plain == stmt
        assert stmt != plain
        assert plain != stmt


def test_run_report_equality_ignores_the_ledger():
    report = RunReport([], [], [], 1, Ledger())
    assert report == RunReport([], [], [], 1, Ledger())
    assert not report != RunReport([], [], [], 1, Ledger())
    assert report != RunReport([], [], [], 2, report.ledger)
    outcome = StatementOutcome(1, "step", "advanced to T2")
    assert report != RunReport([outcome], [], [], 1, report.ledger)
    assert repr(report).startswith("RunReport(outcomes=[], assumes=[], events=[], final_step=1")


def test_consent_record_equality_covers_every_field():
    fields = (0, "c1", 2, "alice", 3, 1, False, None)
    record = ConsentRecord(*fields)
    assert record == ConsentRecord(*fields)
    assert not record != ConsentRecord(*fields)
    for i, other in enumerate((1, "c2", 5, "bob", 6, 2, True, Withdrawal(2, False))):
        changed = ConsentRecord(*fields[:i], other, *fields[i + 1:])
        assert record != changed and not record == changed
    assert record != fields and fields != record
    with pytest.raises(TypeError):
        hash(record)


def test_consent_record_withdrawal_is_assignable():
    record = ConsentRecord(0, "c1", 2, "alice", 3, 1, False)
    twin = ConsentRecord(0, "c1", 2, "alice", 3, 1, False)
    record.withdrawal = Withdrawal(4, True)
    assert record.withdrawal == Withdrawal(4, True)
    assert record != twin
    twin.withdrawal = Withdrawal(4, True)
    assert record == twin


def test_consent_record_keywords_and_default():
    record = ConsentRecord(id=0, label=None, data_concept=2, subject="alice",
                           recipient_concept=3, granted_at=1, grant_retroactive=True)
    assert record.withdrawal is None
    assert record.grant_retroactive and record.label is None


# -- what holds since those classes are built without dataclasses -----------

def test_consent_record_refuses_unknown_attributes():
    record = ConsentRecord(0, "c1", 2, "alice", 3, 1, False)
    with pytest.raises(AttributeError):
        record.extra = 1


# The loaded classes that are named tuples with tuple equality: all but the
# statements and ConsentRecord.
PLAIN = [pair for pair in LOADED[len(STATEMENTS):] if isinstance(pair[0], tuple)]


@pytest.mark.parametrize("value, _", PLAIN, ids=loaded_ids(PLAIN))
def test_loaded_named_tuples_equal_plain_tuples(value, _):
    assert value == field_values(value)
    assert value == tuple(value)


def test_run_report_repr_shows_its_ledger():
    report = RunReport([], [], [], 1, Ledger())
    assert repr(report) == ("RunReport(outcomes=[], assumes=[], events=[], final_step=1, "
                            f"ledger={report.ledger!r})")


# Each entry point, and the modules it must not load: the dataclass machinery
# for either, and the monitor (and for the package, the script interpreter
# too) until a caller uses it.
ENTRY_POINTS = [
    ("consentry", {"dataclasses", "inspect", "consentry.script", "consentry.monitor"}),
    ("consentry.cli", {"dataclasses", "inspect", "consentry.monitor"}),
]


@pytest.mark.parametrize("module, unloaded", ENTRY_POINTS, ids=[m for m, _ in ENTRY_POINTS])
def test_an_entry_point_loads_no_module_it_does_not_use(module, unloaded):
    # A fresh interpreter: pytest itself has loaded every module here.
    code = (f"import sys; before = set(sys.modules); import {module}; "
            f"print(*sorted({unloaded!r} & (set(sys.modules) - before)))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == ""


def test_the_package_names_resolve_to_their_submodules_objects():
    # A fresh interpreter, so that the names still have to load their modules.
    code = textwrap.dedent("""\
        import sys
        import consentry
        assert set(consentry.__all__) | {"script", "monitor"} <= set(dir(consentry))
        for home in ("script", "monitor"):
            assert getattr(consentry, home) is sys.modules["consentry." + home], home
        star = {}
        exec("from consentry import *", star)
        assert set(star) - {"__builtins__"} == set(consentry.__all__)
        defined = {"__version__": consentry.__version__}
        for module in (consentry.chronology, consentry.core, consentry.errors,
                       consentry.ontology, consentry.script, consentry.monitor):
            defined.update(vars(module))
        for name in consentry.__all__:
            assert star[name] is getattr(consentry, name) is defined[name], name
            assert name in vars(consentry), name  # resolved once, then kept
        try:
            consentry.nope
        except AttributeError as err:
            assert str(err) == "module 'consentry' has no attribute 'nope'", err
        else:
            raise AssertionError("consentry.nope resolved")
        print("ok")
    """)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True)
    assert run.stdout.strip() == "ok", run.stderr
