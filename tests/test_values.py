"""The value types built on every record are named tuples with a fixed face.

Each keeps its field names, order, defaults and `repr`, refuses attribute
assignment, and equals the plain tuple of its values.
"""

import pytest

from consentry.chronology import StepInterval
from consentry.core import ActionType, AuthzQuery, Decision, EventRecord, Mode, Reason
from consentry.monitor import Violation
from consentry.script import AssumeResult, StatementOutcome

SPAN = StepInterval(1, 3)
QUERY = AuthzQuery(ActionType.ACCESS, 2, "alice", 8, SPAN, 4)
DECISION = Decision(((SPAN, frozenset({0})),), Reason.OK)

# Each value's repr as the frozen dataclasses printed it.
SPAN_REPR = "StepInterval(start=1, end=3)"
QUERY_REPR = ("AuthzQuery(action=<ActionType.ACCESS: 'access'>, data_concept=2, "
              f"subject='alice', recipient_concept=8, collected_interval={SPAN_REPR}, "
              "access_at=4, mode=<Mode.GUARANTEED: 'guaranteed'>)")
DECISION_REPR = f"Decision(runs=(({SPAN_REPR}, frozenset({{0}})),), reason=<Reason.OK: 'Ok'>)"
VALUES = [
    (SPAN, SPAN_REPR),
    (QUERY, QUERY_REPR),
    (DECISION, DECISION_REPR),
    (EventRecord(1, QUERY, DECISION),
     f"EventRecord(id=1, query={QUERY_REPR}, verdict={DECISION_REPR})"),
    (Violation(3, 1, {"action": "access", "data_concept": "Location", "subject": "alice",
                      "recipient_concept": "Partner", "step": 4, "collected_steps": (1, 3)},
               Reason.WITHDRAWN_RETRO),
     "Violation(log_line=3, event_id=1, fields={'action': 'access', "
     "'data_concept': 'Location', 'subject': 'alice', 'recipient_concept': 'Partner', "
     "'step': 4, 'collected_steps': (1, 3)}, "
     "reason=<Reason.WITHDRAWN_RETRO: 'WithdrawnRetro'>)"),
    (AssumeResult(5, True, False, "assume true collect Location alice Partner"),
     "AssumeResult(line=5, expected=True, actual=False, "
     "statement='assume true collect Location alice Partner')"),
    (StatementOutcome(2, "step", "advanced to T2"),
     "StatementOutcome(line=2, text='step', note='advanced to T2')"),
]
IDS = [type(value).__name__ for value, _ in VALUES]


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
