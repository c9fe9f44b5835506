import gc
import re
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consentry import bench
from consentry.chronology import StepInterval
from consentry.core import (
    ActionType,
    ConsentRecord,
    Decision,
    EventRecord,
    Ledger,
    Mode,
    Reason,
    Withdrawal,
)
from consentry.errors import (
    AlreadyWithdrawnError,
    ConsentryError,
    ConsistencyError,
    DeclarationError,
    DuplicateLabelError,
    InvalidValueError,
    KindMismatchError,
    QueryError,
    UnknownConceptError,
    UnknownConsentError,
    UnknownSubjectError,
)
from consentry.ontology import ConceptKind
from consentry.oracle import ConsentSpec, oracle_collection_steps, oracle_region

from support import (
    authorized_region, concepts_match, covers_access, covers_collection, reference_decide,
)

ALICE = "alice"
BOB = "bob"
CAROL = "carol"
DAVE = "dave"  # declared in the property below, never granted a consent

steps_st = st.integers(min_value=1, max_value=8)


def record(granted_at=1, grant_retroactive=False, withdrawal=None):
    return ConsentRecord(0, None, 0, ALICE, 1, granted_at,
                         grant_retroactive, withdrawal)


def fresh_ledger():
    """Ledger with a small two-axis hierarchy used across the tests."""
    led = Ledger()
    led.declare_data("Location")
    led.declare_data("DeviceLocation", "Location")
    led.declare_data("CellLocation", "Location")
    led.declare_data("Contacts")
    led.declare_data("WalkingRoute")
    led.declare_data("DrivingRoute")
    led.declare_disjoint("WalkingRoute", "DrivingRoute")
    led.declare_recipient("Partner")
    led.declare_recipient("Advertiser", "Partner")
    led.declare_subject(ALICE)
    led.declare_subject(BOB)
    return led


class TestConsentRecordCollection:
    def test_not_before_grant(self):
        assert not covers_collection(record(granted_at=3), 2)
        assert covers_collection(record(granted_at=3), 3)

    def test_open_ended_after_grant(self):
        c = record(granted_at=2)
        assert all(covers_collection(c, s) for s in range(2, 50))

    def test_withdrawal_step_itself_uncovered(self):
        c = record(withdrawal=Withdrawal(4, retroactive=False))
        assert covers_collection(c, 3)
        assert not covers_collection(c, 4)
        assert not covers_collection(c, 9)

    @given(g=steps_st, w=steps_st, step=steps_st)
    def test_withdrawal_flavor_is_irrelevant_for_collection(self, g, w, step):
        soft = record(g, withdrawal=Withdrawal(w, False))
        hard = record(g, withdrawal=Withdrawal(w, True))
        assert covers_collection(soft, step) == covers_collection(hard, step)

    @given(g=steps_st, step=steps_st)
    def test_grant_retroactivity_is_irrelevant_for_collection(self, g, step):
        assert covers_collection(record(g, False), step) == \
            covers_collection(record(g, True), step)


class TestConsentRecordAccess:
    def test_plain_grant_window(self):
        c = record(granted_at=3)
        assert not covers_access(c, 2, 4)   # collected before grant
        assert not covers_access(c, 3, 2)   # accessed before grant
        assert covers_access(c, 3, 3)
        assert covers_access(c, 4, 9)

    def test_retroactive_grant_reaches_back(self):
        c = record(granted_at=3, grant_retroactive=True)
        assert covers_access(c, 1, 3)
        assert not covers_access(c, 1, 2)   # access still waits for grant

    def test_non_retroactive_withdrawal_keeps_old_data(self):
        c = record(withdrawal=Withdrawal(5, retroactive=False))
        assert covers_access(c, 4, 9)       # collected before the cut
        assert not covers_access(c, 5, 9)

    def test_collection_after_the_access_is_never_covered(self):
        assert not covers_access(record(granted_at=1), 2, 1)
        assert not covers_access(record(granted_at=1, grant_retroactive=True), 3, 2)

    def test_retroactive_withdrawal_stops_all_access(self):
        c = record(withdrawal=Withdrawal(5, retroactive=True))
        assert covers_access(c, 4, 4)
        assert not covers_access(c, 4, 5)
        assert not covers_access(c, 1, 9)


class TestAuthorizedRegion:
    def test_plain_grant_is_upper_triangle(self):
        got = authorized_region(record(granted_at=1), horizon=3)
        assert got == {(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3)}

    def test_late_grant_trims_both_axes(self):
        got = authorized_region(record(granted_at=2), horizon=3)
        assert got == {(2, 2), (2, 3), (3, 3)}

    def test_retroactive_grant_trims_access_only(self):
        got = authorized_region(record(granted_at=2, grant_retroactive=True),
                                horizon=3)
        assert got == {(1, 2), (2, 2), (1, 3), (2, 3), (3, 3)}

    def test_retroactive_withdrawal_leaves_a_corner(self):
        got = authorized_region(
            record(withdrawal=Withdrawal(2, retroactive=True)), horizon=3)
        assert got == {(1, 1)}

    def test_non_retroactive_withdrawal_leaves_a_column(self):
        got = authorized_region(
            record(withdrawal=Withdrawal(2, retroactive=False)), horizon=3)
        assert got == {(1, 1), (1, 2), (1, 3)}

    @given(g=steps_st, gr=st.booleans(), w=steps_st, wr=st.booleans(),
           horizon=steps_st)
    def test_withdrawal_only_ever_shrinks(self, g, gr, w, wr, horizon):
        base = record(g, gr)
        cut = record(g, gr, Withdrawal(w, wr))
        assert authorized_region(cut, horizon) <= authorized_region(base, horizon)

    @given(early=steps_st, late=steps_st, gr=st.booleans(), horizon=steps_st)
    def test_earlier_grant_covers_at_least_as_much(self, early, late, gr, horizon):
        if early > late:
            early, late = late, early
        assert authorized_region(record(late, gr), horizon) <= \
            authorized_region(record(early, gr), horizon)


class TestLedgerCheck:
    def test_collect_requires_a_grant(self):
        led = fresh_ledger()
        decision = led.check(led.collect_query("Location", ALICE, "Partner"))
        assert not decision.authorized
        assert decision.reason is Reason.NO_MATCHING_CONSENT

    def test_grant_covers_specific_concepts(self):
        led = fresh_ledger()
        led.grant("Location", ALICE, "Partner")
        decision = led.check(led.collect_query("DeviceLocation", ALICE, "Advertiser"))
        assert decision.authorized
        assert decision.reason is Reason.OK
        assert per_step_coverage(decision) == {1: frozenset({0})}

    def test_guaranteed_needs_subsumption_not_union(self):
        # Children together span the parent, but no single consent subsumes
        # the parent concept, so a guaranteed query for it must fail.
        led = fresh_ledger()
        led.grant("DeviceLocation", ALICE, "Partner")
        led.grant("CellLocation", ALICE, "Partner")
        decision = led.check(led.collect_query("Location", ALICE, "Partner"))
        assert not decision.authorized
        possible = led.check(led.collect_query("Location", ALICE, "Partner",
                                               mode=Mode.POSSIBLE))
        assert possible.authorized

    def test_possible_mode_blocks_disjoint_concepts(self):
        led = fresh_ledger()
        led.grant("WalkingRoute", ALICE, "Partner")
        decision = led.check(led.collect_query("DrivingRoute", ALICE, "Partner",
                                               mode=Mode.POSSIBLE))
        assert not decision.authorized
        assert decision.reason is Reason.NO_MATCHING_CONSENT

    def test_possible_mode_blocks_disjoint_recipients(self):
        led = fresh_ledger()
        led.declare_recipient("Insurer")
        led.declare_disjoint("Advertiser", "Insurer")
        led.grant("Location", ALICE, "Insurer")
        decision = led.check(led.collect_query("Location", ALICE, "Advertiser",
                                               mode=Mode.POSSIBLE))
        assert decision.reason is Reason.NO_MATCHING_CONSENT
        assert led.check(led.collect_query("Location", ALICE, "Partner",
                                           mode=Mode.POSSIBLE)).authorized

    def test_per_step_coverage_may_mix_consents(self):
        led = fresh_ledger()
        c_old = led.grant("Location", ALICE, "Partner")            # T1
        led.advance()
        c_retro = led.grant("Location", ALICE, "Partner",          # T2
                            retroactive=True)
        led.advance()
        led.withdraw(c_old)                                        # T3, non-retro
        decision = led.check(led.access_query("Location", ALICE, "Partner",
                                              StepInterval(1, 4)))
        assert decision.authorized
        assert per_step_coverage(decision) == {
            1: frozenset({c_old, c_retro}),
            2: frozenset({c_old, c_retro}),
            3: frozenset({c_retro}),
        }

    def test_one_uncovered_step_denies_the_whole_interval(self):
        led = fresh_ledger()
        led.advance()
        led.grant("Location", ALICE, "Partner")                    # T2, not retro
        led.advance()
        decision = led.check(led.access_query("Location", ALICE, "Partner",
                                              StepInterval(1, 4)))
        assert not decision.authorized
        coverage = per_step_coverage(decision)
        assert coverage[1] == frozenset()
        assert coverage[2] and coverage[3]
        assert decision.reason is Reason.OUTSIDE_GRANT_WINDOW

    def test_default_access_interval_spans_history(self):
        led = fresh_ledger()
        led.grant("Location", ALICE, "Partner")
        led.advance()
        led.advance()
        query = led.access_query("Location", ALICE, "Partner")
        assert query.collected_interval == StepInterval(1, 4)
        assert led.check(query).authorized

    def test_check_does_not_mutate(self):
        led = fresh_ledger()
        led.grant("Location", ALICE, "Partner")
        before = (led.now, len(led.consents), led._next_event)
        led.check(led.collect_query("Location", ALICE, "Partner"))
        assert (led.now, len(led.consents), led._next_event) == before
        # No event was numbered: the next one recorded is still the first.
        assert led.record_event(ActionType.COLLECT, "Location", ALICE, "Partner").id == 1


class TestDenialReasons:
    def test_unsatisfiable_concept_preempts_everything(self):
        led = fresh_ledger()
        led.declare_data("Impossible", "WalkingRoute", "DrivingRoute")
        led.grant("Location", ALICE, "Partner")
        decision = led.check(led.collect_query("Impossible", ALICE, "Partner"))
        assert decision.reason is Reason.CONCEPT_UNSATISFIABLE
        assert per_step_coverage(decision) == {1: frozenset()}

    def test_subject_mismatch_when_only_other_subjects_match(self):
        led = fresh_ledger()
        led.grant("Location", BOB, "Partner")
        decision = led.check(led.collect_query("Location", ALICE, "Partner"))
        assert decision.reason is Reason.SUBJECT_MISMATCH

    def test_no_matching_consent_when_concepts_differ(self):
        led = fresh_ledger()
        led.grant("Contacts", BOB, "Partner")
        decision = led.check(led.collect_query("Location", ALICE, "Partner"))
        assert decision.reason is Reason.NO_MATCHING_CONSENT

    def test_outside_grant_window(self):
        led = fresh_ledger()
        led.advance()
        led.grant("Location", ALICE, "Partner")
        decision = led.check(led.access_query("Location", ALICE, "Partner",
                                              StepInterval(1, 2)))
        assert decision.reason is Reason.OUTSIDE_GRANT_WINDOW

    def test_withdrawn_non_retro_on_new_collection(self):
        led = fresh_ledger()
        cid = led.grant("Location", ALICE, "Partner")
        led.advance()
        led.withdraw(cid)
        decision = led.check(led.collect_query("Location", ALICE, "Partner"))
        assert decision.reason is Reason.WITHDRAWN_NON_RETRO

    def test_withdrawal_on_the_grant_step_is_seen_at_the_runs_end(self):
        # The consent covers no step; across [T1, T3) the window miss shows at
        # T1 and the withdrawal only at T2, and the withdrawal must win.
        led = fresh_ledger()
        led.advance()
        cid = led.grant("Location", ALICE, "Partner")              # T2
        led.withdraw(cid)                                          # T2, non-retro
        decision = led.check(led.access_query("Location", ALICE, "Partner"))
        assert decision.runs == ((StepInterval(1, 3), frozenset()),)
        assert decision.reason is Reason.WITHDRAWN_NON_RETRO

    def test_withdrawn_retro_outranks_window_miss(self):
        led = fresh_ledger()
        led.advance()
        cid = led.grant("Location", ALICE, "Partner")              # T2
        led.advance()
        led.withdraw(cid, retroactive=True)                        # T3
        decision = led.check(led.access_query("Location", ALICE, "Partner",
                                              StepInterval(1, 3)))
        # Step 1 misses the window and is retro-cut; step 2 is retro-cut.
        assert decision.reason is Reason.WITHDRAWN_RETRO

    def test_retro_withdrawal_cuts_steps_below_a_plain_grant(self):
        # The reach at T8 is [T5, T1): the cut sits below every step, so
        # [T1, T3) is withdrawn, not merely outside the grant window.
        led = fresh_ledger()
        while led.now < 5:
            led.advance()
        cid = led.grant("Location", ALICE, "Partner")              # T5
        led.advance()
        led.advance()
        led.withdraw(cid, retroactive=True)                        # T7
        led.advance()                                              # T8
        decision = led.check(led.access_query("Location", ALICE, "Partner",
                                              StepInterval(1, 3)))
        assert decision.runs == ((StepInterval(1, 3), frozenset()),)
        assert decision.reason is Reason.WITHDRAWN_RETRO


# Intervals that `_replace` and `_make` build without StepInterval's check.
UNCHECKED_INTERVALS = {
    "T0-start": StepInterval(1, 3)._replace(start=0),
    "empty": StepInterval._make((2, 2)),
    "reversed": StepInterval._make((3, 2)),
    "bool-start": StepInterval._make((True, 2)),
    "float-start": StepInterval._make((1.5, 3)),
}
UNCHECKED_REFUSAL = re.escape("collection interval bounds must be whole steps with "
                              "1 <= start < end")


class TestLedgerValidation:
    def test_unknown_subject_rejected(self):
        led = fresh_ledger()
        with pytest.raises(UnknownSubjectError):
            led.check(led.collect_query("Location", "mallory", "Partner"))

    def test_collect_query_is_single_step(self):
        led = fresh_ledger()
        query = led.collect_query("Location", ALICE, "Partner")
        bad = AuthzQueryWith(query, collected_interval=StepInterval(1, 3))
        with pytest.raises(QueryError):
            led.check(bad)

    def test_collect_query_collects_at_its_own_step(self):
        led = fresh_ledger()
        led.grant("Location", ALICE, "Partner")
        led.advance(20)
        query = led.collect_query("Location", ALICE, "Partner")
        bad = AuthzQueryWith(query, access_at=10)
        with pytest.raises(QueryError,
                           match="collection step T21 is not the query's step T10"):
            led.check(bad)

    def test_access_interval_cannot_reach_past_access_step(self):
        led = fresh_ledger()
        led.grant("Location", ALICE, "Partner")
        with pytest.raises(QueryError):
            led.check(led.access_query("Location", ALICE, "Partner",
                                       StepInterval(1, 3)))  # now is T1

    def test_unbounded_interval_rejected(self):
        led = fresh_ledger()
        with pytest.raises(QueryError):
            led.check(led.access_query("Location", ALICE, "Partner",
                                       StepInterval(1)))

    @pytest.mark.parametrize("interval", UNCHECKED_INTERVALS.values(),
                             ids=UNCHECKED_INTERVALS)
    def test_an_access_interval_that_skipped_its_check_is_refused(self, interval):
        # A retroactive grant covers every step the interval names.
        led = fresh_ledger()
        led.grant("Location", ALICE, "Partner", retroactive=True)
        led.advance(3)                                                   # T4
        query = led.access_query("Location", ALICE, "Partner")
        with pytest.raises(QueryError, match=UNCHECKED_REFUSAL):
            led.check(AuthzQueryWith(query, collected_interval=interval))

    def test_a_collect_step_that_skipped_its_check_is_refused(self):
        led = fresh_ledger()
        led.grant("Location", ALICE, "Partner")
        query = led.collect_query("Location", ALICE, "Partner")             # T1
        with pytest.raises(QueryError, match=UNCHECKED_REFUSAL):
            led.check(AuthzQueryWith(query, collected_interval=StepInterval._make((True, 2))))

    def test_duplicate_label_rejected(self):
        led = fresh_ledger()
        led.grant("Location", ALICE, "Partner", label="base")
        with pytest.raises(DuplicateLabelError):
            led.grant("Contacts", ALICE, "Partner", label="base")

    def test_consent_lookup_by_label_and_id(self):
        led = fresh_ledger()
        cid = led.grant("Location", ALICE, "Partner", label="base")
        assert led.consent("base").id == cid
        assert led.consent(cid).label == "base"
        with pytest.raises(UnknownConsentError):
            led.consent("nope")
        with pytest.raises(UnknownConsentError):
            led.consent(99)

    @pytest.mark.parametrize("ref", [None, True, False, 0.0, b"base", ("base",)])
    def test_a_ref_that_is_neither_an_id_nor_a_label_is_an_unknown_consent(self, ref):
        led = fresh_ledger()
        led.grant("Location", ALICE, "Partner", label="base")
        with pytest.raises(UnknownConsentError):
            led.consent(ref)
        with pytest.raises(UnknownConsentError):
            led.withdraw(ref)
        assert led.consent(0).withdrawal is None

    def test_double_withdrawal_rejected(self):
        led = fresh_ledger()
        cid = led.grant("Location", ALICE, "Partner")
        led.withdraw(cid)
        with pytest.raises(AlreadyWithdrawnError):
            led.withdraw(cid, retroactive=True)

    def test_equating_cannot_void_recorded_events(self):
        led = fresh_ledger()
        led.grant("WalkingRoute", ALICE, "Partner")
        led.record_event(ActionType.COLLECT, "WalkingRoute", ALICE, "Partner")
        with pytest.raises(ConsistencyError):
            led.declare_equivalent("WalkingRoute", "DrivingRoute")

    def test_disjointness_cannot_void_recorded_events(self):
        led = fresh_ledger()
        led.declare_data("Both", "DeviceLocation", "Contacts")
        led.grant("Both", ALICE, "Partner")
        led.record_event(ActionType.COLLECT, "Both", ALICE, "Partner")
        with pytest.raises(ConsistencyError, match="recorded events on: Both"):
            led.declare_disjoint("CellLocation", "DeviceLocation", "Contacts")
        # Refused whole: not even the pair away from Both was recorded.
        graph = led.ontology
        assert not graph.are_disjoint(graph.lookup("CellLocation"), graph.lookup("Contacts"))
        assert led.check(led.collect_query("Both", ALICE, "Partner")).authorized
        # A disjointness the recorded concepts do not sit under is kept.
        led.declare_disjoint("CellLocation", "Contacts")
        assert graph.are_disjoint(graph.lookup("CellLocation"), graph.lookup("Contacts"))

    def test_disjointness_of_one_concept_rejected(self):
        led = fresh_ledger()
        with pytest.raises(DeclarationError, match="at least two"):
            led.declare_disjoint("Location")


def AuthzQueryWith(query, **overrides):
    return query._replace(**overrides)


class TestEvents:
    def test_events_record_regardless_of_verdict(self):
        led = fresh_ledger()
        ev = led.record_event(ActionType.COLLECT, "Location", ALICE, "Partner")
        assert not ev.verdict.authorized
        assert (ev.id, ev.query.action, ev.query.subject, ev.query.access_at) == \
            (1, ActionType.COLLECT, ALICE, 1)
        led.grant("Location", ALICE, "Partner")
        ev2 = led.record_event(ActionType.COLLECT, "Location", ALICE, "Partner")
        assert ev2.verdict.authorized
        assert ev2.id == ev.id + 1

    def test_dropped_events_leave_nothing_behind(self):
        """The ledger keeps no event: its memory does not grow with history."""
        def live(kind):
            gc.collect()
            return [o for o in gc.get_objects() if isinstance(o, kind)]

        led = fresh_ledger()
        led.grant("Location", ALICE, "Partner")
        before = len(live(EventRecord)), len(live(Decision))
        kept = led.record_event(ActionType.COLLECT, "Location", ALICE, "Partner")
        assert any(o is kept for o in live(EventRecord))  # the probe sees events
        del kept
        for _ in range(200):
            led.advance()
            led.record_event(ActionType.COLLECT, "Location", ALICE, "Partner")
            led.record_event(ActionType.ACCESS, "Location", BOB, "Partner")
        assert (len(live(EventRecord)), len(live(Decision))) == before
        assert led.record_event(ActionType.COLLECT, "Location", ALICE, "Partner").id == 402

    def test_collect_event_takes_no_interval(self):
        led = fresh_ledger()
        with pytest.raises(QueryError):
            led.record_event(ActionType.COLLECT, "Location", ALICE, "Partner",
                             collected_interval=StepInterval.single(1))

    def test_access_event_defaults_to_full_history(self):
        led = fresh_ledger()
        led.grant("Location", ALICE, "Partner", retroactive=True)
        led.advance()
        ev = led.record_event(ActionType.ACCESS, "Location", ALICE, "Partner")
        assert ev.query.collected_interval == StepInterval(1, 3)
        assert ev.verdict.authorized

    def test_access_event_cannot_cover_the_future(self):
        led = fresh_ledger()
        with pytest.raises(QueryError, match=r"\[T1, T3\) reaches past access step T1"):
            led.record_event(ActionType.ACCESS, "Location", ALICE, "Partner",
                             collected_interval=StepInterval(1, 3))

    def test_access_event_needs_a_bounded_interval(self):
        led = fresh_ledger()
        with pytest.raises(QueryError, match="queries need a bounded collection interval"):
            led.record_event(ActionType.ACCESS, "Location", ALICE, "Partner",
                             collected_interval=StepInterval(1))

    def test_unknown_concept_outranks_a_bad_interval(self):
        led = fresh_ledger()
        with pytest.raises(UnknownConceptError):
            led.record_event(ActionType.ACCESS, "Nowhere", ALICE, "Partner",
                             collected_interval=StepInterval(1, 3))

    # The refusal order is the same for both: a collect's interval is refused
    # before its concepts are resolved, an access's concepts before its interval.
    @pytest.mark.parametrize("ask", ["record_event", "decide_event"])
    @pytest.mark.parametrize("data, recipient", [("Nowhere", "Partner"),
                                                 ("Location", "Nobody")])
    def test_a_collect_interval_outranks_an_unknown_concept(self, ask, data, recipient):
        led = fresh_ledger()
        with pytest.raises(QueryError) as refused:
            getattr(led, ask)(ActionType.COLLECT, data, ALICE, recipient,
                              StepInterval.single(1))
        assert str(refused.value) == "collection events do not take a collected interval"

    @pytest.mark.parametrize("ask", ["record_event", "decide_event"])
    @pytest.mark.parametrize("data, recipient", [("Nowhere", "Partner"),
                                                 ("Location", "Nobody")])
    @pytest.mark.parametrize("interval", [StepInterval(1, 3), StepInterval(1), (1, 2),
                                          *UNCHECKED_INTERVALS.values()],
                             ids=["future", "unbounded", "not-an-interval",
                                  *UNCHECKED_INTERVALS])
    def test_an_unknown_access_concept_outranks_a_bad_interval(self, ask, data, recipient,
                                                               interval):
        led = fresh_ledger()
        with pytest.raises(UnknownConceptError):
            getattr(led, ask)(ActionType.ACCESS, data, ALICE, recipient, interval)

    @pytest.mark.parametrize("ask", ["record_event", "decide_event"])
    @pytest.mark.parametrize("interval", UNCHECKED_INTERVALS.values(),
                             ids=UNCHECKED_INTERVALS)
    def test_an_access_interval_that_skipped_its_check_is_refused(self, ask, interval):
        led = fresh_ledger()
        led.grant("Location", ALICE, "Partner", retroactive=True)
        led.advance(3)                                                   # T4
        with pytest.raises(QueryError, match=UNCHECKED_REFUSAL):
            getattr(led, ask)(ActionType.ACCESS, "Location", ALICE, "Partner", interval)
        assert led._next_event == 1 and not led._event_concepts


class TestDecideEvent:
    """`decide_event` gives the verdict `record_event` would attach, and
    records nothing."""

    @staticmethod
    def state(led):
        return led._next_event, set(led._event_concepts), dict(led._by_subject)

    @pytest.mark.parametrize("action, data, subject, recipient, interval", [
        (ActionType.COLLECT, "DeviceLocation", ALICE, "Advertiser", None),
        (ActionType.COLLECT, "Contacts", ALICE, "Partner", None),
        (ActionType.COLLECT, "Location", BOB, "Advertiser", None),
        (ActionType.ACCESS, "DeviceLocation", ALICE, "Advertiser", None),
        (ActionType.ACCESS, "CellLocation", ALICE, "Partner", StepInterval(2, 4)),
        (ActionType.ACCESS, "Location", ALICE, "Advertiser", StepInterval.single(1)),
        (ActionType.ACCESS, "Location", CAROL, "Advertiser", None),
    ])
    def test_the_verdict_record_event_then_records(self, action, data, subject,
                                                   recipient, interval):
        led = fresh_ledger()
        cid = led.grant("Location", ALICE, "Advertiser", label="c1")
        led.advance(2)
        led.record_event(ActionType.COLLECT, "WalkingRoute", BOB, "Partner")
        led.withdraw(cid)
        led.grant("CellLocation", ALICE, "Partner", retroactive=True)
        led.advance()
        before = self.state(led)
        decision = led.decide_event(action, data, subject, recipient, interval)
        assert self.state(led) == before
        event = led.record_event(action, data, subject, recipient, interval)
        assert decision == event.verdict
        assert event.id == before[0]

    def test_refuses_a_bad_query_as_record_event_does(self):
        led = fresh_ledger()
        for args in [("fly", "Location", ALICE, "Partner"),
                     (ActionType.COLLECT, "Nowhere", ALICE, "Partner"),
                     (ActionType.ACCESS, "Location", ALICE, "Partner", StepInterval(1, 3))]:
            with pytest.raises(ConsentryError) as refused:
                led.decide_event(*args)
            with pytest.raises(type(refused.value), match=re.escape(str(refused.value))):
                led.record_event(*args)
        assert led._next_event == 1 and not led._event_concepts


class TestArgumentsAreNotMisread:
    """A query, action, mode, retroactive flag, interval, concept id or
    concept name of the wrong type is refused with the library's own
    error, never read as something else."""

    @staticmethod
    def ledger():
        led = Ledger()
        led.declare_data("D")
        led.declare_data("Sub", "D")
        led.declare_recipient("R")
        led.grant("Sub", "s", "R", label="c")
        return led

    def test_a_mode_that_is_not_a_mode_is_refused(self):
        led = self.ledger()
        query = led.access_query("D", "s", "R", mode=Mode.GUARANTEED)
        assert led.check(query).reason is Reason.NO_MATCHING_CONSENT
        with pytest.raises(QueryError, match="unknown mode 'guaranteed'"):
            led.check(query._replace(mode="guaranteed"))

    @pytest.mark.parametrize("action", ["collect", "access", None])
    def test_an_action_that_is_not_an_action_type_is_refused(self, action):
        led = self.ledger()
        query = led.collect_query("Sub", "s", "R")
        with pytest.raises(QueryError, match=f"unknown action {action!r}"):
            led.check(query._replace(action=action))
        with pytest.raises(QueryError, match=f"unknown action {action!r}"):
            led.record_event(action, "D", "s", "R")

    @pytest.mark.parametrize("flag", ["yes", 1, 0, None])
    def test_a_retroactive_flag_that_is_not_a_bool_is_refused(self, flag):
        led = self.ledger()
        with pytest.raises(InvalidValueError, match="retroactive must be True or False"):
            led.withdraw("c", retroactive=flag)
        assert led.consent("c").withdrawal is None
        with pytest.raises(InvalidValueError, match="retroactive must be True or False"):
            led.grant("D", "s", "R", retroactive=flag)
        assert len(led.consents) == 1

    @pytest.mark.parametrize("interval", [(1, 2), [1, 2], range(1, 2), ()])
    def test_a_collected_interval_that_is_not_a_step_interval_is_refused(self, interval):
        led = self.ledger()
        led.advance()
        with pytest.raises(QueryError, match="must be a StepInterval"):
            led.record_event(ActionType.ACCESS, "D", "s", "R", interval)
        query = led.access_query("D", "s", "R")
        with pytest.raises(QueryError, match="must be a StepInterval"):
            led.check(query._replace(collected_interval=interval))

    @pytest.mark.parametrize("step", ["x", None, 1.5, 1.0, True, 0, -1])
    def test_an_access_step_that_is_not_a_positive_int_is_refused(self, step):
        led = self.ledger()
        for query in (led.collect_query("Sub", "s", "R"), led.access_query("Sub", "s", "R")):
            assert led.check(query).authorized
            with pytest.raises(QueryError, match="access step must be an int of at least 1"):
                led.check(query._replace(access_at=step))

    @pytest.mark.parametrize("cid", [None, 1.5, True])
    def test_a_concept_id_that_is_not_an_int_is_unknown(self, cid):
        led = self.ledger()
        with pytest.raises(UnknownConceptError):
            led.grant(cid, "s", "R")
        assert len(led.consents) == 1

    @pytest.mark.parametrize("query", [None, "q", "tuple"])
    def test_a_query_that_is_not_an_authz_query_is_refused(self, query):
        led = self.ledger()
        if query == "tuple":  # the same values, without the type
            query = tuple(led.collect_query("Sub", "s", "R"))
        with pytest.raises(QueryError, match="expected an AuthzQuery"):
            led.check(query)

    @pytest.mark.parametrize("name", [7, None, ["x"]])
    def test_a_concept_name_that_is_not_a_string_is_refused(self, name):
        led = self.ledger()
        size = len(led.ontology)
        for declare in (led.declare_data, led.declare_recipient,
                        lambda n: led.declare_data("X", n)):
            with pytest.raises(InvalidValueError, match="names must be strings"):
                declare(name)
        assert len(led.ontology) == size
        for declare in (led.declare_equivalent, led.declare_disjoint):
            with pytest.raises(UnknownConceptError):
                declare(name, "D")

    @pytest.mark.parametrize("subject", [None, 7, ("s",)])
    def test_grant_refuses_a_subject_that_is_not_a_string(self, subject):
        led = self.ledger()
        with pytest.raises(InvalidValueError, match="subject must be a string"):
            led.grant("D", subject, "R")
        assert len(led.consents) == 1 and not led.knows_subject(subject)

    @pytest.mark.parametrize("subject", [None, 7, ("s",)])
    def test_record_event_refuses_a_subject_that_is_not_a_string(self, subject):
        led = self.ledger()
        for action in ActionType:
            with pytest.raises(InvalidValueError, match="subject must be a string"):
                led.record_event(action, "D", subject, "R")
        assert not led.knows_subject(subject)
        assert led.record_event(ActionType.COLLECT, "D", "s", "R").id == 1

    @pytest.mark.parametrize("subject", [None, 7, ("s",)])
    def test_declare_subject_refuses_a_subject_that_is_not_a_string(self, subject):
        led = self.ledger()
        with pytest.raises(InvalidValueError, match="subject must be a string"):
            led.declare_subject(subject)
        assert not led.knows_subject(subject)

    @pytest.mark.parametrize("subject", [None, 7, ("s",)])
    def test_decide_event_refuses_a_subject_that_is_not_a_string(self, subject):
        led = self.ledger()
        for action in ActionType:
            with pytest.raises(InvalidValueError, match="subject must be a string"):
                led.decide_event(action, "D", subject, "R")

    @pytest.mark.parametrize("label", [1, True, b"c2", ("c2",)])
    def test_grant_refuses_a_label_that_is_neither_a_string_nor_none(self, label):
        led = self.ledger()
        with pytest.raises(InvalidValueError, match="label must be a string or None"):
            led.grant("D", "s", "R", label=label)
        assert len(led.consents) == 1
        assert led.consent(led.grant("D", "s", "R", label="c2")).label == "c2"


class TestEquivalenceInQueries:
    def test_equivalent_names_answer_identically(self):
        led = fresh_ledger()
        led.declare_data("LegacyLocation")
        led.declare_equivalent("LegacyLocation", "Location")
        led.grant("LegacyLocation", ALICE, "Partner")
        via_new = led.check(led.collect_query("DeviceLocation", ALICE, "Partner"))
        via_old = led.check(led.collect_query("LegacyLocation", ALICE, "Partner"))
        assert via_new.authorized and via_old.authorized


DATA_CHOICES = ("Location", "DeviceLocation", "CellLocation", "WalkingRoute")
RECIPIENT_CHOICES = ("Partner", "Advertiser")


class TestModeImplication:
    @settings(max_examples=200)
    @given(
        consent_data=st.sampled_from(DATA_CHOICES),
        consent_rec=st.sampled_from(RECIPIENT_CHOICES),
        query_data=st.sampled_from(DATA_CHOICES),
        query_rec=st.sampled_from(RECIPIENT_CHOICES),
        withdraw=st.booleans(),
        retro=st.booleans(),
    )
    def test_guaranteed_implies_possible(self, consent_data, consent_rec,
                                         query_data, query_rec, withdraw, retro):
        led = fresh_ledger()
        cid = led.grant(consent_data, ALICE, consent_rec, retroactive=retro)
        led.advance()
        if withdraw:
            led.withdraw(cid, retroactive=retro)
        sure = led.check(led.access_query(query_data, ALICE, query_rec,
                                          mode=Mode.GUARANTEED))
        maybe = led.check(led.access_query(query_data, ALICE, query_rec,
                                           mode=Mode.POSSIBLE))
        if sure.authorized:
            assert maybe.authorized

    @settings(max_examples=100)
    @given(
        extra_data=st.sampled_from(DATA_CHOICES),
        extra_rec=st.sampled_from(RECIPIENT_CHOICES),
        extra_retro=st.booleans(),
    )
    def test_extra_grant_never_revokes(self, extra_data, extra_rec, extra_retro):
        led = fresh_ledger()
        led.grant("Location", ALICE, "Partner")
        led.advance()
        query = led.access_query("DeviceLocation", ALICE, "Advertiser")
        assert led.check(query).authorized
        led.grant(extra_data, ALICE, extra_rec, retroactive=extra_retro)
        assert led.check(query).authorized


# -- closed-form coverage against the per-step procedure -----------------------

QUERY_DATA = DATA_CHOICES + ("DrivingRoute", "Contacts", "Impossible")
DENIAL_ORDER = (Reason.CONCEPT_UNSATISFIABLE, Reason.SUBJECT_MISMATCH,
                Reason.NO_MATCHING_CONSENT, Reason.WITHDRAWN_RETRO,
                Reason.WITHDRAWN_NON_RETRO, Reason.OUTSIDE_GRANT_WINDOW)


def oracle_spec(c):
    """The oracle's view of a consent's timing; its concepts play no part."""
    w = c.withdrawal
    return ConsentSpec("D", c.subject, "R", c.granted_at, c.grant_retroactive,
                       None if w is None else w.step, w is not None and w.retroactive)


def per_step_check(led, query):
    """Reference decision: one covering set per collection step.

    This is the procedure `Ledger.check` used before coverage became runs
    of steps; it walks every step of the query and every matching consent.
    Which steps a consent covers comes from the oracle's cells, so nothing
    here reads `ConsentRecord.reach`.
    """
    g = led.ontology
    steps = query.collected_interval.steps()
    if g.is_unsatisfiable(query.data_concept) or \
            g.is_unsatisfiable(query.recipient_concept):
        return {s: frozenset() for s in steps}, Reason.CONCEPT_UNSATISFIABLE

    def covered_steps(c):
        # Uncached: even the oracle's bounded cache would keep dozens of
        # T400 regions, of 80k cells each, from the long-history property.
        t_a = query.access_at
        if query.action is ActionType.COLLECT:
            return oracle_collection_steps.__wrapped__(oracle_spec(c), t_a)
        region = oracle_region.__wrapped__(oracle_spec(c), t_a)
        return {t_c for t_c, col in region if col == t_a}

    def causes(c, step):
        w = c.withdrawal
        if query.action is ActionType.COLLECT:
            early = step < c.granted_at
            cut = w is not None and step >= w.step
        else:
            early = query.access_at < c.granted_at or \
                (not c.grant_retroactive and step < c.granted_at)
            cut = w is not None and (
                query.access_at >= w.step if w.retroactive else step >= w.step)
        found = {Reason.OUTSIDE_GRANT_WINDOW} if early else set()
        if cut:
            found.add(Reason.WITHDRAWN_RETRO if w.retroactive
                      else Reason.WITHDRAWN_NON_RETRO)
        return found

    matching = [c for c in led.consents
                if c.subject == query.subject and concepts_match(g, c, query)]
    covered = {c.id: covered_steps(c) for c in matching}
    coverage = {s: frozenset(cid for cid, cells in covered.items() if s in cells)
                for s in steps}
    if all(coverage.values()):
        return coverage, Reason.OK
    if not matching:
        if any(c.subject != query.subject and concepts_match(g, c, query)
               for c in led.consents):
            return coverage, Reason.SUBJECT_MISMATCH
        return coverage, Reason.NO_MATCHING_CONSENT
    found = set()
    for step, ids in coverage.items():
        if not ids:
            for c in matching:
                found |= causes(c, step)
    return coverage, min(found, key=DENIAL_ORDER.index)


def per_step_coverage(decision):
    """`decision.runs` as one entry per collection step: step -> covering ids."""
    return {step: ids for run, ids in decision.runs for step in run.steps()}


def assert_runs_tile(decision, interval):
    """Runs are in order, contiguous, span the query, and are maximal."""
    runs = decision.runs
    assert runs[0][0].start == interval.start
    assert runs[-1][0].end == interval.end
    for (left, left_ids), (right, right_ids) in zip(runs, runs[1:]):
        assert left.end == right.start
        assert left_ids != right_ids


class TestClosedFormCoverage:
    def test_reach_matches_the_oracle(self):
        horizon = 8
        for g, gr, wr in product(range(1, horizon + 1), (False, True), (False, True)):
            for w in (None, *range(g, horizon + 1)):
                c = record(g, gr, None if w is None else Withdrawal(w, wr))
                spec = oracle_spec(c)
                region = oracle_region(spec, horizon)
                for t_a in range(1, horizon + 1):
                    lo, hi = c.reach(ActionType.ACCESS, t_a)
                    got = {t_c for t_c in range(1, t_a + 1)
                           if lo <= t_c and (hi is None or t_c < hi)}
                    assert got == {t_c for t_c, col in region if col == t_a}, \
                        (g, gr, w, wr, t_a)
                    lo, hi = c.reach(ActionType.COLLECT, t_a)
                    got = {t for t in range(1, horizon + 1)
                           if lo <= t and (hi is None or t < hi)}
                    assert got == oracle_collection_steps(spec, horizon), \
                        (g, gr, w, wr, t_a)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), horizon=st.integers(1, 60))
    def test_matches_per_step_reference(self, data, horizon):
        led = fresh_ledger()
        led.declare_data("Impossible", "WalkingRoute", "DrivingRoute")
        led.declare_subject(CAROL)
        led.declare_subject(DAVE)
        # Half the events land on the query's own step, where cuts bite.
        step_st = st.integers(1, horizon) | st.just(horizon)
        grants = data.draw(st.lists(st.tuples(
            step_st, st.sampled_from(QUERY_DATA), st.sampled_from((ALICE, BOB, CAROL)),
            st.sampled_from(RECIPIENT_CHOICES), st.booleans()), max_size=8))
        withdrawals = data.draw(st.lists(st.tuples(
            step_st, st.integers(0, 7), st.booleans()), max_size=6))
        plan = sorted([(step, 0, grant) for step, *grant in grants] +
                      [(step, 1, cut) for step, *cut in withdrawals])
        for step, kind, args in plan:
            while led.now < step:
                led.advance()
            if kind == 0:
                concept, subject, recipient, retro = args
                led.grant(concept, subject, recipient, retroactive=retro)
            else:
                index, retro = args
                if index < len(led.consents) and led.consents[index].withdrawal is None:
                    led.withdraw(index, retroactive=retro)
        while led.now < horizon:
            led.advance()
        mode = data.draw(st.sampled_from(Mode))
        # Dave holds no consent: the subject index misses, and every pair
        # another subject holds is a SUBJECT_MISMATCH candidate.
        subject = data.draw(st.sampled_from((ALICE, BOB, CAROL, DAVE)))
        query_data = data.draw(st.sampled_from(QUERY_DATA))
        recipient = data.draw(st.sampled_from(RECIPIENT_CHOICES))
        if data.draw(st.booleans()):
            query = led.collect_query(query_data, subject, recipient, mode=mode)
        else:
            lo = data.draw(st.integers(1, led.now))
            hi = data.draw(st.integers(lo, led.now))
            query = led.access_query(query_data, subject, recipient,
                                     StepInterval(lo, hi + 1), mode=mode)
            # Any access step from the interval's end on is a valid query.
            query = query._replace(access_at=data.draw(st.integers(hi, led.now)))
        decision = led.check(query)
        coverage, reason = per_step_check(led, query)
        assert per_step_coverage(decision) == coverage
        assert decision.reason is reason
        assert decision.authorized == (reason is Reason.OK)
        assert_runs_tile(decision, query.collected_interval)

    @settings(max_examples=40, deadline=None)
    @given(consents=st.lists(
        st.tuples(st.integers(1, 400), st.booleans(),
                  st.one_of(st.none(), st.integers(0, 400)), st.booleans()),
        min_size=1, max_size=12))
    def test_runs_stay_few_over_long_history(self, consents):
        # Memory per recorded event must not grow with history length: an
        # all-history access at T400 keeps at most 2k + 1 runs for k consents.
        led = fresh_ledger()
        plan = []
        for i, (granted, retro, lasts, withdraw_retro) in enumerate(consents):
            plan.append((granted, 0, i, retro))
            if lasts is not None and granted + lasts <= 400:
                plan.append((granted + lasts, 1, i, withdraw_retro))
        ids = {}
        for step, kind, i, retro in sorted(plan):
            while led.now < step:
                led.advance()
            if kind == 0:
                ids[i] = led.grant("Location", ALICE, "Partner", retroactive=retro)
            else:
                led.withdraw(ids[i], retroactive=retro)
        led.grant("Contacts", ALICE, "Partner")
        led.grant("Location", BOB, "Partner")
        while led.now < 400:
            led.advance()
        event = led.record_event(ActionType.ACCESS, "DeviceLocation", ALICE,
                                 "Advertiser")
        decision = event.verdict
        assert event.query.collected_interval == StepInterval(1, 401)
        assert len(decision.runs) <= 2 * len(consents) + 1
        assert_runs_tile(decision, event.query.collected_interval)
        query = led.access_query("DeviceLocation", ALICE, "Advertiser")
        assert (per_step_coverage(decision), decision.reason) == per_step_check(led, query)


# -- the cover-and-clip kernel against the cut-and-rescan reference -------------

def draw_sweep_query(data):
    """A ledger of two subjects' grants and withdrawals crowding one span,
    and a query over that span: the kernel's hardest cases."""
    led = fresh_ledger()
    led.declare_data("Impossible", "WalkingRoute", "DrivingRoute")
    led.declare_subject(CAROL)
    horizon = data.draw(st.integers(1, 30))
    action = data.draw(st.sampled_from(ActionType))
    if action is ActionType.COLLECT:
        first = last = horizon
    else:
        first = data.draw(st.integers(1, horizon))
        last = data.draw(st.integers(first, horizon))
    # Grants and withdrawals crowd the span's first and last steps.
    step_st = st.integers(1, horizon) | st.sampled_from(
        sorted({first, last, min(last + 1, horizon)}))
    plan = []
    for subject in (ALICE, BOB):
        consents = data.draw(st.lists(st.tuples(
            step_st, st.sampled_from(QUERY_DATA), st.sampled_from(RECIPIENT_CHOICES),
            st.booleans(), st.none() | step_st, st.booleans()), max_size=20))
        for granted, concept, recipient, retro, withdrawn, withdraw_retro in consents:
            key = len(plan)
            plan.append((granted, 0, key, (concept, subject, recipient, retro)))
            if withdrawn is not None:
                plan.append((max(granted, withdrawn), 1, key, withdraw_retro))
    ids = {}
    for step, kind, key, args in sorted(plan, key=lambda p: p[:3]):
        while led.now < step:
            led.advance()
        if kind == 0:
            concept, subject, recipient, retro = args
            ids[key] = led.grant(concept, subject, recipient, retroactive=retro)
        else:
            led.withdraw(ids[key], retroactive=args)
    while led.now < horizon:
        led.advance()
    subject = data.draw(st.sampled_from((ALICE, BOB, CAROL)))
    concepts = (data.draw(st.sampled_from(QUERY_DATA)), subject,
                data.draw(st.sampled_from(RECIPIENT_CHOICES)))
    mode = data.draw(st.sampled_from(Mode))
    if action is ActionType.COLLECT:
        query = led.collect_query(*concepts, mode=mode)
    else:
        query = led.access_query(*concepts, StepInterval(first, last + 1), mode=mode)
        query = query._replace(access_at=data.draw(st.integers(last, horizon)))
    return led, query


class TestSweepKernel:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_the_reference_kernel(self, data):
        led, query = draw_sweep_query(data)
        decision = led._decide(query)
        expected = reference_decide(led, query)
        assert decision.runs == expected.runs
        assert decision.authorized == expected.authorized
        assert decision.reason is expected.reason

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_every_run_is_a_valid_interval_inside_the_span(self, data):
        # Runs skip StepInterval's check, so the cover and the clip must keep it.
        led, query = draw_sweep_query(data)
        span = query.collected_interval
        for run, _ in led._decide(query).runs:
            assert type(run) is StepInterval
            assert span.start <= run.start < run.end <= span.end
            assert StepInterval(*run) == run

    def test_consents_handing_over_at_one_step_leave_no_empty_run(self):
        led = fresh_ledger()
        first = led.grant("Location", ALICE, "Partner")            # T1
        led.advance()
        led.advance()
        led.withdraw(first)                                        # T3
        second = led.grant("Location", ALICE, "Partner")           # T3
        led.advance()                                              # T4
        query = led.access_query("Location", ALICE, "Partner")
        decision = led.check(query)
        assert decision == Decision((
            (StepInterval(1, 3), frozenset({first})),
            (StepInterval(3, 5), frozenset({second})),
        ), Reason.OK)
        assert decision == reference_decide(led, query)

    def test_retro_withdrawal_with_an_empty_clipped_reach_still_counts(self):
        # At T5 the second consent's reach is [T3, T1): no end of it enters
        # the cover's runs, yet its retroactive withdrawal outranks the first's.
        led = fresh_ledger()
        kept = led.grant("Location", ALICE, "Partner")             # T1
        led.advance()
        led.withdraw(kept)                                         # T2, non-retro
        led.advance()
        cut = led.grant("Location", ALICE, "Partner")              # T3
        led.advance()
        led.withdraw(cut, retroactive=True)                        # T4
        led.advance()                                              # T5
        query = led.access_query("Location", ALICE, "Partner", StepInterval(1, 3))
        assert led.consent(cut).reach(ActionType.ACCESS, 5) == (3, 1)
        decision = led.check(query)
        assert decision.runs == ((StepInterval(1, 2), frozenset({kept})),
                                 (StepInterval(2, 3), frozenset()))
        assert decision.reason is Reason.WITHDRAWN_RETRO
        assert decision == reference_decide(led, query)

    @pytest.mark.parametrize("end, reason", [(4, Reason.OUTSIDE_GRANT_WINDOW),
                                             (6, Reason.WITHDRAWN_NON_RETRO)])
    def test_a_cause_is_judged_at_the_spans_last_step_inside_a_longer_gap(self, end,
                                                                        reason):
        # The empty run [T1, T10) outlasts the span, so the last uncovered step
        # is the span's, not T9: the consent granted and withdrawn at T5 has an
        # empty reach, and its cut counts only once the span reaches T5.
        led = fresh_ledger()
        led.advance(4)
        led.withdraw(led.grant("Location", ALICE, "Partner"))      # T5
        led.advance(5)
        led.grant("Location", ALICE, "Partner")                    # T10
        query = led.access_query("Location", ALICE, "Partner", StepInterval(3, end))
        decision = led.check(query)
        assert decision == Decision(((StepInterval(3, end), frozenset()),), reason)
        assert decision == reference_decide(led, query)

    def test_a_gap_that_starts_where_the_span_ends_leaves_it_covered(self):
        led = fresh_ledger()
        cid = led.grant("Location", ALICE, "Partner")              # T1
        led.advance(2)
        led.withdraw(cid)                                          # T3
        led.advance(2)                                             # T5
        query = led.access_query("Location", ALICE, "Partner", StepInterval(1, 3))
        decision = led.check(query)
        assert decision == Decision(((StepInterval(1, 3), frozenset({cid})),), Reason.OK)
        assert decision == reference_decide(led, query)

    def test_a_withdrawal_where_the_gap_ends_does_not_explain_it(self):
        # Over [T1, T4) at T5 the last uncovered step is T2. The consent
        # granted and withdrawn at T3 reaches [T3, T3): it was withdrawn
        # only past T2, so T2 is outside every grant window.
        led = fresh_ledger()
        led.advance(2)
        empty = led.grant("Location", ALICE, "Partner")            # T3
        led.withdraw(empty)                                        # T3
        kept = led.grant("Location", ALICE, "Partner")             # T3
        led.advance(2)                                             # T5
        query = led.access_query("Location", ALICE, "Partner", StepInterval(1, 4))
        decision = led.check(query)
        assert decision == Decision(((StepInterval(1, 3), frozenset()),
                                     (StepInterval(3, 4), frozenset({kept}))),
                                    Reason.OUTSIDE_GRANT_WINDOW)
        assert decision == reference_decide(led, query)

    @pytest.mark.parametrize("causes, reason", [
        ({"retro", "plain", "window"}, Reason.WITHDRAWN_RETRO),
        ({"retro", "window"}, Reason.WITHDRAWN_RETRO),
        ({"plain", "window"}, Reason.WITHDRAWN_NON_RETRO),
        ({"window"}, Reason.OUTSIDE_GRANT_WINDOW),
    ])
    def test_retro_outranks_plain_outranks_window(self, causes, reason):
        # Over [T1, T6) at T5 the last uncovered step is T3: the plain
        # withdrawal at T2 fails it by withdrawal, the T4 grant by its
        # window, and the retroactive withdrawal at T3 fails every step.
        led = fresh_ledger()
        if "plain" in causes:
            plain = led.grant("Location", ALICE, "Partner")        # T1
        led.advance()
        if "plain" in causes:
            led.withdraw(plain)                                    # T2
        if "retro" in causes:
            retro = led.grant("Location", ALICE, "Partner")        # T2
        led.advance()
        if "retro" in causes:
            led.withdraw(retro, retroactive=True)                  # T3
        led.advance()
        led.grant("Location", ALICE, "Partner")                    # T4, the window
        led.advance()                                              # T5
        query = led.access_query("Location", ALICE, "Partner")
        decision = led.check(query)
        assert not decision.authorized
        assert decision.reason is reason
        assert decision == reference_decide(led, query)


# -- work per check: flat in the number of subjects ------------------------------

OTHER_PAIRS = list(product(("Location", "Contacts", "WalkingRoute", "DrivingRoute",
                            "CellLocation"), ("Partner", "Advertiser")))


def crowded_ledger(others=1000):
    """Alice holds three consents; `others` more sit with 100 other subjects
    on the ten concept pairs of OTHER_PAIRS. Carol is known but holds none."""
    led = fresh_ledger()
    led.declare_subject(CAROL)
    led.grant("Location", ALICE, "Partner")
    led.grant("Contacts", ALICE, "Advertiser")
    led.grant("WalkingRoute", ALICE, "Advertiser")
    for i in range(others):
        data, recipient = OTHER_PAIRS[i % len(OTHER_PAIRS)]
        led.grant(data, f"s{i % 100}", recipient)
    return led


class VisitLog(dict):
    """A data -> recipients-mask index that logs each data concept the
    matching walk reads from it."""

    def __init__(self, masks, visits):
        super().__init__(masks)
        self.visits = visits

    def __getitem__(self, data):
        self.visits.append(data)
        return super().__getitem__(data)


def count_work(led, monkeypatch):
    """Log the data concepts the matching walk visits in each subject's own
    index ("own", by subject) and in the index of every subject's pairs
    ("all"), and count each kind check."""
    calls = {"own": {}, "all": [], "kind": 0}
    every = led._all_pairs
    monkeypatch.setattr(every, "by_data", VisitLog(every.by_data, calls["all"]))
    for subject, own in led._by_subject.items():
        calls["own"][subject] = []
        monkeypatch.setattr(own, "by_data", VisitLog(own.by_data, calls["own"][subject]))
    kind_of = led.ontology.kind_of

    def counted_kind_of(cid):
        calls["kind"] += 1
        return kind_of(cid)

    monkeypatch.setattr(led.ontology, "kind_of", counted_kind_of)
    return calls


def clear_visits(calls):
    calls["all"].clear()
    for visits in calls["own"].values():
        visits.clear()


def pairs_of(led, subject=None):
    """The distinct (data, recipient) pairs of the ledger's consents, or of
    one subject's."""
    return {(c.data_concept, c.recipient_concept) for c in led.consents
            if subject is None or c.subject == subject}


def filed_ancestors(led, data, subject=None):
    """The data concepts that file a pair, of all subjects or of one, and
    are ancestors of `data`: all that a guaranteed-mode walk may visit."""
    return {d for d, _ in pairs_of(led, subject) if led.ontology.subsumes(d, data)}


QUERIES = (  # (data, subject, recipient, expected reason)
    ("DeviceLocation", ALICE, "Advertiser", Reason.OK),
    ("DrivingRoute", ALICE, "Partner", Reason.SUBJECT_MISMATCH),
    ("Data", ALICE, "Partner", Reason.NO_MATCHING_CONSENT),
    ("Location", CAROL, "Partner", Reason.SUBJECT_MISMATCH),
    ("Data", CAROL, "Partner", Reason.NO_MATCHING_CONSENT),
)


class TestCheckWork:
    """The matching walk's work, as the data concepts it visits: one read of
    a data concept's recipients mask from an index per visit."""

    @pytest.mark.parametrize("data, subject, recipient, reason", QUERIES)
    def test_own_work_is_flat_and_a_denial_visits_only_filed_ancestors(
            self, monkeypatch, data, subject, recipient, reason):
        visited = []
        for others in (0, 1000):
            led = crowded_ledger(others)
            calls = count_work(led, monkeypatch)
            query = led.collect_query(data, subject, recipient)
            decision = led.check(query)
            visited.append(calls["own"][subject])
        assert decision.reason is reason
        assert visited[0] == visited[1]
        assert sorted(visited[1]) == sorted(filed_ancestors(led, query.data_concept, subject))
        if reason is Reason.OK:
            assert calls["all"] == []
        else:
            assert len(calls["all"]) == len(set(calls["all"]))
            assert set(calls["all"]) <= filed_ancestors(led, query.data_concept)

    def test_a_pair_is_visited_once_however_many_consents_it_files(self, monkeypatch):
        led = crowded_ledger()
        ids = {led.grant("Location", "erin", "Partner") for _ in range(3)}
        calls = count_work(led, monkeypatch)
        decision = led.check(led.collect_query("DeviceLocation", "erin", "Advertiser"))
        assert decision.runs == ((StepInterval.single(1), frozenset(ids)),)
        assert decision.reason is Reason.OK
        assert calls["own"]["erin"] == [led.ontology.lookup("Location")]
        assert calls["all"] == []

    def test_a_possible_mode_denial_stops_at_the_first_pair_that_applies(self, monkeypatch):
        # Possible mode walks every filed data concept; Location, the lowest,
        # is not disjoint from Contacts, so its pair settles the mismatch.
        led = crowded_ledger()
        calls = count_work(led, monkeypatch)
        query = led.collect_query("Contacts", CAROL, "Partner", Mode.POSSIBLE)
        assert led.check(query).reason is Reason.SUBJECT_MISMATCH
        assert len({d for d, _ in pairs_of(led)}) == 5
        assert calls["all"] == [led.ontology.lookup("Location")]

    @pytest.mark.parametrize("data, subject, recipient, reason", QUERIES)
    def test_kinds_are_checked_once_per_query(self, monkeypatch, data, subject,
                                              recipient, reason):
        counts = []
        for others in (0, 1000):
            led = crowded_ledger(others)
            query = led.collect_query(data, subject, recipient)
            calls = count_work(led, monkeypatch)
            led.check(query)
            counts.append(calls["kind"])
        assert counts[0] == counts[1]

    def test_a_denial_walks_filed_ancestors_and_a_repeat_walks_neither_index(
            self, monkeypatch):
        # A denial's first ask walks only filed ancestors. A repeat walks
        # neither index until one gains a pair or a declaration rewrites
        # masks, and then only the indexes whose answers that dropped.
        led = crowded_ledger()
        led.declare_data("Email")
        calls = count_work(led, monkeypatch)
        denials = [(led.collect_query(data, subject, recipient), reason)
                   for data, subject, recipient, reason in QUERIES if reason is not Reason.OK]

        def asks(own_walks, all_walks):
            """Each denial, asked twice. The first ask walks the subject's own
            index if the subject is in `own_walks`, and the index of every
            pair if `all_walks` and no denial before it asked of the same
            concepts; the repeat walks nothing."""
            asked = set()
            for query, reason in denials:
                concepts = query.data_concept, query.recipient_concept
                for first in (True, False):
                    clear_visits(calls)
                    assert led.check(query).reason is reason
                    own, every = calls["own"][query.subject], calls["all"]
                    if first and query.subject in own_walks:
                        assert set(own) == filed_ancestors(led, query.data_concept,
                                                           query.subject)
                    else:
                        assert own == []
                    if first and all_walks and concepts not in asked:
                        filed = filed_ancestors(led, query.data_concept)
                        assert set(every) <= filed
                        assert set(every) == filed if reason is Reason.NO_MATCHING_CONSENT \
                            else every
                    else:
                        assert every == []
                asked.add(concepts)

        asks({ALICE, CAROL}, True)
        asks(set(), False)
        led.declare_data("Fresh", "Location")  # a fresh concept rewrites no mask
        asks(set(), False)
        led.grant("Contacts", "s1", "Partner")  # a pair already filed
        led.withdraw(len(led.consents) - 1)
        asks(set(), False)
        # New pairs under every query's data concept, which apply to none.
        led.grant("Data", "s1", "Advertiser")  # another subject's
        asks(set(), True)
        led.grant("Data", CAROL, "Advertiser")  # Carol's, which s1 filed first
        asks({CAROL}, False)
        led.declare_data("Email", "Contacts")  # a new parent rewrites masks
        asks({ALICE, CAROL}, True)

    def test_a_grant_is_seen_by_the_next_denial_visiting_only_filed_ancestors(
            self, monkeypatch):
        led = crowded_ledger()
        led.declare_data("Email")
        calls = count_work(led, monkeypatch)
        query = led.collect_query("Data", CAROL, "Partner")

        def check(reason):
            clear_visits(calls)
            assert led.check(query).reason is reason
            assert set(calls["all"]) == filed_ancestors(led, query.data_concept)

        check(Reason.NO_MATCHING_CONSENT)
        led.grant("Contacts", "s1", "Partner")  # a pair already granted
        check(Reason.NO_MATCHING_CONSENT)
        led.grant("Email", "s1", "Partner")  # a new pair, which fails
        check(Reason.NO_MATCHING_CONSENT)
        led.grant("Data", "s1", "Partner")  # a new pair, which passes
        check(Reason.SUBJECT_MISMATCH)
        led.grant("Email", "s2", "Advertiser")
        check(Reason.SUBJECT_MISMATCH)

    @pytest.mark.parametrize("mode", Mode)
    def test_no_data_concept_is_visited_twice_in_one_index(self, monkeypatch, mode):
        # Alice's one pair is filed under Location, an ancestor of the first
        # query's data, so a guaranteed denial's walk over every subject's
        # pairs visits it after her own walk has.
        lone = fresh_ledger()
        lone.grant("Location", ALICE, "Advertiser")
        for led, queries in ((lone, [("DeviceLocation", ALICE, "Partner")]),
                             (crowded_ledger(), [query[:3] for query in QUERIES])):
            calls = count_work(led, monkeypatch)
            for data, subject, recipient in queries:
                clear_visits(calls)
                led.check(led.collect_query(data, subject, recipient, mode))
                for visits in (calls["own"][subject], calls["all"]):
                    assert len(visits) == len(set(visits)), (data, subject, recipient)

    @pytest.mark.parametrize("action", ActionType)
    def test_one_reach_per_matching_consent(self, monkeypatch, action):
        led = crowded_ledger()
        led.grant("DeviceLocation", ALICE, "Advertiser", retroactive=True)
        led.advance()
        reach = ConsentRecord.reach
        calls = []

        def counted(consent, *args):
            calls.append(consent.id)
            return reach(consent, *args)
        monkeypatch.setattr(ConsentRecord, "reach", counted)

        def decide():
            calls.clear()
            if action is ActionType.COLLECT:
                return led.check(led.collect_query("DeviceLocation", ALICE, "Advertiser"))
            return led.check(led.access_query("DeviceLocation", ALICE, "Advertiser"))
        matching = [0, len(led.consents) - 1]  # Location/Partner and the new grant
        assert decide().authorized
        assert sorted(calls) == matching
        led.withdraw(0)
        led.withdraw(matching[1], retroactive=True)
        assert decide().reason is Reason.WITHDRAWN_RETRO
        assert sorted(calls) == matching

    def test_resolve_runs_only_for_a_concept_that_fails_the_inline_check(self, monkeypatch):
        led = crowded_ledger()
        resolve = led.ontology.resolve
        calls = []

        def counted(ref, kind=None):
            calls.append(ref)
            return resolve(ref, kind)

        monkeypatch.setattr(led.ontology, "resolve", counted)
        led.advance()
        for data, subject, recipient, _ in QUERIES:
            for action in ActionType:
                led.record_event(action, data, subject, recipient)
        # `check` still validates its query at entry, inline.
        query = led.collect_query("Location", ALICE, "Partner")
        led.check(query)
        assert calls == []
        # An id handed to a query builder is read by `resolve`.
        assert led.collect_query(query.data_concept, ALICE, "Partner") == query
        assert calls == [query.data_concept]
        # A concept that fails the inline check is refused by `resolve`.
        for data, recipient, error in (("Nowhere", "Partner", UnknownConceptError),
                                       ("Location", "Location", KindMismatchError)):
            del calls[:]
            with pytest.raises(error):
                led.record_event(ActionType.COLLECT, data, ALICE, recipient)
            assert calls == [data if error is UnknownConceptError else recipient]
        for field, ref, error in (("recipient_concept", query.data_concept, KindMismatchError),
                                  ("data_concept", len(led.ontology), UnknownConceptError),
                                  ("data_concept", True, UnknownConceptError)):
            del calls[:]
            with pytest.raises(error):
                led.check(query._replace(**{field: ref}))
            assert calls == [ref]
        with pytest.raises(UnknownSubjectError):
            led.check(query._replace(subject="nobody"))
        with pytest.raises(QueryError):
            led.check(query._replace(collected_interval=StepInterval(1, 3)))


# -- covers kept per pair ------------------------------------------------------------

class TestPairCovers:
    @pytest.mark.parametrize("historical_first", [True, False])
    def test_a_historical_check_never_reads_a_cover(self, historical_first):
        # At T3 the retroactive withdrawal at T5 is not yet in force, so the
        # grant still covers [T1, T3); from T5 on it covers nothing.
        led = fresh_ledger()
        cid = led.grant("Location", ALICE, "Partner")              # T1
        led.advance(4)
        led.withdraw(cid, retroactive=True)                        # T5
        now = led.access_query("Location", ALICE, "Partner", StepInterval(1, 3))
        then = now._replace(access_at=3)
        order = [then, now] if historical_first else [now, then]
        decisions = {query.access_at: led.check(query) for query in order}
        assert decisions[3] == Decision(((StepInterval(1, 3), frozenset({cid})),), Reason.OK)
        assert decisions[5].reason is Reason.WITHDRAWN_RETRO
        for query in order:
            assert decisions[query.access_at] == reference_decide(led, query)

    def test_a_past_check_builds_its_own_cover_and_keeps_the_present_one(self, monkeypatch):
        led = fresh_ledger()
        first = led.grant("Location", ALICE, "Partner")                     # T1
        led.advance(2)
        second = led.grant("Location", ALICE, "Partner", retroactive=True)  # T3
        led.advance(3)                                                      # T6
        now = led.access_query("Location", ALICE, "Partner")
        then = led.access_query("Location", ALICE, "Partner", StepInterval(1, 5))
        then = then._replace(access_at=4)
        expected = {query: reference_decide(led, query) for query in (now, then)}
        assert led.check(now) == expected[now]  # builds the pair's kept cover
        reach = ConsentRecord.reach
        calls = []

        def counted(consent, *args):
            calls.append(consent.id)
            return reach(consent, *args)
        monkeypatch.setattr(ConsentRecord, "reach", counted)
        assert led.check(then) == expected[then]
        assert sorted(calls) == [first, second]
        calls.clear()
        assert led.check(now) == expected[now]
        assert calls == []

    # Writes after which a query on DeviceLocation, which ALICE's pairs
    # Location/Partner and DeviceLocation/Partner both match, must or must not
    # rebuild its cover. Contacts/Partner is her third pair, which it does not.
    WRITES = {
        "grant-first": (lambda led: led.grant("Location", ALICE, "Partner"), True),
        "grant-second": (lambda led: led.grant("DeviceLocation", ALICE, "Partner",
                                               retroactive=True), True),
        "withdraw-first": (lambda led: led.withdraw("first"), True),
        "withdraw-second": (lambda led: led.withdraw("second", retroactive=True), True),
        "grant-third": (lambda led: led.grant("Contacts", ALICE, "Partner"), False),
        "withdraw-third": (lambda led: led.withdraw("third", retroactive=True), False),
        "grant-other-subject": (lambda led: led.grant("Location", BOB, "Partner"), False),
        "declare-concept": (lambda led: led.declare_data("Fresh", "Location"), False),
        "declare-disjoint": (lambda led: led.declare_disjoint("Contacts", "WalkingRoute"),
                             False),
    }

    @pytest.mark.parametrize("write", WRITES)
    @pytest.mark.parametrize("action", list(ActionType), ids=lambda a: a.value)
    def test_a_cover_two_pairs_match_is_kept_until_a_write_on_one(self, monkeypatch,
                                                                  action, write):
        led = fresh_ledger()
        led.grant("Location", ALICE, "Partner", label="first")             # T1
        led.advance()
        led.grant("DeviceLocation", ALICE, "Partner", label="second")      # T2
        led.grant("Contacts", ALICE, "Partner", label="third")
        led.advance()                                                      # T3
        graph = led.ontology
        matched = {graph.lookup("Location"), graph.lookup("DeviceLocation")}
        reach = ConsentRecord.reach
        calls = []

        def counted(consent, *args):
            calls.append(consent.id)
            return reach(consent, *args)

        def reaches():
            """The consents a decision at the present reads a reach of."""
            ask = led.access_query if action is ActionType.ACCESS else led.collect_query
            query = ask("DeviceLocation", ALICE, "Advertiser")
            calls.clear()
            decision = led.check(query)
            read = sorted(calls)
            assert decision == reference_decide(led, query)
            return read

        def rebuilt():
            return sorted(c.id for c in led.consents
                          if c.subject == ALICE and c.data_concept in matched)

        monkeypatch.setattr(ConsentRecord, "reach", counted)
        assert reaches() == rebuilt() == [0, 1]
        assert reaches() == []
        led.advance()                                                      # T4
        assert reaches() == []
        apply, rebuilds = self.WRITES[write]
        apply(led)
        assert reaches() == (rebuilt() if rebuilds else [])
        assert reaches() == []

    @pytest.mark.parametrize("write", WRITES)
    def test_a_collect_and_an_access_on_the_same_pairs_keep_a_cover_each(self, monkeypatch,
                                                                         write):
        # One map holds both actions' covers: the key names the action, so a
        # collect's cover never answers an access on the same pairs, and a
        # write on a matched pair drops both.
        led = fresh_ledger()
        led.grant("Location", ALICE, "Partner", label="first")             # T1
        led.advance()
        led.grant("DeviceLocation", ALICE, "Partner", label="second")      # T2
        led.grant("Contacts", ALICE, "Partner", label="third")
        led.advance()                                                      # T3
        graph = led.ontology
        matched = {graph.lookup("Location"), graph.lookup("DeviceLocation")}
        reach = ConsentRecord.reach
        calls = []

        def counted(consent, *args):
            calls.append(consent.id)
            return reach(consent, *args)

        def reaches():
            """The consents a collect, then an access, at the present read a
            reach of."""
            read = []
            for ask in (led.collect_query, led.access_query):
                query = ask("DeviceLocation", ALICE, "Advertiser")
                calls.clear()
                decision = led.check(query)
                read.append(sorted(calls))
                assert decision == reference_decide(led, query)
            return read

        def rebuilt():
            return sorted(c.id for c in led.consents
                          if c.subject == ALICE and c.data_concept in matched)

        monkeypatch.setattr(ConsentRecord, "reach", counted)
        assert reaches() == [[0, 1], [0, 1]]
        assert reaches() == [[], []]
        apply, rebuilds = self.WRITES[write]
        apply(led)
        assert reaches() == ([rebuilt(), rebuilt()] if rebuilds else [[], []])
        assert reaches() == [[], []]

    def test_realistic_decisions_reach_only_to_rebuild_a_cover(self, monkeypatch):
        # `realistic` files every consent on one pair, so each action's first
        # decision after a grant or withdrawal rebuilds the pair's cover, one
        # reach per consent, and every other decision clips a kept cover.
        stale = set(ActionType)  # the actions whose cover a write dropped
        reaches = []
        reach, decide = ConsentRecord.reach, Ledger._decide
        rebuilt = []

        def on_write(write):
            def written(led, *args, **kwargs):
                stale.update(ActionType)
                return write(led, *args, **kwargs)
            return written

        def counted(consent, *args):
            reaches.append(consent.id)
            return reach(consent, *args)

        def decided(led, query):
            reaches.clear()
            decision = decide(led, query)
            if query.action in stale:
                stale.discard(query.action)
                assert sorted(reaches) == [c.id for c in led.consents]
                rebuilt.append(query.action)
            else:
                assert reaches == [], query
            return decision
        monkeypatch.setattr(Ledger, "grant", on_write(Ledger.grant))
        monkeypatch.setattr(Ledger, "withdraw", on_write(Ledger.withdraw))
        monkeypatch.setattr(ConsentRecord, "reach", counted)
        monkeypatch.setattr(Ledger, "_decide", decided)
        step = bench._setup_realistic(bench.BenchScenario("realistic", 2000, seed=7))
        for i in range(1, 2001):
            step(i)
        # The baseline grant and 22 withdraw-and-regrant cycles, both actions.
        assert len(rebuilt) == 2 * (1 + 2000 // bench.CHURN_EVERY)


# -- matches and denials kept per question ------------------------------------------

class TestKeptMatches:
    """A subject keeps the pairs each question matched, and the ledger each
    denial's reason, until an index gains a pair or a declaration rewrites
    masks: a read repeated across any write equals a fresh scan."""

    # Writes that change a read's verdict: the write, the read (data,
    # subject, recipient, mode) and its reasons before and after.
    FLIPS = {
        "own-pair": (lambda led: led.grant("Contacts", ALICE, "Partner", retroactive=True),
                     ("Contacts", ALICE, "Partner", Mode.GUARANTEED),
                     Reason.NO_MATCHING_CONSENT, Reason.OK),
        "other-subject-pair": (lambda led: led.grant("Contacts", BOB, "Partner"),
                               ("Contacts", ALICE, "Partner", Mode.GUARANTEED),
                               Reason.NO_MATCHING_CONSENT, Reason.SUBJECT_MISMATCH),
        "new-parent": (lambda led: led.declare_data("Contacts", "Location"),
                       ("Contacts", ALICE, "Partner", Mode.GUARANTEED),
                       Reason.NO_MATCHING_CONSENT, Reason.OK),
        "equivalence": (lambda led: led.declare_equivalent("Contacts", "Location"),
                        ("Contacts", ALICE, "Partner", Mode.GUARANTEED),
                        Reason.NO_MATCHING_CONSENT, Reason.OK),
        "disjointness": (lambda led: led.declare_disjoint("Contacts", "Location"),
                         ("Contacts", ALICE, "Partner", Mode.POSSIBLE),
                         Reason.OK, Reason.NO_MATCHING_CONSENT),
    }

    @staticmethod
    def ledger():
        led = fresh_ledger()
        led.grant("Location", ALICE, "Partner")                    # T1
        led.advance()                                              # T2
        return led

    @pytest.mark.parametrize("write", FLIPS)
    @pytest.mark.parametrize("action", list(ActionType), ids=lambda a: a.value)
    def test_a_repeated_read_sees_a_write_that_changes_its_match(self, action, write):
        apply, (data, subject, recipient, mode), before, after = self.FLIPS[write]
        led = self.ledger()
        ask = led.access_query if action is ActionType.ACCESS else led.collect_query
        for reason in (before, after):
            for _ in range(2):
                query = ask(data, subject, recipient, mode=mode)
                decision = led.check(query)
                assert decision.reason is reason
                assert decision == reference_decide(led, query)
            if reason is before:
                apply(led)

    # Writes that change no match: a fresh concept, a regrant on a pair
    # already filed and a withdrawal.
    STILL = {
        "fresh-concept": lambda led: led.declare_data("Fresh", "Location"),
        "regrant": lambda led: led.grant("Location", ALICE, "Partner"),
        "withdrawal": lambda led: led.withdraw(0, retroactive=True),
    }
    READS = [  # (data, subject, recipient, mode)
        ("DeviceLocation", ALICE, "Advertiser", Mode.GUARANTEED),
        ("Contacts", ALICE, "Partner", Mode.GUARANTEED),
        ("Contacts", ALICE, "Partner", Mode.POSSIBLE),
        ("Location", BOB, "Partner", Mode.GUARANTEED),
    ]

    @pytest.mark.parametrize("write", STILL)
    def test_a_write_that_changes_no_match_leaves_the_repeat_walking_nothing(
            self, monkeypatch, write):
        led = self.ledger()
        calls = count_work(led, monkeypatch)
        queries = [ask(data, subject, recipient, mode=mode)
                   for data, subject, recipient, mode in self.READS
                   for ask in (led.collect_query, led.access_query)]
        for query in queries:
            led.check(query)
        self.STILL[write](led)
        for query in queries:
            clear_visits(calls)
            assert led.check(query) == reference_decide(led, query)
            assert calls["own"][query.subject] == calls["all"] == []


# -- the subject-mismatch index against a full rescan ------------------------------

MEMO_DATA = ["A", "B", "C", "D", "E"]
MEMO_RECIPIENTS = ["Partner", "Advertiser", "Broker"]
MEMO_SUBJECTS = [ALICE, BOB]
memo_data_st = st.sampled_from(MEMO_DATA)
memo_recipient_st = st.sampled_from(MEMO_RECIPIENTS)
memo_steps = st.lists(st.one_of(
    st.tuples(st.just("grant"), memo_data_st, st.sampled_from(MEMO_SUBJECTS),
              memo_recipient_st, st.booleans()),
    st.tuples(st.just("advance"), st.integers(1, 3)),
    st.tuples(st.just("concept"), memo_data_st),
    st.tuples(st.just("parents"), memo_data_st,
              st.lists(memo_data_st, min_size=1, max_size=2)),
    st.tuples(st.just("equivalent"), memo_data_st, memo_data_st),
    st.tuples(st.just("disjoint"), st.lists(memo_data_st, min_size=2, max_size=3)),
    st.tuples(st.just("recipient_parent"), memo_recipient_st, memo_recipient_st),
    st.tuples(st.just("recipient_disjoint"), st.lists(memo_recipient_st, min_size=2,
                                                      max_size=3, unique=True),
              memo_data_st),
    st.tuples(st.just("event"), memo_data_st, st.sampled_from(MEMO_SUBJECTS)),
    st.tuples(st.just("withdraw"), st.booleans()),  # the consent is drawn as it runs
), min_size=3, max_size=15)


class TestPairIndexMatchesARescan:
    """Every decision read from the pair index, its covers and its kept
    matches equals a fresh full scan, as the clock, grants, declarations and withdrawals come and go."""

    @staticmethod
    def step(led, op, fresh, draw):
        kind, *args = op
        try:
            if kind == "grant":
                data, subject, recipient, retro = args
                led.grant(data, subject, recipient, retroactive=retro)
            elif kind == "advance":
                led.advance(args[0])
            elif kind == "concept":  # a new concept, under an existing one
                led.declare_data(f"N{next(fresh)}", args[0])
            elif kind == "parents":  # fresh parents widen the ancestor masks
                name, parents = args
                led.declare_data(name, *parents)
            elif kind == "equivalent":  # may be refused for recorded events
                led.declare_equivalent(*args)
            elif kind == "disjoint":
                led.declare_disjoint(*args[0])
            elif kind == "recipient_parent":  # widens recipients' ancestor masks
                led.declare_recipient(*args)
            elif kind == "recipient_disjoint":  # sets recipients' forbid masks
                # The queried subject's consents on each side, so that a
                # possible-mode query on one side meets pairs on the others
                # that it must not match.
                names, data = args
                for name in names:
                    led.grant(data, ALICE, name)
                led.declare_disjoint(*names)
            elif kind == "event":
                led.record_event(ActionType.COLLECT, args[0], args[1], "Partner")
            elif led.consents:  # a withdrawal of one of the ledger's consents
                ref = draw(st.integers(0, len(led.consents) - 1))
                led.withdraw(ref, retroactive=args[0])
        except (ConsistencyError, AlreadyWithdrawnError):
            pass

    @staticmethod
    def queries(led, data, subject, recipient, mode):
        """A collect now; an access asked two steps past now over every step
        up to it, put before the accesses now so that it is the one to fill
        a kept cover; accesses now over the head, middle and tail thirds of
        history; an access over its first half, at that half's end; and one
        asked between the ledger's latest grant or withdrawal and now."""
        now = led.now
        yield led.collect_query(data, subject, recipient, mode)
        ahead = led.access_query(data, subject, recipient, StepInterval(1, now + 3), mode)
        yield ahead._replace(access_at=now + 2)
        cuts = sorted({1, 1 + now // 3, 1 + 2 * now // 3, now + 1})
        for start, end in zip(cuts, cuts[1:]):
            yield led.access_query(data, subject, recipient, StepInterval(start, end), mode)
        half = max(1, now // 2)
        if half < now:
            query = led.access_query(data, subject, recipient, StepInterval(1, half + 1), mode)
            yield query._replace(access_at=half)
        written = max([c.granted_at for c in led.consents]
                      + [c.withdrawal.step for c in led.consents if c.withdrawal], default=1)
        if written < now:
            between = (written + now) // 2
            query = led.access_query(data, subject, recipient, StepInterval(1, between + 1), mode)
            yield query._replace(access_at=between)

    @classmethod
    def agree(cls, led):
        names = [c.name for c in led.ontology.concepts()
                 if c.kind is ConceptKind.DATA]
        for data, recipient, mode, subject in product(
                names, MEMO_RECIPIENTS, Mode, (ALICE, CAROL)):
            for query in cls.queries(led, data, subject, recipient, mode):
                assert led.check(query) == reference_decide(led, query), query

    @staticmethod
    def stranger(led, draw):
        """One event decided for a subject the ledger has never seen: with no
        file of its own, its read goes straight to the kept denials."""
        names = [c.name for c in led.ontology.concepts() if c.kind is ConceptKind.DATA]
        action = draw(st.sampled_from(ActionType))
        data, recipient = draw(st.sampled_from(names)), draw(memo_recipient_st)
        decision = led.decide_event(action, data, "stranger", recipient)
        ask = led.access_query if action is ActionType.ACCESS else led.collect_query
        assert decision == reference_decide(led, ask(data, "stranger", recipient))
        assert not led.knows_subject("stranger")

    @settings(max_examples=60, deadline=None)
    @given(memo_steps, st.data())
    def test_decisions_match_a_rescan_after_every_step(self, ops, data):
        led = fresh_ledger()
        led.declare_subject(CAROL)
        for name in MEMO_DATA:
            led.declare_data(name)
        led.declare_data("C", "A", "B")
        led.declare_data("D", "C")
        led.declare_recipient("Broker")
        fresh = iter(range(len(ops)))
        self.agree(led)
        for op in ops:
            self.step(led, op, fresh, data.draw)
            self.agree(led)
            self.stranger(led, data.draw)


class TestDeepHierarchy:
    def test_a_deep_chain_stays_small(self):
        # Concept i's mask holds bit i, so any n concepts, deep or flat,
        # cost about n * n / 16 bytes of masks, 0.25 MB at n = 2,000.
        led = Ledger()
        led.declare_data("Level0")
        led.declare_recipient("Partner")
        led.declare_subject(ALICE)
        led.grant("Level0", ALICE, "Partner")
        tracemalloc.start()
        try:
            for depth in range(1, 2001):
                led.declare_data(f"Level{depth}", f"Level{depth - 1}")
                assert led.check(led.collect_query(f"Level{depth}", ALICE, "Partner")).authorized
                led.advance()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MB"
