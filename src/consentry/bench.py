"""Timing scenarios for the decision procedure.

Each scenario drives a fresh ledger through N steps and times the work
done at every step (queries, declarations, events, plus the clock
advance). The harness's own bookkeeping stays outside the timed window,
and automatic garbage collection is paused while a repetition runs (with
a collection between repetitions) so collector pauses cannot land inside
a step's window. Results come back as microsecond grids, one row per
repetition, and can be rendered as CSV with columns
scenario,step,rep,micros. A `BenchScenario` is a named tuple whose check
runs in `__new__`, as `StepInterval`'s does; a `TimingSeries` is a named
tuple whose lists fill up as the repetitions run.

Scenarios:

* steps: clock advance only; the floor everything else sits on.
* nested-data: every step nests a fresh data concept one level deeper.
* nested-data-recipients: same, plus a recipient chain.
* query-collection: one consent, a collection check every step.
* refine-query-collection: nest a data concept, then check collection
  for the newest one.
* query-access: one consent, data collected at step 1, an access check
  every step.
* refine-query-access: nest, then check access to step-1 data as the
  newest concept.
* realistic: a year in the life of one subject. Daily collection and
  access checks plus recorded events, a weekly ontology refinement, and
  a consent withdrawn and regranted every 90 days (retroactivity drawn
  from the seed).
"""

from __future__ import annotations

import gc
import random
from time import perf_counter_ns
from typing import Callable, NamedTuple

from .chronology import StepInterval
from .core import ActionType, Ledger
from .errors import InvalidValueError

REPS = 5
SUBJECT = "datasubject1"
BASE_DATA = "SensorData"
BASE_RECIPIENT = "Partner"
REFINE_EVERY = 7  # steps between ontology refinements in `realistic`
CHURN_EVERY = 90  # steps between consent withdraw/regrant cycles


class _Scenario(NamedTuple):
    name: str
    steps: int
    seed: int = 0


class BenchScenario(_Scenario):
    __slots__ = ()

    def __new__(cls, name: str, steps: int, seed: int = 0) -> "BenchScenario":
        if name not in _SETUPS:
            known = ", ".join(scenario_names())
            raise InvalidValueError(f"unknown scenario {name!r} (known: {known})")
        # Exactly int: a bool is an int too, but counts no step.
        if type(steps) is not int or steps < 1:
            raise InvalidValueError(f"need at least one step, got {steps!r}")
        return tuple.__new__(cls, (name, steps, seed))


class TimingSeries(NamedTuple):
    scenario: BenchScenario
    micros: list[list[int]]  # [rep][step], microseconds
    verdicts: list[list[tuple]]  # [rep][step]

    @property
    def reps(self) -> int:
        return len(self.micros)


# A step function does one step's work (ledger.now is the step index) and
# ends by advancing the clock. It returns a verdict tuple for equivalence
# checks; timing must not depend on whether anyone looks at it.
StepFn = Callable[[int], tuple]


def _setup_steps(scenario: BenchScenario) -> StepFn:
    ledger = Ledger()

    def step(_: int) -> tuple:
        ledger.advance()
        return ()

    return step


def _setup_nested_data(scenario: BenchScenario) -> StepFn:
    ledger = Ledger()
    ledger.declare_data(BASE_DATA)
    tip = [BASE_DATA]

    def step(i: int) -> tuple:
        name = f"DataLevel{i}"
        ledger.declare_data(name, tip[0])
        tip[0] = name
        ledger.advance()
        return ()

    return step


def _setup_nested_both(scenario: BenchScenario) -> StepFn:
    ledger = Ledger()
    ledger.declare_data(BASE_DATA)
    ledger.declare_recipient(BASE_RECIPIENT)
    data_tip = [BASE_DATA]
    rec_tip = [BASE_RECIPIENT]

    def step(i: int) -> tuple:
        dname, rname = f"DataLevel{i}", f"RecipientLevel{i}"
        ledger.declare_data(dname, data_tip[0])
        ledger.declare_recipient(rname, rec_tip[0])
        data_tip[0], rec_tip[0] = dname, rname
        ledger.advance()
        return ()

    return step


def _consent_fixture() -> Ledger:
    ledger = Ledger()
    ledger.declare_data(BASE_DATA)
    ledger.declare_recipient(BASE_RECIPIENT)
    ledger.declare_subject(SUBJECT)
    ledger.grant(BASE_DATA, SUBJECT, BASE_RECIPIENT, label="baseline")
    return ledger


def _setup_query_collection(scenario: BenchScenario) -> StepFn:
    ledger = _consent_fixture()

    def step(_: int) -> tuple:
        verdict = ledger.check(ledger.collect_query(BASE_DATA, SUBJECT, BASE_RECIPIENT))
        ledger.advance()
        return (verdict.authorized,)

    return step


def _setup_refine_query_collection(scenario: BenchScenario) -> StepFn:
    ledger = _consent_fixture()
    tip = [BASE_DATA]

    def step(i: int) -> tuple:
        name = f"DataLevel{i}"
        ledger.declare_data(name, tip[0])
        tip[0] = name
        verdict = ledger.check(ledger.collect_query(name, SUBJECT, BASE_RECIPIENT))
        ledger.advance()
        return (verdict.authorized,)

    return step


def _setup_query_access(scenario: BenchScenario) -> StepFn:
    ledger = _consent_fixture()
    ledger.record_event(ActionType.COLLECT, BASE_DATA, SUBJECT, BASE_RECIPIENT)
    first = StepInterval.single(1)

    def step(_: int) -> tuple:
        verdict = ledger.check(
            ledger.access_query(BASE_DATA, SUBJECT, BASE_RECIPIENT, first))
        ledger.advance()
        return (verdict.authorized,)

    return step


def _setup_refine_query_access(scenario: BenchScenario) -> StepFn:
    ledger = _consent_fixture()
    ledger.record_event(ActionType.COLLECT, BASE_DATA, SUBJECT, BASE_RECIPIENT)
    first = StepInterval.single(1)
    tip = [BASE_DATA]

    def step(i: int) -> tuple:
        name = f"DataLevel{i}"
        ledger.declare_data(name, tip[0])
        tip[0] = name
        verdict = ledger.check(
            ledger.access_query(name, SUBJECT, BASE_RECIPIENT, first))
        ledger.advance()
        return (verdict.authorized,)

    return step


def _setup_realistic(scenario: BenchScenario) -> StepFn:
    rng = random.Random(scenario.seed)
    ledger = _consent_fixture()
    data_tip = [BASE_DATA]
    rec_tip = [BASE_RECIPIENT]
    consent_serial = [0]

    def step(i: int) -> tuple:
        if i % REFINE_EVERY == 0:
            dname, rname = f"DataLevel{i}", f"RecipientLevel{i}"
            ledger.declare_data(dname, data_tip[0])
            ledger.declare_recipient(rname, rec_tip[0])
            data_tip[0], rec_tip[0] = dname, rname
        if i % CHURN_EVERY == 0:
            label = "baseline" if consent_serial[0] == 0 else f"renewal{consent_serial[0]}"
            ledger.withdraw(label, retroactive=rng.random() < 0.5)
            consent_serial[0] += 1
            ledger.grant(BASE_DATA, SUBJECT, BASE_RECIPIENT,
                         retroactive=rng.random() < 0.5,
                         label=f"renewal{consent_serial[0]}")
        collect = ledger.check(
            ledger.collect_query(data_tip[0], SUBJECT, rec_tip[0]))
        yesterday = StepInterval.single(max(1, i - 1))
        access = ledger.check(
            ledger.access_query(data_tip[0], SUBJECT, rec_tip[0], yesterday))
        collected = ledger.record_event(ActionType.COLLECT, data_tip[0], SUBJECT,
                                        rec_tip[0])
        accessed = ledger.record_event(ActionType.ACCESS, data_tip[0], SUBJECT,
                                       rec_tip[0], yesterday)
        ledger.advance()
        return (collect.authorized, access.authorized,
                collected.verdict.authorized, accessed.verdict.authorized)

    return step


_SETUPS: dict[str, Callable[[BenchScenario], StepFn]] = {
    "steps": _setup_steps,
    "nested-data": _setup_nested_data,
    "nested-data-recipients": _setup_nested_both,
    "query-collection": _setup_query_collection,
    "refine-query-collection": _setup_refine_query_collection,
    "query-access": _setup_query_access,
    "refine-query-access": _setup_refine_query_access,
    "realistic": _setup_realistic,
}


def scenario_names() -> tuple[str, ...]:
    return tuple(_SETUPS)


def run_scenario(scenario: BenchScenario, reps: int = REPS) -> TimingSeries:
    """Run a scenario `reps` times on fresh state, timing every step.

    Each step's verdict is kept too, appended outside the timed window.
    """
    if type(reps) is not int or reps < 1:
        raise InvalidValueError(f"need at least one repetition, got {reps!r}")
    series = TimingSeries(scenario, [], [])
    for _ in range(reps):
        step_fn = _SETUPS[scenario.name](scenario)
        row: list[int] = []
        verdicts: list[tuple] = []
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            for i in range(1, scenario.steps + 1):
                started = perf_counter_ns()
                verdict = step_fn(i)
                row.append((perf_counter_ns() - started) // 1000)
                verdicts.append(verdict)
        finally:
            if was_enabled:
                gc.enable()
        series.micros.append(row)
        series.verdicts.append(verdicts)
    return series


def to_csv(series: TimingSeries) -> str:
    lines = ["scenario,step,rep,micros"]
    for rep_no, row in enumerate(series.micros, start=1):
        for step_no, micros in enumerate(row, start=1):
            lines.append(f"{series.scenario.name},{step_no},{rep_no},{micros}")
    return "\n".join(lines) + "\n"
