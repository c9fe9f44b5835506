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
        if name not in scenario_names():
            known = ", ".join(scenario_names())
            raise InvalidValueError(f"unknown scenario {name!r} (known: {known})")
        # Exactly int: a bool is an int too, but counts no step.
        if type(steps) is not int or steps < 1:
            raise InvalidValueError(f"need at least one step, got {steps!r}")
        # A seed of None would seed `realistic` from the OS, so runs would differ.
        if type(seed) is not int:
            raise InvalidValueError(f"seed must be an int, got {seed!r}")
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


# The plain scenarios, in `scenario_names()` order: whether each step nests
# the data chain one level deeper, whether it nests the recipient chain, and
# which query, if any, it then asks about the newest data concept.
_PLAIN: dict[str, tuple[bool, bool, ActionType | None]] = {
    "steps": (False, False, None),
    "nested-data": (True, False, None),
    "nested-data-recipients": (True, True, None),
    "query-collection": (False, False, ActionType.COLLECT),
    "refine-query-collection": (True, False, ActionType.COLLECT),
    "query-access": (False, False, ActionType.ACCESS),
    "refine-query-access": (True, False, ActionType.ACCESS),
}


def scenario_names() -> tuple[str, ...]:
    return (*_PLAIN, "realistic")


def _consent_fixture(collected: bool = False) -> Ledger:
    """One subject's consent to the base pair, and when `collected`, its
    data collected at step 1."""
    ledger = Ledger()
    ledger.declare_data(BASE_DATA)
    ledger.declare_recipient(BASE_RECIPIENT)
    ledger.declare_subject(SUBJECT)
    ledger.grant(BASE_DATA, SUBJECT, BASE_RECIPIENT, label="baseline")
    if collected:
        ledger.record_event(ActionType.COLLECT, BASE_DATA, SUBJECT, BASE_RECIPIENT)
    return ledger


def _setup_plain(nest_data: bool, nest_recipient: bool,
                 query: ActionType | None) -> StepFn:
    # The flags are tested inline: a helper call per grown chain shows in
    # the per-step times of the short scenarios.
    if query is None:
        ledger = Ledger()
        if nest_data:
            ledger.declare_data(BASE_DATA)
        if nest_recipient:
            ledger.declare_recipient(BASE_RECIPIENT)
    else:
        ledger = _consent_fixture(collected=query is ActionType.ACCESS)
    first = StepInterval.single(1)
    collect = query is ActionType.COLLECT
    data_tip, rec_tip = BASE_DATA, BASE_RECIPIENT

    def step(i: int) -> tuple:
        nonlocal data_tip, rec_tip
        if nest_data:
            name = f"DataLevel{i}"
            ledger.declare_data(name, data_tip)
            data_tip = name
        if nest_recipient:
            name = f"RecipientLevel{i}"
            ledger.declare_recipient(name, rec_tip)
            rec_tip = name
        if query is None:
            ledger.advance()
            return ()
        if collect:
            verdict = ledger.check(ledger.collect_query(data_tip, SUBJECT, BASE_RECIPIENT))
        else:
            verdict = ledger.check(
                ledger.access_query(data_tip, SUBJECT, BASE_RECIPIENT, first))
        ledger.advance()
        return (verdict.authorized,)

    return step


def _setup_realistic(scenario: BenchScenario) -> StepFn:
    rng = random.Random(scenario.seed)
    ledger = _consent_fixture()
    data_tip, rec_tip = BASE_DATA, BASE_RECIPIENT
    consent_serial = 0

    def step(i: int) -> tuple:
        nonlocal data_tip, rec_tip, consent_serial
        if i % REFINE_EVERY == 0:
            dname, rname = f"DataLevel{i}", f"RecipientLevel{i}"
            ledger.declare_data(dname, data_tip)
            ledger.declare_recipient(rname, rec_tip)
            data_tip, rec_tip = dname, rname
        if i % CHURN_EVERY == 0:
            label = "baseline" if consent_serial == 0 else f"renewal{consent_serial}"
            ledger.withdraw(label, retroactive=rng.random() < 0.5)
            consent_serial += 1
            ledger.grant(BASE_DATA, SUBJECT, BASE_RECIPIENT,
                         retroactive=rng.random() < 0.5,
                         label=f"renewal{consent_serial}")
        collect = ledger.check(
            ledger.collect_query(data_tip, SUBJECT, rec_tip))
        yesterday = StepInterval.single(max(1, i - 1))
        access = ledger.check(
            ledger.access_query(data_tip, SUBJECT, rec_tip, yesterday))
        collected = ledger.record_event(ActionType.COLLECT, data_tip, SUBJECT,
                                        rec_tip)
        accessed = ledger.record_event(ActionType.ACCESS, data_tip, SUBJECT,
                                       rec_tip, yesterday)
        ledger.advance()
        return (collect.authorized, access.authorized,
                collected.verdict.authorized, accessed.verdict.authorized)

    return step


def run_scenario(scenario: BenchScenario, reps: int = REPS) -> TimingSeries:
    """Run a scenario `reps` times on fresh state, timing every step.

    Each step's verdict is kept too, appended outside the timed window.
    """
    if type(reps) is not int or reps < 1:
        raise InvalidValueError(f"need at least one repetition, got {reps!r}")
    series = TimingSeries(scenario, [], [])
    for _ in range(reps):
        plain = _PLAIN.get(scenario.name)
        step_fn = _setup_realistic(scenario) if plain is None else _setup_plain(*plain)
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
