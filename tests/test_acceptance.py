"""Acceptance gate: one test per shipping criterion, one printed line each.

Each test prints `criterion N (<name>): PASS|FAIL` through the capture
shield so the verdicts always land in the terminal transcript. Time
budgets are asserted where the criterion states one.
"""

import json
import random
import statistics
import time
from contextlib import contextmanager
from datetime import datetime, timedelta, timezone
from itertools import product

from consentry.bench import BenchScenario, run_scenario
from consentry.cli import main as cli_main
from consentry.core import ConsentRecord, Reason, Withdrawal
from consentry.monitor import scan, translate_to_script
from consentry.oracle import (
    ConsentSpec,
    generate_scenario,
    oracle_region,
    oracle_verdicts,
)
from consentry.script import run_script

import support
from conftest import GOLDEN_SCRIPTS, golden_path, golden_text
from support import authorized_region


@contextmanager
def criterion(capsys, number, name):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {number} ({name}): FAIL")
        raise
    with capsys.disabled():
        print(f"criterion {number} ({name}): PASS")


def test_criterion_1_use_case_conformance(capsys):
    with criterion(capsys, 1, "use-case conformance"):
        total_assumes = 0
        for name, expected in sorted(GOLDEN_SCRIPTS.items()):
            started = time.perf_counter()
            report = run_script(golden_text(name))
            exit_code = cli_main(["run", str(golden_path(name))])
            elapsed = time.perf_counter() - started
            assert elapsed < 1.0, f"{name} took {elapsed:.2f}s"
            assert exit_code == 0, f"{name} exited {exit_code}"
            assert len(report.assumes) == expected, name
            assert report.passed, name
            total_assumes += sum(1 for a in report.assumes if a.passed)
        assert total_assumes == 14


def test_criterion_2_exhaustive_region_equivalence(capsys):
    with criterion(capsys, 2, "exhaustive region equivalence"):
        started = time.perf_counter()
        horizon = 8
        shapes = 0
        for g in range(1, horizon + 1):
            for w in (None, *range(g, horizon + 1)):
                for gr, wr in product((False, True), repeat=2):
                    spec = ConsentSpec("D1", "alice", "R1", g, gr, w, wr)
                    rec = ConsentRecord(
                        0, None, 0, "alice", 1, g, gr,
                        None if w is None else Withdrawal(w, wr))
                    engine = authorized_region(rec, horizon)
                    oracle = set(oracle_region(spec, horizon))
                    assert engine == oracle, \
                        f"shape g={g} gr={gr} w={w} wr={wr}: {engine ^ oracle}"
                    shapes += 1
        assert shapes == 176  # every enumerable (g, w, retro, retro) shape
        assert time.perf_counter() - started < 10.0


def test_criterion_3_randomized_differential(capsys):
    with criterion(capsys, 3, "randomized differential"):
        started = time.perf_counter()
        queries = 0
        for seed in range(1000):
            scenario = generate_scenario(seed)
            engine = support.engine_verdicts(scenario)
            oracle = oracle_verdicts(scenario)
            assert engine == oracle, (
                f"seed {seed}: engine {engine} vs oracle {oracle}\n{scenario}")
            queries += len(scenario.queries)
        assert queries > 0
        assert time.perf_counter() - started < 60.0


def test_criterion_4_ontology_property_suite(capsys):
    with criterion(capsys, 4, "ontology property suite"):
        for seed in range(200):
            rng = random.Random(seed)
            graph, names, edges, equivs, disjoints = support.random_graph(
                rng, max_concepts=50)
            closure = support.naive_reachability(names, edges, equivs)
            everyone = names + ["Data"]
            ids = {n: graph.lookup(n) for n in everyone}
            anc = {n: {graph.name_of(c) for c in graph.ancestors(ids[n])}
                   for n in everyone}

            # Exact agreement with the naive transitive closure, which
            # settles subsumes() on all pairs at once.
            for n in everyone:
                assert anc[n] == closure[n], f"seed {seed}: closure of {n}"

            # Reflexivity and transitivity of the reachability sets.
            for n in everyone:
                assert n in anc[n]
                for up in anc[n]:
                    assert anc[up] <= anc[n], f"seed {seed}: {up} via {n}"

            # Equivalence congruence: equated names subsume identically.
            for a, b in equivs:
                assert graph.subsumes(ids[a], ids[b]) and graph.subsumes(ids[b], ids[a])
                assert anc[a] == anc[b], f"seed {seed}: {a} ~ {b}"

            # Unsatisfiability: below both sides of some declared pair.
            for n in everyone:
                expected = any(p in closure[n] and q in closure[n]
                               for p, q in disjoints)
                assert graph.is_unsatisfiable(ids[n]) == expected, \
                    f"seed {seed}: unsat of {n}"

            # Disjointness closes downward over subsumption.
            for a, b in disjoints:
                below_a = [n for n in names if a in closure[n]]
                below_b = [n for n in names if b in closure[n]]
                for x in below_a:
                    for y in below_b:
                        assert graph.are_disjoint(ids[x], ids[y]), \
                            f"seed {seed}: {x} vs {y} under {a}|{b}"

            # Appending declarations never retracts an answer.
            unsat_before = {n for n in everyone
                            if graph.is_unsatisfiable(ids[n])}
            graph.declare_concept("Fresh", graph.kind_of(ids[names[0]]),
                                  [rng.choice(names)])
            graph.declare_concept(rng.choice(names), graph.kind_of(ids[names[0]]),
                                  [rng.choice(names)])
            graph.declare_equivalent(rng.choice(names), rng.choice(names))
            for n in everyone:
                after = {graph.name_of(c) for c in graph.ancestors(ids[n])}
                assert anc[n] <= after, f"seed {seed}: {n} lost ancestors"
            for n in unsat_before:
                assert graph.is_unsatisfiable(ids[n]), \
                    f"seed {seed}: {n} became satisfiable"


# Six consent shapes with their signed expectations, as runnable scripts.
# Each pairs assumes (the signed checks) with the consent parameters for an
# independent region cross-check.
SHAPE_FIXTURES = [
    ("plain grant", """\
new data D Data
step
grant D s R :c1
assume true collect D s R
assume false access D s R T1
step
assume true access D s R T2 T3
""", ConsentSpec("D", "s", "R", 2, False, None, False)),
    ("retroactive grant", """\
new data D Data
step
grant retro D s R :c1
assume true collect D s R
assume true access D s R T1
""", ConsentSpec("D", "s", "R", 2, True, None, False)),
    ("plain grant, plain withdrawal", """\
new data D Data
grant D s R :c1
step
step
withdraw :c1
assume false collect D s R
assume true access D s R T1 T3
assume false access D s R T3
""", ConsentSpec("D", "s", "R", 1, False, 3, False)),
    ("plain grant, retroactive withdrawal", """\
new data D Data
grant D s R :c1
assume true access D s R T1
step
withdraw retro :c1
assume false access D s R T1
assume false collect D s R
""", ConsentSpec("D", "s", "R", 1, False, 2, True)),
    ("retroactive grant, plain withdrawal", """\
new data D Data
step
grant retro D s R :c1
step
withdraw :c1
assume false collect D s R
assume true access D s R T1 T3
assume false access D s R T3
""", ConsentSpec("D", "s", "R", 2, True, 3, False)),
    ("retroactive grant, retroactive withdrawal", """\
new data D Data
step
grant retro D s R :c1
assume true access D s R T1
step
withdraw retro :c1
assume false access D s R T1 T3
assume false collect D s R
""", ConsentSpec("D", "s", "R", 2, True, 3, True)),
]


def test_criterion_5_scenario_shape_checks(capsys):
    with criterion(capsys, 5, "scenario-shape checks"):
        for label, script, spec in SHAPE_FIXTURES:
            report = run_script(script)
            failed = [a.statement for a in report.assumes if not a.passed]
            assert report.passed, f"{label}: failed assumes: {failed}"
            # Cross-check the very consent the script created against the
            # naive region for the same shape.
            rec = report.ledger.consent("c1")
            assert rec.granted_at == spec.granted_at, label
            horizon = report.final_step + 2
            assert authorized_region(rec, horizon) == \
                set(oracle_region(spec, horizon)), label
        assert len(SHAPE_FIXTURES) == 6


# -- criterion 6 fixture: a 30-day log pair with 3 injected violations ------

EPOCH = datetime(2026, 1, 1, tzinfo=timezone.utc)
DAY = timedelta(days=1)


def _instant(day):
    return (EPOCH + timedelta(days=day - 1)).strftime("%Y-%m-%dT%H:%M:%SZ")


def _consent_line(day, action, cid, retro=False, **concepts):
    rec = {"timestamp": _instant(day), "action": action, "consent_id": cid,
           "retroactive": retro, **concepts}
    return json.dumps(rec)


def _event_line(day, action, data, subject, recipient, window=None):
    rec = {"timestamp": _instant(day), "action": action, "data_concept": data,
           "subject": subject, "recipient_concept": recipient}
    if window is not None:
        rec["collected_from"] = _instant(window[0])
        rec["collected_to"] = _instant(window[1])
    return json.dumps(rec)


MONITOR_MANIFEST = """\
new data Telemetry Data
new data Contacts Data
new data Browsing Data
new recipient Analytics
"""

MONITOR_CONSENTS = "\n".join([
    _consent_line(1, "grant", "c1", data_concept="Telemetry",
                  subject="alice", recipient_concept="Analytics"),
    _consent_line(3, "grant", "c2", retro=True, data_concept="Contacts",
                  subject="alice", recipient_concept="Analytics"),
    _consent_line(5, "grant", "c3", data_concept="Browsing",
                  subject="alice", recipient_concept="Analytics"),
    _consent_line(10, "withdraw", "c1"),
    _consent_line(15, "withdraw", "c2", retro=True),
]) + "\n"

CLEAN_EVENTS = [
    (2, _event_line(2, "collect", "Telemetry", "alice", "Analytics")),
    (4, _event_line(4, "collect", "Contacts", "alice", "Analytics")),
    (5, _event_line(5, "collect", "Telemetry", "alice", "Analytics")),
    (6, _event_line(6, "collect", "Browsing", "alice", "Analytics")),
    (9, _event_line(9, "collect", "Telemetry", "alice", "Analytics")),
    (9, _event_line(9, "access", "Telemetry", "alice", "Analytics", (2, 8))),
    (14, _event_line(14, "access", "Contacts", "alice", "Analytics", (3, 13))),
    (20, _event_line(20, "access", "Browsing", "alice", "Analytics", (5, 19))),
    (30, _event_line(30, "collect", "Browsing", "alice", "Analytics")),
]

INJECTED = [
    # collect after a (non-retroactive) withdrawal
    (11, _event_line(11, "collect", "Telemetry", "alice", "Analytics"),
     Reason.WITHDRAWN_NON_RETRO),
    # access after a retroactive withdrawal
    (16, _event_line(16, "access", "Contacts", "alice", "Analytics", (3, 3)),
     Reason.WITHDRAWN_RETRO),
    # access to data collected before a non-retroactive grant
    (18, _event_line(18, "access", "Browsing", "alice", "Analytics", (2, 2)),
     Reason.OUTSIDE_GRANT_WINDOW),
]


def _access_log(include_injected):
    timed = [(day, line) for day, line in CLEAN_EVENTS]
    if include_injected:
        timed += [(day, line) for day, line, _ in INJECTED]
    timed.sort(key=lambda pair: pair[0])
    return "\n".join(line for _, line in timed) + "\n"


def _coherence(manifest, consents, accesses):
    """scan and execute-after-translate must tell the same story."""
    report = scan(manifest, consents, accesses, EPOCH, DAY)
    script = translate_to_script(manifest, consents, accesses, EPOCH, DAY)
    replay = run_script(script)
    assert len(replay.events) == report.events_scanned
    assert replay.final_step == report.final_step
    denied = [(e.query.access_at, e.verdict.reason) for e in replay.events
              if not e.verdict.authorized]
    assert denied == [(v.fields["step"], v.reason) for v in report.violations]
    return report


def test_criterion_6_monitor_detection(capsys):
    with criterion(capsys, 6, "monitor detection"):
        dirty = _coherence(MONITOR_MANIFEST, MONITOR_CONSENTS, _access_log(True))
        assert dirty.events_scanned == len(CLEAN_EVENTS) + len(INJECTED)
        assert [(v.fields["step"], v.reason) for v in dirty.violations] == \
            [(day, reason) for day, _, reason in INJECTED]
        assert all(v.fields["subject"] == "alice" for v in dirty.violations)

        clean = _coherence(MONITOR_MANIFEST, MONITOR_CONSENTS, _access_log(False))
        assert clean.clean, f"false positives: {clean.violations}"
        assert clean.events_scanned == len(CLEAN_EVENTS)


def test_criterion_7_bench_growth_bound(capsys):
    with criterion(capsys, 7, "bench growth bound"):
        started = time.perf_counter()
        series = run_scenario(BenchScenario("realistic", steps=365, seed=0),
                              reps=5)
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"full run took {elapsed:.1f}s"

        # Each step is judged by its fastest rep: on a shared host one rep
        # can be preempted mid-step, which says nothing about the engine.
        fastest = [min(steps) for steps in zip(*series.micros)]
        early_median = statistics.median(fastest[0:30])
        late_median = statistics.median(fastest[329:365])
        assert late_median <= 5 * early_median, (
            f"late median {late_median}us vs early median {early_median}us")

        worst = max(fastest)
        assert worst <= 10_000, f"slowest step took {worst}us (>10ms)"
