import csv
import hashlib
import io
import re
from pathlib import Path

import pytest

from consentry import bench
from consentry.bench import (
    REPS,
    BenchScenario,
    run_scenario,
    scenario_names,
    to_csv,
)
from consentry.errors import InvalidValueError


class TestScenarioCatalog:
    def test_all_names_run(self):
        for name in scenario_names():
            series = run_scenario(BenchScenario(name, steps=5), reps=1)
            assert len(series.micros) == 1
            assert len(series.micros[0]) == 5

    def test_the_docs_list_every_scenario_in_order(self):
        docstring = bench.__doc__.split("Scenarios:", 1)[1]
        assert tuple(re.findall(r"^\* ([\w-]+):", docstring, re.M)) == scenario_names()
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### `consentry simulate", 1)[1].split("\n### ", 1)[0]
        assert tuple(re.findall(r"^- `([\w-]+)`:", section, re.M)) == scenario_names()

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            BenchScenario("quantum", steps=5)

    @pytest.mark.parametrize("steps", [0, -1, 2.5, 3.0, True])
    def test_steps_that_are_not_a_positive_int_are_rejected(self, steps):
        with pytest.raises(InvalidValueError):
            BenchScenario("steps", steps=steps)

    @pytest.mark.parametrize("seed", [None, 1.5, 3.0, "x", True, [1]])
    def test_seeds_that_are_not_an_int_are_rejected(self, seed):
        with pytest.raises(InvalidValueError):
            BenchScenario("realistic", steps=3, seed=seed)


class TestRunShape:
    def test_default_rep_count(self):
        series = run_scenario(BenchScenario("steps", steps=3))
        assert len(series.micros) == REPS

    @pytest.mark.parametrize("reps", [0, -1, 1.5, 2.0, True])
    def test_reps_that_are_not_a_positive_int_are_rejected(self, reps):
        with pytest.raises(InvalidValueError):
            run_scenario(BenchScenario("steps", steps=2), reps=reps)

    def test_timings_are_nonnegative_ints(self):
        series = run_scenario(BenchScenario("query-collection", steps=4), reps=2)
        for row in series.micros:
            assert all(isinstance(m, int) and m >= 0 for m in row)

    def test_verdicts_identical_across_reps(self):
        # Reruns start from fresh state, so recorded verdicts must agree. At
        # seed 3 the churns at steps 90 and 180 deny some reads, so state a
        # rep leaked into the next would show.
        series = run_scenario(BenchScenario("realistic", steps=185, seed=3), reps=3)
        assert not all(all(verdict) for verdict in series.verdicts[0])
        assert series.verdicts[0] == series.verdicts[1] == series.verdicts[2]

    @pytest.mark.parametrize("name, verdict", [
        ("steps", ()), ("nested-data", ()), ("nested-data-recipients", ()),
        ("query-collection", (True,)), ("refine-query-collection", (True,)),
        ("query-access", (True,)), ("refine-query-access", (True,))])
    def test_query_scenarios_decide_every_step(self, name, verdict):
        # Growth alone decides nothing; each query is authorized every step.
        series = run_scenario(BenchScenario(name, steps=6), reps=1)
        assert series.verdicts[0] == [verdict] * 6


class TestRealistic:
    def test_consent_churn_cadence(self):
        # One baseline grant, plus one renewal per churn boundary crossed.
        series = run_scenario(BenchScenario("realistic", steps=185, seed=1), reps=1)
        first_rep = series.verdicts[0]
        assert len(first_rep) == 185
        # Every step records one collect and one access event; all four
        # verdict slots are booleans.
        assert all(len(v) == 4 for v in first_rep)

    def test_seed_changes_the_run(self):
        runs = {}
        for seed in (0, 1, 2, 3):
            series = run_scenario(BenchScenario("realistic", steps=185, seed=seed), reps=1)
            runs[seed] = tuple(series.verdicts[0])
        # Retroactivity coin flips differ across seeds; at least two of
        # these four runs must disagree somewhere.
        assert len(set(runs.values())) > 1

    # Digests of repr(verdicts) over 185 steps. Seed 7 is authorized
    # throughout; seed 3 is denied around the churn at steps 90 and 180.
    @pytest.mark.parametrize("seed, digest", [
        (7, "30d25f9e18b86eab362ce4691b365ab8cd67e7f6bb7993eb2789d2d017b2fb48"),
        (3, "975b70b81ade6e96ec7e8f28bbeb5d9b150fcd7717ca8364e1477f2c0aa45fd1")])
    def test_verdict_series_is_pinned(self, seed, digest):
        series = run_scenario(BenchScenario("realistic", steps=185, seed=seed), reps=1)
        assert hashlib.sha256(repr(series.verdicts[0]).encode()).hexdigest() == digest

    def test_same_seed_reproduces(self):
        a = run_scenario(BenchScenario("realistic", steps=95, seed=5), reps=1)
        b = run_scenario(BenchScenario("realistic", steps=95, seed=5), reps=1)
        assert a.verdicts == b.verdicts


class TestCsv:
    def test_header_and_row_count(self):
        series = run_scenario(BenchScenario("steps", steps=4), reps=3)
        text = to_csv(series)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert list(rows[0]) == ["scenario", "step", "rep", "micros"]
        assert len(rows) == 4 * 3

    def test_rows_cover_the_grid(self):
        series = run_scenario(BenchScenario("nested-data", steps=3), reps=2)
        rows = list(csv.DictReader(io.StringIO(to_csv(series))))
        cells = {(r["rep"], r["step"]) for r in rows}
        assert cells == {(str(r), str(s)) for r in (1, 2) for s in (1, 2, 3)}
        assert all(r["scenario"] == "nested-data" for r in rows)
        assert all(int(r["micros"]) >= 0 for r in rows)
