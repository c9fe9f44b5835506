import json
import re
import subprocess
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from consentry import cli, monitor
from consentry.bench import BenchScenario
from consentry.cli import main, parse_duration, STEP_DURATION_ENV
from consentry.errors import ConsentryError, InvalidValueError
from consentry.oracle import ConsentSpec, oracle_collection_steps, oracle_region
from consentry.script import run_script

from conftest import FIXTURES, GOLDEN_SCRIPTS, golden_path, golden_text

EPOCH = datetime(2026, 1, 1, tzinfo=timezone.utc)
DAY = timedelta(days=1)
MANIFEST_TEXT = "new data Telemetry Data\nnew recipient Analytics\n"


def log_line(**kw):
    return json.dumps(kw) + "\n"


CLEAN_CONSENTS = log_line(
    timestamp="2026-01-01T00:00:00Z", action="grant", consent_id="c1",
    data_concept="Telemetry", subject="alice", recipient_concept="Analytics")
CLEAN_ACCESSES = log_line(
    timestamp="2026-01-02T00:00:00Z", action="collect",
    data_concept="Telemetry", subject="alice", recipient_concept="Analytics")
BAD_ACCESSES = log_line(
    timestamp="2026-01-02T00:00:00Z", action="collect",
    data_concept="Telemetry", subject="bob", recipient_concept="Analytics")


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def monitor_files(tmp_path, accesses=CLEAN_ACCESSES):
    return [
        write(tmp_path, "manifest.consent", MANIFEST_TEXT),
        write(tmp_path, "consents.jsonl", CLEAN_CONSENTS),
        write(tmp_path, "accesses.jsonl", accesses),
    ]


class TestDurations:
    @pytest.mark.parametrize("text,expected", [
        ("1d", timedelta(days=1)),
        ("12h", timedelta(hours=12)),
        ("90m", timedelta(minutes=90)),
        ("30s", timedelta(seconds=30)),
        ("1d12h", timedelta(days=1, hours=12)),
        ("2h30m15s", timedelta(hours=2, minutes=30, seconds=15)),
        ("3600", timedelta(hours=1)),
        (" 1d ", timedelta(days=1)),
    ])
    def test_accepted_forms(self, text, expected):
        assert parse_duration(text) == expected

    @pytest.mark.parametrize("text", ["", "xyz", "1w", "0d", "0", "h3", "-5s"])
    def test_rejected_forms(self, text):
        with pytest.raises(ValueError):
            parse_duration(text)

    # Arabic-Indic three, fullwidth one two, fullwidth three: digits to \d
    # and str.isdecimal(), but not to the duration grammar.
    @pytest.mark.parametrize("text", ["\u0663d", "\uff11\uff12h", "\uff13",
                                      "1\u0663s", "1d\u0663h"])
    def test_only_ascii_digits(self, text):
        with pytest.raises(InvalidValueError, match="cannot parse duration"):
            parse_duration(text)


@pytest.mark.parametrize("reject", [
    lambda: BenchScenario("quantum", steps=5),
    lambda: BenchScenario("steps", steps=0),
    lambda: monitor.parse_instant("yesterday"),
    lambda: monitor.parse_instant(20260101),
    lambda: monitor.parse_instant("0001-01-01T00:00:00+05:00"),
    lambda: monitor.scan("", log_line(timestamp="2025-12-31T23:59:59Z", action="withdraw",
                                      consent_id="c1"), "", EPOCH, DAY),
    lambda: monitor.scan("", "", "", EPOCH, timedelta(0)),
    lambda: parse_duration("soon"),
    lambda: parse_duration("0s"),
    lambda: parse_duration("9999999999d"),
    lambda: parse_duration("9" * 20),
    lambda: parse_duration("\u00b2"),  # a digit to str.isdigit, not to int()
    lambda: parse_duration("9" * 5000),  # past CPython's int-string digit cap
    lambda: parse_duration("9" * 5000 + "s"),
    lambda: cli.cmd_simulate(cli.build_parser().parse_args(
        ["simulate", "--scenario", "steps", "--steps", "3", "--reps", "0"])),
], ids=["scenario", "steps", "garbage-instant", "non-text-instant",
        "instant-out-of-range", "before-epoch", "zero-step", "bad-duration",
        "zero-duration", "huge-duration", "huge-seconds", "superscript-digit",
        "digits-bare", "digits-unit", "reps"])
def test_rejected_values_are_consentry_errors(reject):
    # Each is a bad value, so it stays catchable as a ValueError too.
    with pytest.raises(ConsentryError) as err:
        reject()
    assert isinstance(err.value, ValueError)


class TestRun:
    def test_passing_script_exits_zero(self, capsys):
        rc = main(["run", str(golden_path("overlapping_authorizations"))])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("-> PASS") == 6
        assert "FAIL" not in out
        assert out.strip().splitlines()[-1].startswith("passed: 6/6")

    def test_failing_assume_exits_one(self, tmp_path, capsys):
        path = write(tmp_path, "bad.consent",
                     "new data X Data\nassume true collect X s R\n")
        rc = main(["run", path])
        out = capsys.readouterr().out
        assert rc == 1
        assert "-> FAIL" in out
        assert "FAILED: 0/1" in out

    def test_missing_file_exits_two(self, capsys):
        rc = main(["run", "/nonexistent/script.consent"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_parse_error_exits_two(self, tmp_path, capsys):
        path = write(tmp_path, "broken.consent", "grant X s R\n")
        rc = main(["run", path])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_semantic_error_exits_two(self, tmp_path, capsys):
        path = write(tmp_path, "undeclared.consent", "grant Ghost s R :c1\n")
        rc = main(["run", path])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and "line 1" in err

    def test_non_utf8_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "garbage.consent"
        path.write_bytes(b"\xc3\x28 not utf-8\n")
        rc = main(["run", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "UTF-8" in err

    def test_json_report(self, tmp_path, capsys):
        path = write(tmp_path, "ok.consent", """\
new data X Data
grant X s R :c1
collect X s R
assume true collect X s R
""")
        rc = main(["run", "--json", path])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["final_step"] == 1
        assert [a["passed"] for a in payload["assumes"]] == [True]
        assert payload["events"][0]["action"] == "collect"
        assert payload["events"][0]["authorized"] is True
        assert payload["events"][0]["reason"] == "Ok"


class TestMonitor:
    def test_clean_logs_exit_zero(self, tmp_path, capsys):
        rc = main(["monitor", *monitor_files(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "clean" in out

    def test_violations_exit_one(self, tmp_path, capsys):
        rc = main(["monitor", *monitor_files(tmp_path, BAD_ACCESSES)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "SubjectMismatch" in out

    def test_json_report(self, tmp_path, capsys):
        rc = main(["monitor", "--json", *monitor_files(tmp_path, BAD_ACCESSES)])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is False
        assert payload["violations"][0]["reason"] == "SubjectMismatch"

    def test_malformed_log_exits_two(self, tmp_path, capsys):
        files = monitor_files(tmp_path)
        (tmp_path / "accesses.jsonl").write_text("{broken\n", encoding="utf-8")
        rc = main(["monitor", *files])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_a_lone_carriage_return_stays_inside_its_record(self, tmp_path, capsys):
        # "\r" is JSON whitespace: records end, and lines count, at "\n" only.
        files = monitor_files(tmp_path)
        record = BAD_ACCESSES.replace(', "action"', ',\r "action"')
        assert record.count("\r") == 1
        (tmp_path / "accesses.jsonl").write_bytes(record.encode())
        assert main(["monitor", "--json", *files]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["events_scanned"] == 1
        assert [v["line"] for v in payload["violations"]] == [1]
        (tmp_path / "accesses.jsonl").write_bytes((record + "{broken\r\n").encode())
        assert main(["monitor", *files]) == 2
        assert "error: access log line 2: not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("manifest, message", [
        ("new data A Data\nnew data X\n",
         "manifest line 2: expected a parent concept, found end of line"),
        ("new data A$ Data\n", "manifest line 1: column 11: illegal character '$'"),
    ], ids=["parse", "lex"])
    def test_manifest_syntax_error_names_the_manifest(self, tmp_path, capsys,
                                                      manifest, message):
        files = monitor_files(tmp_path)
        write(tmp_path, "manifest.consent", manifest)
        assert main(["monitor", *files]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_epoch_flag_shifts_the_grid(self, tmp_path, capsys):
        files = monitor_files(tmp_path)
        rc = main(["monitor", "--json", "--epoch", "2025-12-31T00:00:00Z", *files])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["final_step"] == 3  # one extra day before the logs

    def test_step_duration_flag(self, tmp_path, capsys):
        rc = main(["monitor", "--json", "--step-duration", "12h",
                   *monitor_files(tmp_path)])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["final_step"] == 3

    def test_step_duration_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(STEP_DURATION_ENV, "12h")
        rc = main(["monitor", "--json", *monitor_files(tmp_path)])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["final_step"] == 3

    def test_flag_overrides_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(STEP_DURATION_ENV, "12h")
        rc = main(["monitor", "--json", "--step-duration", "1d",
                   *monitor_files(tmp_path)])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["final_step"] == 2

    def test_bad_duration_exits_two(self, tmp_path, capsys):
        rc = main(["monitor", "--step-duration", "soon", *monitor_files(tmp_path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--step-duration", "9999999999d"],
        ["--epoch", "0001-01-01T00:00:00+05:00"],
        ["--step-duration", "9" * 5000],
    ], ids=["duration", "epoch", "duration-digits"])
    def test_out_of_range_value_exits_two(self, tmp_path, capsys, flags):
        rc = main(["monitor", *flags, *monitor_files(tmp_path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_empty_logs_are_clean(self, tmp_path, capsys):
        files = [
            write(tmp_path, "manifest.consent", MANIFEST_TEXT),
            write(tmp_path, "consents.jsonl", ""),
            write(tmp_path, "accesses.jsonl", ""),
        ]
        rc = main(["monitor", *files])
        assert rc == 0

    def test_each_log_is_parsed_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        for name in ("parse_consent_log", "parse_access_log"):
            def counted(text, _parse=getattr(monitor, name), _name=name):
                calls.append(_name)
                return _parse(text)
            monkeypatch.setattr(monitor, name, counted)
        assert main(["monitor", *monitor_files(tmp_path)]) == 0
        assert sorted(calls) == ["parse_access_log", "parse_consent_log"]


def monitor_fixture(directory):
    return [str(FIXTURES / directory / name)
            for name in ("manifest.consent", "consents.jsonl", "accesses.jsonl")]


MONITOR_FIXTURE = monitor_fixture("monitor")


class TestReportFormat:
    """`--json` prints one line of compact JSON; text output is unchanged."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_SCRIPTS))
    def test_run_json_is_one_line(self, capsys, name):
        path = str(golden_path(name))
        assert main(["run", "--json", path]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 1 and out.endswith("\n")
        report = run_script(golden_text(name))
        assert json.loads(out) == cli._run_report_json(path, report)

    @pytest.mark.parametrize("accesses", [None, BAD_ACCESSES],
                             ids=["fixture", "violation"])
    def test_monitor_json_is_one_line(self, tmp_path, capsys, accesses):
        files = MONITOR_FIXTURE if accesses is None else monitor_files(tmp_path, accesses)
        main(["monitor", "--json", *files])
        out = capsys.readouterr().out
        assert out.count("\n") == 1 and out.endswith("\n")
        texts = [Path(f).read_text(encoding="utf-8") for f in files]
        report = monitor.scan(*texts, None, DAY)
        assert json.loads(out) == report.to_json()

    def test_run_text_is_unchanged(self, capsys):
        assert main(["run", str(golden_path("overlapping_authorizations"))]) == 0
        assert capsys.readouterr().out == """\
line 13: assume false collect WalkingRoute datasubject1 Advertiser -> PASS
line 14: assume true collect DrivingRoute datasubject1 Advertiser -> PASS
line 15: assume true access DrivingRoute datasubject1 Advertiser T1 -> PASS
line 20: assume false collect DrivingRoute datasubject1 Advertiser -> PASS
line 21: assume false access DrivingRoute datasubject1 Advertiser T4 T5 -> PASS
line 22: assume true access DrivingRoute datasubject1 Advertiser T1 -> PASS
passed: 6/6 assumes hold, 3 event(s), final step T5
"""

    def test_monitor_text_is_unchanged(self, tmp_path, capsys):
        assert main(["monitor", *MONITOR_FIXTURE]) == 0
        assert capsys.readouterr().out == "clean: no violations in 5 event(s)\n"
        assert main(["monitor", *monitor_files(tmp_path, BAD_ACCESSES)]) == 1
        assert capsys.readouterr().out == (
            "line 1: collect Telemetry subject=bob recipient=Analytics at T2: "
            "SubjectMismatch\n"
            "1 violation(s) in 1 event(s) (SubjectMismatch: 1)\n")


REPORTS = FIXTURES / "reports"


class TestGoldenReports:
    """`--json` reports equal, byte for byte, the ones committed under
    tests/fixtures/reports/; a run report names its script by file name."""

    @staticmethod
    def golden(name):
        return (REPORTS / name).read_text(encoding="utf-8")

    @pytest.mark.parametrize("name", sorted(GOLDEN_SCRIPTS))
    def test_run_json(self, capsys, name):
        path = str(golden_path(name))
        main(["run", path, "--json"])
        out = capsys.readouterr().out
        out = out.replace(json.dumps(path), json.dumps(f"{name}.consent"), 1)
        assert out == self.golden(f"{name}.run.json")

    @pytest.mark.parametrize("fixture, duration, rc", [
        pytest.param("monitor", "1d", 0, id="1d"),
        pytest.param("monitor", "1s", 0, id="1s"),
        pytest.param("monitor_denied", "1d", 1, id="denied-1d"),
        pytest.param("monitor_denied", "1s", 1, id="denied-1s")])
    def test_monitor_json(self, capsys, fixture, duration, rc):
        assert main(["monitor", *monitor_fixture(fixture), "--step-duration", duration,
                     "--json"]) == rc
        assert capsys.readouterr().out == self.golden(f"{fixture}.{duration}.json")

    def test_monitor_text(self, capsys):
        assert main(["monitor", *monitor_fixture("monitor_denied"),
                     "--step-duration", "1d"]) == 1
        assert capsys.readouterr().out == self.golden("monitor_denied.1d.txt")

    @pytest.mark.parametrize("fixture", ["monitor", "monitor_denied"])
    def test_translation(self, fixture):
        texts = [Path(path).read_text(encoding="utf-8") for path in monitor_fixture(fixture)]
        assert monitor.translate_to_script(*texts, None, DAY) == \
            self.golden(f"{fixture}.1d.consent")


class TestSimulate:
    def test_csv_on_stdout(self, capsys):
        rc = main(["simulate", "--scenario", "steps", "--steps", "4",
                   "--reps", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "scenario,step,rep,micros"
        assert len(lines) == 1 + 4 * 2

    def test_csv_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "timings.csv"
        rc = main(["simulate", "--scenario", "query-access", "--steps", "3",
                   "--reps", "1", "--out", str(out_path)])
        assert rc == 0
        assert out_path.read_text(encoding="utf-8").startswith("scenario,step")
        assert "3 samples" in capsys.readouterr().err

    def test_zero_steps_exits_two(self, capsys):
        rc = main(["simulate", "--scenario", "steps", "--steps", "0"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_unwritable_out_exits_two(self, capsys):
        rc = main(["simulate", "--scenario", "steps", "--steps", "2",
                   "--reps", "1", "--out", "/nonexistent-dir/timings.csv"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: cannot write")

    def test_zero_reps_exits_two(self, capsys):
        rc = main(["simulate", "--scenario", "steps", "--steps", "3",
                   "--reps", "0"])
        assert rc == 2

    def test_unknown_scenario_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--scenario", "quantum", "--steps", "3"])
        assert err.value.code == 2


EXPLAIN_SCRIPT = """\
new data Location Data
grant Location alice Partner :c1
step
step
withdraw retro :c1
"""


def _explained(out: str) -> tuple[set[tuple[int, int]], set[int]]:
    """An explain printout's covered (collection, access) cells, each read
    under its access step's header, and its "collection allowed at" steps."""
    lines = out.splitlines()
    top = next(i for i, line in enumerate(lines) if line.startswith("covered ("))
    columns = [(m.end() - 1, int(m.group(1)))
               for m in re.finditer(r"T(\d+)", lines[top + 1])]
    cells = set()
    for row in lines[top + 2:top + 2 + len(columns)]:
        t_c = int(row.split()[0][1:])
        cells.update((t_c, t_a) for at, t_a in columns if row[at] == "#")
    allowed = lines[-1].removeprefix("collection allowed at: ")
    return cells, {int(word[1:]) for word in allowed.split() if word != "(never)"}


class TestExplain:
    def test_region_grid(self, tmp_path, capsys):
        path = write(tmp_path, "grant.consent", EXPLAIN_SCRIPT)
        rc = main(["explain", path, "--consent", ":c1", "--horizon", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "data=Location" in out and "subject=alice" in out
        assert "granted at T1 (non-retroactive)" in out
        assert "withdrawn at T3 (retroactive)" in out
        # Covered cells: collections at T1-T2 accessed before the cut.
        assert out.count("#") == 3
        assert out.strip().endswith("collection allowed at: T1 T2")

    @pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.consent")),
                             ids=lambda path: path.stem)
    def test_grid_matches_the_oracle(self, path, capsys):
        # Every labelled consent's covered cells and collection steps, at
        # every horizon up to the default, against the naive oracle.
        report = run_script(path.read_text(encoding="utf-8"))
        graph = report.ledger.ontology
        labelled = [c for c in report.ledger.consents if c.label]
        assert labelled
        for c in labelled:
            w = c.withdrawal
            spec = ConsentSpec(graph.name_of(c.data_concept), c.subject,
                               graph.name_of(c.recipient_concept), c.granted_at,
                               c.grant_retroactive, None if w is None else w.step,
                               w is not None and w.retroactive)
            for horizon in range(1, report.final_step + 3):
                assert main(["explain", str(path), "--consent", f":{c.label}",
                             "--horizon", str(horizon)]) == 0
                cells, collectable = _explained(capsys.readouterr().out)
                where = (c.label, horizon)
                assert cells == set(oracle_region(spec, horizon)), where
                assert collectable == set(oracle_collection_steps(spec, horizon)), where

    def test_label_colon_is_optional(self, tmp_path, capsys):
        path = write(tmp_path, "grant.consent", EXPLAIN_SCRIPT)
        assert main(["explain", path, "--consent", "c1", "--horizon", "2"]) == 0

    def test_default_horizon_is_final_step_plus_two(self, tmp_path, capsys):
        path = write(tmp_path, "grant.consent", EXPLAIN_SCRIPT)
        rc = main(["explain", path, "--consent", ":c1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "horizon T5" in out
        assert "T6" not in out

    def test_single_cell_grid(self, tmp_path, capsys):
        path = write(tmp_path, "grant.consent",
                     "new data X Data\ngrant X s R :c1\n")
        rc = main(["explain", path, "--consent", ":c1", "--horizon", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("#") == 1

    def test_unknown_consent_exits_two(self, tmp_path, capsys):
        path = write(tmp_path, "grant.consent", EXPLAIN_SCRIPT)
        rc = main(["explain", path, "--consent", ":ghost"])
        assert rc == 2

    def test_bad_horizon_exits_two(self, tmp_path, capsys):
        path = write(tmp_path, "grant.consent", EXPLAIN_SCRIPT)
        rc = main(["explain", path, "--consent", ":c1", "--horizon", "0"])
        assert rc == 2


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "consentry.cli", "run",
             str(golden_path("basic_lifecycle"))],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "passed: 1/1" in proc.stdout
