"""Command-line front end.

Subcommands:

* run SCRIPT: execute a consent script, print assume outcomes.
* monitor MANIFEST CONSENT_LOG ACCESS_LOG: scan logs for violations.
* simulate: run a timing scenario, emit CSV.
* explain SCRIPT: show the authorization region of one consent.

Exit status: 0 clean (script passed, logs clean), 1 findings (an assume
failed, a violation was found), 2 usage or input errors.

Each command runs with Python's cyclic garbage collector paused, and the
collector is enabled again afterwards if it was enabled before. A
command's cyclic garbage is a few hundred objects however long its input,
so the pause saves the collections without holding memory that grows.
The argument parser is built once per process, on `main`'s first call.

The step duration for `monitor` comes from --step-duration, then the
CONSENT_STEP_DURATION environment variable, then defaults to one day.
Durations are written as integers with d/h/m/s units ("1d", "12h",
"90m", "30s", "1d12h"); a bare integer means seconds.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import sys
from functools import cache
from typing import TYPE_CHECKING

from . import bench
from .chronology import format_step
from .core import ActionType
from .errors import ConsentryError, InvalidValueError
from .script import RunReport, run_script

if TYPE_CHECKING:
    from datetime import timedelta

STEP_DURATION_ENV = "CONSENT_STEP_DURATION"
DEFAULT_STEP_DURATION = "1d"

# [0-9], not \d, which matches other scripts' digits too.
_DURATION = re.compile(r"(?:(?P<days>[0-9]+)d)?(?:(?P<hours>[0-9]+)h)?"
                       r"(?:(?P<minutes>[0-9]+)m)?(?:(?P<seconds>[0-9]+)s)?\Z")


def parse_duration(text: str) -> timedelta:
    from datetime import timedelta  # here, so that `run` never loads datetime

    if not isinstance(text, str):
        raise InvalidValueError(f"a duration must be a str, got {text!r}")
    raw = text.strip()
    m = _DURATION.match(raw + "s" if raw.isascii() and raw.isdigit() else raw)
    if m is None or not any(m.groupdict().values()):
        raise InvalidValueError(
            f"cannot parse duration {text!r} (use forms like 1d, 12h, 90m, 30s)")
    try:
        value = timedelta(**{unit: int(n) for unit, n in m.groupdict().items() if n})
    except (OverflowError, ValueError):  # ValueError: more digits than int() converts
        raise InvalidValueError(f"duration {text!r} is too long") from None
    if value <= timedelta(0):
        raise InvalidValueError("step duration must be positive")
    return value


def _read(path: str) -> str:
    # newline="" keeps every "\r": a log record ends at "\n" only, and a
    # script splits its lines itself.
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except OSError as err:
        raise ConsentryError(f"cannot read {path}: {err.strerror or err}") from None
    except UnicodeDecodeError as err:
        raise ConsentryError(f"cannot read {path}: not valid UTF-8 ({err})") from None


# -- run ----------------------------------------------------------------


def _run_report_json(path: str, report: RunReport) -> dict:
    graph = report.ledger.ontology
    events = [{"id": ev.id, **ev.fields(graph), "authorized": ev.verdict.authorized,
               "reason": ev.verdict.reason._value_} for ev in report.events]
    return {
        "script": path,
        "passed": report.passed,
        "final_step": report.final_step,
        "assumes": [
            {
                "line": a.line,
                "statement": a.statement,
                "expected": a.expected,
                "actual": a.actual,
                "passed": a.passed,
            }
            for a in report.assumes
        ],
        "events": events,
        "statements": [
            {"line": o.line, "text": o.text, "note": o.note}
            for o in report.outcomes
        ],
    }


def cmd_run(args: argparse.Namespace) -> int:
    report = run_script(_read(args.script))
    if args.json:
        print(json.dumps(_run_report_json(args.script, report)))
    else:
        for a in report.assumes:
            mark = "PASS" if a.passed else "FAIL"
            print(f"line {a.line}: {a.statement} -> {mark}")
        passed = sum(1 for a in report.assumes if a.passed)
        verdict = "passed" if report.passed else "FAILED"
        print(f"{verdict}: {passed}/{len(report.assumes)} assumes hold, "
              f"{len(report.events)} event(s), final step "
              f"{format_step(report.final_step)}")
    return 0 if report.passed else 1


# -- monitor ----------------------------------------------------------------


def cmd_monitor(args: argparse.Namespace) -> int:
    from . import monitor  # here, so that the other subcommands never load it

    manifest = _read(args.manifest)
    consent_log = _read(args.consent_log)
    access_log = _read(args.access_log)
    duration = parse_duration(args.step_duration or os.environ.get(STEP_DURATION_ENV)
                              or DEFAULT_STEP_DURATION)
    epoch = None  # the earliest instant either log mentions
    if args.epoch:
        epoch = monitor.parse_instant(args.epoch)
    report = monitor.scan(manifest, consent_log, access_log, epoch, duration)
    if args.json:
        print(json.dumps(report.to_json()))
    else:
        print(report.render_text())
    return 0 if report.clean else 1


# -- simulate -----------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    scenario = bench.BenchScenario(args.scenario, args.steps, args.seed)
    series = bench.run_scenario(scenario, reps=args.reps)
    csv_text = bench.to_csv(series)
    if args.out and args.out != "-":
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(csv_text)
        except OSError as err:
            raise ConsentryError(
                f"cannot write {args.out}: {err.strerror or err}") from None
        print(f"wrote {args.steps * args.reps} samples to {args.out}",
              file=sys.stderr)
    else:
        sys.stdout.write(csv_text)
    return 0


# -- explain -------------------------------------------------------------------


def _covered(reach: tuple[int, int | None], horizon: int) -> range:
    """The steps of a reach [lo, hi) from `ConsentRecord.reach`, up to horizon."""
    lo, hi = reach
    return range(lo, horizon + 1 if hi is None else min(hi, horizon + 1))


def _render_region(consent, horizon: int) -> str:
    width = max(4, len(str(horizon)) + 2)
    steps = range(1, horizon + 1)
    header = " " * width + "".join(f"{format_step(t):>{width}}" for t in steps)
    # Each access step's reach, read once: the collection steps it covers.
    columns = [_covered(consent.reach(ActionType.ACCESS, t_a), t_a) for t_a in steps]
    lines = [header]
    for t_c in steps:
        cells = (" " if t_a < t_c else "#" if t_c in column else "."
                 for t_a, column in zip(steps, columns))
        lines.append(f"{format_step(t_c):>{width}}"
                     + "".join(f"{cell:>{width}}" for cell in cells))
    return "\n".join(lines)


def cmd_explain(args: argparse.Namespace) -> int:
    report = run_script(_read(args.script))
    ledger = report.ledger
    consent = ledger.consent(args.consent.lstrip(":"))
    graph = ledger.ontology
    horizon = report.final_step + 2 if args.horizon is None else args.horizon
    if horizon < 1:
        raise ConsentryError(f"horizon must be at least 1, got {horizon}")
    grant_kind = "retroactive" if consent.grant_retroactive else "non-retroactive"
    print(f":{consent.label or consent.id}  data={graph.name_of(consent.data_concept)}"
          f"  subject={consent.subject}"
          f"  recipient={graph.name_of(consent.recipient_concept)}")
    line = f"granted at {format_step(consent.granted_at)} ({grant_kind})"
    if consent.withdrawal is not None:
        w_kind = "retroactive" if consent.withdrawal.retroactive else "non-retroactive"
        line += f"; withdrawn at {format_step(consent.withdrawal.step)} ({w_kind})"
    print(line)
    print(f"covered (rows: collection step, columns: access step, horizon "
          f"{format_step(horizon)}):")
    print(_render_region(consent, horizon))
    collectable = [format_step(t) for t in
                   _covered(consent.reach(ActionType.COLLECT, horizon), horizon)]
    print("collection allowed at: " + (" ".join(collectable) or "(never)"))
    return 0


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="consentry",
        description="Consent-evolution authorization engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a consent script")
    p_run.add_argument("script", help="path to the script")
    p_run.add_argument("--json", action="store_true", help="emit a JSON report")

    p_mon = sub.add_parser("monitor", help="scan consent/access logs for violations")
    p_mon.add_argument("manifest", help="declarations manifest (new-statements only)")
    p_mon.add_argument("consent_log", help="JSONL grant/withdraw log")
    p_mon.add_argument("access_log", help="JSONL collect/access log")
    p_mon.add_argument("--epoch", help="ISO-8601 instant of step 1 (default: the "
                                       "earliest instant either log mentions)")
    p_mon.add_argument("--step-duration",
                       help=f"step length, e.g. 1d or 6h (default: "
                            f"${STEP_DURATION_ENV} or {DEFAULT_STEP_DURATION})")
    p_mon.add_argument("--json", action="store_true", help="emit a JSON report")

    p_sim = sub.add_parser("simulate", help="run a timing scenario, emit CSV")
    p_sim.add_argument("--scenario", required=True, choices=bench.scenario_names())
    p_sim.add_argument("--steps", type=int, required=True,
                       help="number of steps to simulate")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--reps", type=int, default=bench.REPS)
    p_sim.add_argument("--out", default="-", help="CSV path ('-' for stdout)")

    p_exp = sub.add_parser("explain",
                           help="show one consent's authorization region")
    p_exp.add_argument("script", help="path to the script that grants the consent")
    p_exp.add_argument("--consent", required=True, help="consent label, e.g. :consent1")
    p_exp.add_argument("--horizon", type=int,
                       help="largest step to draw (default: final step + 2)")

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` reads its arguments with, built on first use: a
    command pays for it once per process, and importing pays nothing. It
    holds no function: `main` finds a command's, `cmd_<name>`, when it runs."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return globals()[f"cmd_{args.command}"](args)
    except ConsentryError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        if was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
