"""One pass of one workload, in a fresh single-threaded process.

    python3 perfbench/worker.py WORKLOAD MODE INPUT_DIR RESULT_JSON

MODE is one of:

* setup: import consentry and run the workload's preamble, nothing more;
* plain: setup, then the timed phase, with nothing wrapped;
* traced: the same with every layer wrapped (see spans.py); spans are
  written next to RESULT_JSON;
* alloc: the same under `tracemalloc`, reporting the bytes still
  allocated at the end by consentry source file.

The worker sees only the generated inputs, never the expected verdicts.
It reports what the engine answered; the parent checks it. Garbage
collection stays enabled, as users run the engine.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "consentry"


REFERENCE_LOOPS = 150_000


class _Node:
    def __init__(self, key: int, seen: frozenset):
        self.key = key
        self.seen = seen


def reference_s() -> float:
    """Time a fixed pure-Python loop: how fast this core runs just now.

    On a shared host other tenants can slow a core by half for seconds at
    a time, which moves every timing with it. The parent scales each pass
    by this loop's time next to it; consentry code never runs inside it.
    The loop mixes what the engine does most: lookups in a table larger
    than the CPU caches, small objects and frozensets.
    """
    began = perf_counter()
    table = {i: (i, None) for i in range(1 << 16)}
    kept, key = [], 1
    for i in range(REFERENCE_LOOPS):
        key = (key * 1103515245 + 12345) & 0xFFFF
        value, _ = table[key]
        node = _Node(value, frozenset((value, i)))
        if i & 3 == 0:
            kept.append(node)
    return perf_counter() - began


def _read(path: Path) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _cli(cli, argv: list[str], out: Path) -> tuple[int, Path]:
    """Call `cli.main` with its report going to a file, as when redirected."""
    with open(out, "w", encoding="utf-8") as fh, redirect_stdout(fh):
        return cli.main(argv), out


def _report(raw: tuple[int, Path]) -> dict | None:
    code, out = raw
    return None if code == 2 else json.loads(_read(out))


class FleetScan:
    """`consentry monitor MANIFEST CONSENTS ACCESSES --json`, default epoch."""

    def __init__(self, inputs: Path, out: Path):
        self.files = [str(inputs / name) for name in
                      ("manifest.consent", "consents.jsonl", "accesses.jsonl")]
        self.out = out
        self.ops = sum(1 for path in self.files[1:] for line in _read(Path(path)).splitlines()
                       if line.strip())

    def setup(self) -> None:
        from consentry import cli, monitor, script
        from consentry.core import Ledger

        script.execute(monitor.parse_manifest(_read(Path(self.files[0]))), Ledger())
        self.cli = cli

    def run(self) -> tuple[int, Path]:
        return _cli(self.cli, ["monitor", *self.files, "--json"], self.out)

    @staticmethod
    def answers(raw: tuple[int, Path]) -> dict:
        report = _report(raw)
        if report is None:
            return {"exit": 2}
        return {"exit": raw[0], "events_scanned": report["events_scanned"],
                "denied_lines": sorted(v["line"] for v in report["violations"])}


class EvolvingScript:
    """`consentry run SCRIPT --json` on a script whose ontology keeps growing."""

    def __init__(self, inputs: Path, out: Path):
        self.path = str(inputs / "scenario.consent")
        self.out = out
        self.text = _read(Path(self.path))
        self.ops = sum(1 for line in self.text.splitlines() if line.strip())

    def setup(self) -> None:
        from consentry import cli, script

        lines = self.text.splitlines()
        script.run_script("\n".join(lines[:lines.index("step")]))
        self.cli = cli

    def run(self) -> tuple[int, Path]:
        return _cli(self.cli, ["run", self.path, "--json"], self.out)

    @staticmethod
    def answers(raw: tuple[int, Path]) -> dict:
        report = _report(raw)
        if report is None:
            return {"exit": 2}
        return {"exit": raw[0],
                "authorized": [ev["authorized"] for ev in report["events"]],
                "assumes": len(report["assumes"]),
                "assumes_failed": sum(1 for a in report["assumes"] if not a["passed"])}


class LongHistory:
    """Direct `Ledger` calls: daily events and all-history checks."""

    def __init__(self, inputs: Path, out: Path):
        spec = json.loads(_read(inputs / "ops.json"))
        self.preamble, self.op_list = spec["preamble"], spec["ops"]
        self.ops = len(self.op_list)

    def setup(self) -> None:
        from consentry import ConsentryError, Ledger
        from consentry.core import ActionType, Mode

        self.error = ConsentryError
        self.collect, self.access = ActionType.COLLECT, ActionType.ACCESS
        self.modes = {"guaranteed": Mode.GUARANTEED, "possible": Mode.POSSIBLE}
        self.ledger = Ledger()
        for op in self.preamble:
            self._apply(op)

    def _apply(self, op: list):
        led, kind = self.ledger, op[0]
        if kind == "advance":
            led.advance()
        elif kind == "collect":
            return led.record_event(self.collect, op[1], op[2], op[3]).verdict.authorized
        elif kind == "access":
            return led.record_event(self.access, op[1], op[2], op[3]).verdict.authorized
        elif kind == "check":
            query = led.access_query(op[2], op[3], op[4], mode=self.modes[op[1]])
            return led.check(query).authorized
        elif kind == "grant":
            led.grant(op[1], op[2], op[3], retroactive=op[4], label=op[5])
        elif kind == "withdraw":
            led.withdraw(op[1], retroactive=op[2])
        elif kind == "declare_data":
            led.declare_data(*op[1:])
        elif kind == "declare_recipient":
            led.declare_recipient(*op[1:])
        elif kind == "declare_disjoint":
            led.declare_disjoint(*op[1:])
        else:
            raise ValueError(f"unknown op {kind!r}")
        return None

    def run(self) -> tuple[list, int]:
        reads = ("collect", "access", "check")
        verdicts, failed_writes = [], 0
        for op in self.op_list:
            read = op[0] in reads
            try:
                verdict = self._apply(op)
            except self.error:
                verdict = None  # a read that raised disagrees with any verdict
                failed_writes += not read
            if read:
                verdicts.append(verdict)
        return verdicts, failed_writes

    @staticmethod
    def answers(raw: tuple[list, int]) -> dict:
        verdicts, failed_writes = raw
        return {"exit": 0, "authorized": verdicts, "failed_writes": failed_writes}


RUNNERS = {"fleet-scan": FleetScan, "long-history": LongHistory,
           "evolving-script": EvolvingScript}


def _retained_by_file(snapshot: tracemalloc.Snapshot) -> dict[str, float]:
    """Live bytes (MB) per consentry source file that allocated them."""
    prefix = str(SOURCE) + os.sep
    return {Path(stat.traceback[0].filename).stem: stat.size / 2**20
            for stat in snapshot.statistics("filename")
            if stat.traceback[0].filename.startswith(prefix)}


def main(argv: list[str]) -> int:
    workload, mode, inputs, result_path = argv
    if mode == "alloc":
        tracemalloc.start()
    sys.path.insert(0, str(ROOT / "src"))
    runner = RUNNERS[workload](Path(inputs), Path(result_path).with_suffix(".out"))

    reference = [reference_s()]
    began = perf_counter()
    runner.setup()
    result = {"setup_s": perf_counter() - began, "ops": runner.ops,
              "reference_s": reference}
    if mode != "setup":
        from consentry import cli, chronology, core, monitor, ontology, script

        tracer = kept = None
        if mode == "traced":
            from spans import Tracer

            tracer = Tracer()
            tracer.install({"cli": cli, "chronology": chronology, "core": core,
                            "monitor": monitor, "ontology": ontology, "script": script})
        elif mode == "alloc":
            # Hold every ledger the run creates, so that what it retains is
            # still allocated when the snapshot is taken, even where
            # `cli.main` drops it before returning.
            kept = []
            plain_init = core.Ledger.__init__

            def keeping_init(self, *args, **kwargs):
                kept.append(self)
                plain_init(self, *args, **kwargs)

            core.Ledger.__init__ = keeping_init

        began = perf_counter()
        raw = runner.run()
        result["timed_s"] = perf_counter() - began
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        reference.append(reference_s())
        if tracer is not None:
            tracer.uninstall()
            tracer.write(Path(result_path).with_suffix(".spans"))
        if kept is not None:
            result["retained_mb"] = _retained_by_file(tracemalloc.take_snapshot())
            tracemalloc.stop()
        result.update(runner.answers(raw))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
