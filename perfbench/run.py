"""consentry benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the engine is imported from `src/`.

Workloads (see workloads.py for the generators):

* fleet-scan: `consentry monitor ... --json` over logs of many subjects;
* long-history: direct `Ledger` calls with all-history reads;
* evolving-script: `consentry run ... --json` on a script whose ontology
  grows between reads.

Inputs are generated from the seed in this process, cached under
`perfbench/.cache/`, and reach each worker only as files. Expected
verdicts come from `consentry.oracle` and stay in this process. Each pass
runs in a fresh single-threaded worker (worker.py), one at a time, as a
closed loop with one caller; passes repeat until `--seconds` have gone
by. Every verdict of every pass is checked against the oracle.

With `--trace 0` the last line reports the end-to-end metrics:
`ops_per_s` (operations per second in the timed phase: a log record, a
script line or a `Ledger` call), `peak_rss_mb` (the worker's `ru_maxrss`)
and `setup_s` (importing consentry plus the workload's preamble), each
the median over the run's passes. The share of operations that failed
(raised, disagreed with the oracle, or failed an `assume`) is
`failed / attempted` in that line. With `--trace 1`, plain and traced
passes alternate, one more pass runs under `tracemalloc`, and the last
line reports the per-layer metrics of spans.py plus the retained bytes
and the tracing overhead.

Throughput is given at a fixed reference speed. On a shared host the
same pass can take half as long again while another tenant loads the
core. Each worker therefore times a fixed pure-Python loop
(`worker.reference_s`) before set-up and after the timed phase, and each
pass's throughput is scaled by that loop's mean time over `REFERENCE_S`.
The unscaled median is printed with the environment. Set-up time is not
scaled: it is mostly imports, whose time does not follow the loop's.

The line before the result records the environment: Python version, CPU
count, seed, garbage collection left on, and no CPU pinning or frequency
control by this benchmark.

The benchmark's own smoke tests run with `python3 -m pytest perfbench -q`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = HERE / ".cache"
SETUP_SAMPLES = 15  # set-up measurements per run, topped up with set-up-only passes
# Time of worker.reference_s on an uncontended core of a 2-CPU x86-64 host
# under CPython 3.11. Throughput is reported at this reference speed: each
# pass's is scaled by reference_s next to it over this constant, which only
# sets the scale of the figures.
REFERENCE_S = 0.12
WORKER_TIMEOUT_S = 120

END_TO_END_UNITS = {"ops_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(RuntimeError):
    """A worker crashed or timed out: no measurement can be reported."""


def prepare(workload: str, seed: int, cache: Path, scale: float = 1.0) -> tuple[Path, dict]:
    """Generate (or reuse) the inputs and expected verdicts for one seed."""
    import workloads

    # Inputs are keyed by the generators' source too, so that editing them
    # never reuses stale inputs.
    source = hashlib.sha256(Path(workloads.__file__).read_bytes()).hexdigest()[:12]
    where = cache / f"{workload}-{seed}-x{scale}-{source}"
    expected_path = where / "expected.json"
    if expected_path.is_file():
        return where / "inputs", json.loads(expected_path.read_text())
    shutil.rmtree(where, ignore_errors=True)
    expected = workloads.GENERATORS[workload](seed, where / "inputs", scale)
    partial = expected_path.with_suffix(".partial")
    partial.write_text(json.dumps(expected))
    partial.replace(expected_path)  # written last: its presence marks a whole cache entry
    return where / "inputs", expected


def count_failed(workload: str, expected: dict, answers: dict) -> int:
    """Operations of one pass that raised or disagreed with the oracle."""
    if answers.get("exit") == 2:  # the CLI rejected its input: nothing was done
        return expected["ops"]
    want = expected["authorized"]
    if workload == "fleet-scan":
        denied = {line for line, ok in enumerate(want, start=1) if not ok}
        got = set(answers["denied_lines"])
        return len(denied ^ got) + abs(answers["events_scanned"] - len(want))
    got = answers["authorized"]
    failed = sum(1 for a, b in zip(want, got) if a is not b) + abs(len(want) - len(got))
    if workload == "evolving-script":
        return failed + answers["assumes_failed"]
    return failed + answers["failed_writes"]


def worker(workload: str, mode: str, inputs: Path, scratch: Path, index: int) -> dict:
    result_path = scratch / f"{mode}-{index}.json"
    env = dict(os.environ)
    env.pop("CONSENT_STEP_DURATION", None)  # monitor's default step is one day
    # glibc raises its mmap threshold after freeing a large block, and where
    # that happens moves peak RSS by ~2 MB from one input to the next. A
    # fixed threshold (glibc's initial value) keeps peak_rss_mb to the
    # engine's own memory.
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), workload, mode, str(inputs),
         str(result_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0 or not result_path.is_file():
        raise BenchError(f"{mode} worker for {workload} exited with {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(result_path.read_text())


def run(workload: str, seed: int, seconds: float, trace: bool, cache: Path,
        scale: float = 1.0, expected: dict | None = None) -> dict:
    """Measure one workload; return the result object and what it rests on.

    `expected` replaces the oracle's verdicts (the smoke tests use it to
    plant a wrong one).
    """
    import spans

    inputs, oracle_expected = prepare(workload, seed, cache, scale)
    expected = expected or oracle_expected
    scratch = inputs.parent / "passes"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir()

    passes: dict[str, list[dict]] = {"plain": [], "traced": [], "alloc": []}
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        for mode in ("plain", "traced") if trace else ("plain",):
            passes[mode].append(worker(workload, mode, inputs, scratch, index))
        index += 1
        if time.perf_counter() >= deadline:
            break
    setups = passes["plain"][:]
    if trace:
        passes["alloc"].append(worker(workload, "alloc", inputs, scratch, index))
    else:
        while len(setups) < SETUP_SAMPLES:
            setups.append(worker(workload, "setup", inputs, scratch, len(setups)))

    measured = [p for mode in passes.values() for p in mode]
    attempted = sum(p["ops"] for p in measured)
    failed = sum(count_failed(workload, expected, p) for p in measured)
    if trace:
        layers = [spans.layer_metrics(spans.read_spans(scratch / f"traced-{i}.spans"))
                  for i in range(len(passes["traced"]))]
        values = {name: statistics.median(layer[name] for layer in layers)
                  for name in layers[0]}
        retained = passes["alloc"][0]["retained_mb"]
        values["core.retained_mb"] = retained.get("core", 0.0)
        values["ontology.retained_mb"] = retained.get("ontology", 0.0)
        # Each traced pass ran right after a plain one; pairing them keeps
        # drift in the host's speed out of the comparison.
        values["trace.overhead_share"] = 1 - statistics.median(
            scaled_ops_per_s(traced) / scaled_ops_per_s(plain)
            for plain, traced in zip(passes["plain"], passes["traced"]))
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in values.items()}
    else:
        values = {"ops_per_s": statistics.median(map(scaled_ops_per_s, passes["plain"])),
                  "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes["plain"]),
                  "setup_s": statistics.median(p["setup_s"] for p in setups)}
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in values.items()}
    shutil.rmtree(scratch, ignore_errors=True)
    return {
        "result": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                   "metrics": metrics},
        "passes": {mode: len(p) for mode, p in passes.items()},
        "setup_samples": len(setups),
        "unscaled_ops_per_s": statistics.median(p["ops"] / p["timed_s"]
                                                for p in passes["plain"]),
        "reference_s": statistics.median(r for p in measured for r in p["reference_s"]),
        "size": expected["size"],
    }


def scaled_ops_per_s(result: dict) -> float:
    """Throughput of one pass at the reference speed (see REFERENCE_S)."""
    reference = statistics.fmean(result["reference_s"])
    return result["ops"] / result["timed_s"] * reference / REFERENCE_S


def layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[1]
    return {"calls": "count", "self_s": "s", "p50_us": "us", "p99_us": "us",
            "mean_span_steps": "steps", "calls_per_check": "calls/check",
            "retained_mb": "MB"}.get(suffix, "share")


def environment(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "gc": "enabled",
        "cpu_pinning": "none",
        "cpu_frequency_control": "none",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fleet-scan", "long-history", "evolving-script"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "consentry" / "__init__.py").is_file():
        print(f"error: no consentry sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        outcome = run(args.workload, args.seed, args.seconds, bool(args.trace), CACHE)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    result = outcome["result"]
    env = environment(args.workload, args.seed, args.seconds, bool(args.trace))
    env.update({key: outcome[key] for key in ("passes", "setup_samples", "reference_s",
                                              "unscaled_ops_per_s", "size")})
    env["failed_share"] = result["failed"] / result["attempted"]
    print("environment " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
