"""Smoke tests of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

TINY = 0.05
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _files(where: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(where.iterdir())}


def _generate(workload: str, seed: int, out: Path, hash_seed: int) -> dict:
    # A fresh interpreter per call, with its own string hashing, so that
    # inputs may not depend on the iteration order of sets of names.
    code = ("import json, sys, workloads; from pathlib import Path; "
            "print(json.dumps(workloads.GENERATORS[sys.argv[1]]("
            "int(sys.argv[2]), Path(sys.argv[3]), float(sys.argv[4]))))")
    env = {"PYTHONPATH": f"{HERE}{os.pathsep}{HERE.parent / 'src'}",
           "PYTHONHASHSEED": str(hash_seed)}
    proc = subprocess.run([sys.executable, "-c", code, workload, str(seed), str(out),
                           str(TINY)], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(proc.stdout)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload, tmp_path):
    first = _generate(workload, 7, tmp_path / "a", hash_seed=1)
    again = _generate(workload, 7, tmp_path / "b", hash_seed=2)
    other = _generate(workload, 8, tmp_path / "c", hash_seed=1)
    assert first == again
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_a_wrong_expected_verdict_counts_as_failed(workload, tmp_path):
    _, expected = run.prepare(workload, 3, tmp_path, TINY)
    planted = dict(expected, authorized=list(expected["authorized"]))
    planted["authorized"][0] = not planted["authorized"][0]
    outcome = run.run(workload, 3, 0.01, False, tmp_path, TINY, expected=planted)
    result = outcome["result"]
    passes = sum(outcome["passes"].values())
    assert result["failed"] == passes  # one wrong verdict in every pass
    assert not result["correct"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_emitted_with_its_unit(workload, trace, tmp_path):
    result = run.run(workload, 3, 0.01, trace, tmp_path, TINY)["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "fleet-scan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
