"""Spans around calls into consentry's layers, and the metrics derived from them.

The tracer replaces public functions and methods with wrappers, on the
module or class attribute the engine itself looks up, so calls the
engine makes internally are traced as well as the benchmark's own.
Nothing under `src/` changes. Each call becomes one span: a name,
start and end (ns, `time.perf_counter_ns`) and the span that was open
when it started. Spans live in flat arrays in memory and are written to
one file at the end of the run.

A layer's self time is its span's duration minus the durations of the
spans directly inside it. Unwrapped helpers count toward the nearest
wrapped caller.
"""

from __future__ import annotations

import json
import statistics
from array import array
from pathlib import Path
from time import perf_counter_ns

# (module, attribute owner, attribute, span name). Several attributes may
# share a span name: both log parsers are `monitor.parse_log`.
TARGETS = [
    ("cli", None, "main", "cli.main"),
    ("monitor", None, "parse_consent_log", "monitor.parse_log"),
    ("monitor", None, "parse_access_log", "monitor.parse_log"),
    ("monitor", None, "scan", "monitor.scan"),
    ("script", None, "tokenize", "script.tokenize"),
    ("script", None, "parse", "script.parse"),
    ("script", None, "execute", "script.execute"),
    ("core", "Ledger", "check", "core.check"),
    ("core", "Ledger", "record_event", "core.record_event"),
    ("core", "Ledger", "declare_data", "core.declare"),
    ("core", "Ledger", "declare_recipient", "core.declare"),
    ("core", "Ledger", "declare_disjoint", "core.declare"),
    ("core", "Ledger", "declare_equivalent", "core.declare"),
    ("ontology", "ConceptGraph", "subsumes", "ontology.subsumes"),
    ("ontology", "ConceptGraph", "is_unsatisfiable", "ontology.is_unsatisfiable"),
    ("ontology", "ConceptGraph", "ancestors", "ontology.ancestors"),
    ("ontology", "ConceptGraph", "are_disjoint", "ontology.are_disjoint"),
    ("ontology", "ConceptGraph", "resolve", "ontology.resolve"),
    ("ontology", "ConceptGraph", "declare_concept", "ontology.declare"),
    ("ontology", "ConceptGraph", "declare_equivalent", "ontology.declare"),
    ("ontology", "ConceptGraph", "declare_disjoint", "ontology.declare"),
    ("chronology", None, "advance", "chronology.advance"),
]


class Tracer:
    """Records one span per wrapped call; single-threaded callers only."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        # Per `core.check` span: collection steps asked about, and 1 if denied.
        self.check_span = array("i")
        self.check_steps = array("i")
        self.check_denied = array("b")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        kind_id = self.name_ids.setdefault(name, len(self.names))
        if kind_id == len(self.names):
            self.names.append(name)
        kind, parent, start, end, stack = (self.kind, self.parent, self.start,
                                           self.end, self._stack)
        probe = self._probe_check if name == "core.check" else None

        def traced(*args, **kwargs):
            index = len(start)
            kind.append(kind_id)
            parent.append(stack[-1])
            end.append(0)
            stack.append(index)
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = perf_counter_ns()
                stack.pop()
            if probe is not None:
                probe(index, args, result)
            return result

        return traced

    def _probe_check(self, index: int, args: tuple, decision) -> None:
        interval = args[1].collected_interval
        self.check_span.append(index)
        self.check_steps.append(interval.end - interval.start)
        self.check_denied.append(0 if decision.authorized else 1)

    def install(self, modules: dict) -> None:
        """Wrap every target; `modules` maps short names to imported modules."""
        for module, owner, attr, name in TARGETS:
            holder = modules[module] if owner is None else getattr(modules[module], owner)
            original = getattr(holder, attr)
            self._undo.append((holder, attr, original))
            setattr(holder, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)

    def write(self, path: Path) -> None:
        """Write every span to one file: a JSON header line, then raw arrays."""
        header = {"names": self.names, "spans": len(self.start),
                  "checks": len(self.check_span)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.kind, self.parent, self.start, self.end,
                        self.check_span, self.check_steps, self.check_denied):
                arr.tofile(fh)


def read_spans(path: Path) -> dict:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n, checks = header["spans"], header["checks"]
        spans = {"names": header["names"]}
        for key, code, count in (("kind", "i", n), ("parent", "i", n), ("start", "q", n),
                                 ("end", "q", n), ("check_span", "i", checks),
                                 ("check_steps", "i", checks),
                                 ("check_denied", "b", checks)):
            arr = array(code)
            arr.fromfile(fh, count)
            spans[key] = arr
    return spans


def _quantile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: dict) -> dict[str, float]:
    """Per-layer counts and self times (s) from one traced pass."""
    names = spans["names"]
    kind, parent, start, end = spans["kind"], spans["parent"], spans["start"], spans["end"]
    n = len(kind)
    duration = [end[i] - start[i] for i in range(n)]
    inner = [0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            inner[p] += duration[i]
    calls = {name: 0 for name in names}
    self_ns = {name: 0 for name in names}
    for i in range(n):
        name = names[kind[i]]
        calls[name] += 1
        self_ns[name] += duration[i] - inner[i]

    # Which write or read an `is_unsatisfiable` call serves: the nearest
    # enclosing `core.declare` or `core.check` span. Parents precede
    # children in the arrays, so one forward pass settles it.
    declare_id, check_id, unsat_id = (
        names.index(name) for name in ("core.declare", "core.check",
                                       "ontology.is_unsatisfiable"))
    owner = array("i", [-1]) * n
    unsat_from_declare = 0
    for i in range(n):
        k = kind[i]
        if k == declare_id or k == check_id:
            owner[i] = k
        elif parent[i] >= 0:
            owner[i] = owner[parent[i]]
        if k == unsat_id and owner[i] == declare_id:
            unsat_from_declare += 1

    def self_s(name: str) -> float:
        return self_ns[name] / 1e9

    check_us = [duration[i] / 1e3 for i in spans["check_span"]]
    checks = calls["core.check"]
    return {
        "cli.main.self_s": self_s("cli.main"),
        "monitor.parse_log.calls": calls["monitor.parse_log"],
        "monitor.parse_log.self_s": self_s("monitor.parse_log"),
        "monitor.scan.self_s": self_s("monitor.scan"),
        "script.tokenize.self_s": self_s("script.tokenize"),
        "script.parse.self_s": self_s("script.parse"),
        "script.execute.self_s": self_s("script.execute"),
        "core.check.calls": checks,
        "core.check.self_s": self_s("core.check"),
        "core.check.p50_us": _quantile(check_us, 50),
        "core.check.p99_us": _quantile(check_us, 99),
        "core.check.mean_span_steps":
            sum(spans["check_steps"]) / checks if checks else 0.0,
        "core.check.denied_share":
            sum(spans["check_denied"]) / checks if checks else 0.0,
        "core.record_event.self_s": self_s("core.record_event"),
        "core.declare.self_s": self_s("core.declare"),
        "ontology.subsumes.calls": calls["ontology.subsumes"],
        "ontology.subsumes.calls_per_check":
            calls["ontology.subsumes"] / checks if checks else 0.0,
        "ontology.subsumes.self_s": self_s("ontology.subsumes"),
        "ontology.is_unsatisfiable.calls": calls["ontology.is_unsatisfiable"],
        "ontology.is_unsatisfiable.declare_share":
            unsat_from_declare / calls["ontology.is_unsatisfiable"]
            if calls["ontology.is_unsatisfiable"] else 0.0,
        "ontology.is_unsatisfiable.self_s": self_s("ontology.is_unsatisfiable"),
        "ontology.ancestors.calls": calls["ontology.ancestors"],
        "ontology.ancestors.self_s": self_s("ontology.ancestors"),
        "ontology.declare.self_s": self_s("ontology.declare"),
        "ontology.resolve.calls": calls["ontology.resolve"],
        "ontology.are_disjoint.calls": calls["ontology.are_disjoint"],
        "ontology.are_disjoint.self_s": self_s("ontology.are_disjoint"),
        "chronology.advance.calls": calls["chronology.advance"],
    }
