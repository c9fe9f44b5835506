"""Seeded input generators for the three benchmark workloads.

Each generator writes the inputs a worker reads (log files, a script or
an op list) into one directory and returns, separately, the verdicts the
engine must reach. Expected verdicts come from `consentry.oracle`, the
naive reference semantics, never from the engine under test.

The oracle answers a query from the consents' final state. That is exact
because every generator keeps one order within a step: grants and
withdrawals first, then the step's reads. A withdrawal at a later step
changes no verdict at an earlier one, and a grant only counts from its
own step on, which the oracle's `granted_at <= at` filter already says.

Counts are fixed per size rather than drawn from the seed, and values
that decide the engine's work are dealt from a fixed set (`_dealt`), so
that the seed changes which records there are but not how many of each
kind. That keeps the cost of one seed's input close to another's, which
the benchmark's bounds need.

`scale` shrinks every count, for the benchmark's smoke tests.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from itertools import combinations
from pathlib import Path

from consentry import oracle
from consentry.oracle import ConceptFacts, ConsentSpec, FiniteScenario, QuerySpec

WORKLOADS = ("fleet-scan", "long-history", "evolving-script")

EPOCH = datetime(2024, 1, 1, tzinfo=timezone.utc)
DAY = timedelta(days=1)


def _count(full: int, scale: float, least: int = 1) -> int:
    return max(least, round(full * scale))


def _facts(root: str, edges: list, equivs: list = (), disjoint: list = ()) -> ConceptFacts:
    # The oracle's ancestor fixpoint sweeps the edge list until nothing
    # changes. Listing children before their parents lets one sweep climb a
    # whole chain; the order carries no meaning in the facts themselves.
    return ConceptFacts(root, tuple(reversed(edges)), tuple(equivs), tuple(disjoint))


@dataclass(frozen=True)
class Read:
    """One engine read (event or check) and the ontology it sees."""

    query: QuerySpec
    data_facts: ConceptFacts


def oracle_verdicts(reads: list[Read], consents: list[ConsentSpec],
                    recipient_facts: ConceptFacts, horizon: int) -> list[bool]:
    """Answer every read with `oracle.oracle_check`, in input order.

    Reads are answered subject by subject, since only a subject's own
    consents can match, and the oracle's region cache is dropped between
    subjects to keep its materialized grids small.
    """
    by_subject: dict[str, list[ConsentSpec]] = {}
    for c in consents:
        by_subject.setdefault(c.subject, []).append(c)
    order: dict[str, list[int]] = {}
    for i, read in enumerate(reads):
        order.setdefault(read.query.subject, []).append(i)
    verdicts: list[bool] = [False] * len(reads)
    for subject, indices in order.items():
        mine = tuple(by_subject.get(subject, ()))
        for i in indices:
            read = reads[i]
            scenario = FiniteScenario(horizon, read.data_facts, recipient_facts,
                                      (subject,), mine, (read.query,))
            verdicts[i] = oracle.oracle_check(scenario, read.query)
        oracle.oracle_region.cache_clear()
    return verdicts


def _dealt(rng: random.Random, values: list) -> list:
    """The same values for every seed, in seeded order.

    Dealing a fixed set instead of drawing each value keeps counts that
    decide the engine's work (how many records ask at random, how many
    consents a subject holds) equal across seeds.
    """
    rng.shuffle(values)
    return values


def _flags(rng: random.Random, count: int, marked: int) -> list[bool]:
    """`count` flags, exactly `marked` of them true, in seeded order."""
    return _dealt(rng, [True] * marked + [False] * (count - marked))


def _stamp(instant: datetime) -> str:
    return instant.strftime("%Y-%m-%dT%H:%M:%SZ")


def _day(step: int) -> datetime:
    return EPOCH + (step - 1) * DAY


# -- fleet-scan -----------------------------------------------------------
#
# Many subjects with a few consents each, short access windows: consent
# matching dominates `check`, coverage per query is tiny, and the logs
# are parsed twice (once for the default epoch, once for the scan).

FLEET = {"subjects": 300, "consents": 1000, "concepts": 60, "recipients": 10,
         "steps": 60, "records": 12000}
FLEET_MAX_WINDOW = 7  # steps in an access record's collection window
FLEET_ACCESS_SECONDS = 80000  # access records spread over 01:00..23:13
FLEET_FROM_START = 0.3  # share of consents granted at step 1


def fleet_scan(seed: int, out: Path, scale: float = 1.0) -> dict:
    rng = random.Random(f"fleet-scan/{seed}")
    n_subjects = _count(FLEET["subjects"], scale, 2)
    n_consents = _count(FLEET["consents"], scale, 2)
    n_concepts = _count(FLEET["concepts"], scale, 4)
    n_recipients = _count(FLEET["recipients"], scale, 2)
    steps = _count(FLEET["steps"], scale, 3)
    n_records = _count(FLEET["records"], scale, steps)

    # A fixed tree shape, so that every seed's reads find consents above
    # them about as often: a few top-level concepts, three children each.
    concepts = [f"D{i}" for i in range(n_concepts)]
    top = max(1, n_concepts // 10)
    parent = {name: "Data" if i < top else concepts[(i - top) // 3]
              for i, name in enumerate(concepts)}
    below: dict[str, list[str]] = {name: [name] for name in concepts}
    for name in concepts:
        up = parent[name]
        while up != "Data":
            below[up].append(name)
            up = parent[up]
    recipients = [f"R{i}" for i in range(n_recipients)]
    subjects = [f"s{i:03d}" for i in range(n_subjects)]
    manifest = [f"new data {name} {parent[name]}" for name in concepts]
    manifest += [f"new recipient {r}" for r in recipients]

    # Every seed holds the same (data, recipient, grant step) triples; the
    # seed decides who holds each one, the flavours and the withdrawals.
    # Fixed triples keep the work of matching alike from seed to seed: each
    # pair of a concept and a recipient is covered from about the same
    # steps. Concepts and recipients cycle against steps in increasing
    # order, three in five on the upper third of the tree; the last
    # recipient holds no consent. A share of consents date from step 1, the
    # rest follow the minimum of two uniform draws, read off at quantiles.
    consented = recipients[:-1]
    shallow = concepts[: max(1, n_concepts // 3)]
    from_start = round(FLEET_FROM_START * n_consents)
    triples = _dealt(rng, [
        (shallow[i % len(shallow)] if i % 5 < 3 else concepts[i % n_concepts],
         consented[i % len(consented)],
         1 if i < from_start else
         1 + int(steps * (1 - math.sqrt(1 - (i - from_start) / (n_consents - from_start)))))
        for i in range(n_consents)])
    holder = _dealt(rng, [subjects[i % n_subjects] for i in range(n_consents)])
    grant_retro = _flags(rng, n_consents, n_consents // 2)
    withdrawn = _flags(rng, n_consents, round(0.3 * n_consents))
    withdraw_retro = _flags(rng, n_consents, n_consents // 2)

    consents: list[ConsentSpec] = []
    changes: dict[int, list[dict]] = {}  # step -> consent records that day
    for i, (data, recipient, granted) in enumerate(triples):
        spec = ConsentSpec(data, holder[i], recipient, granted, grant_retro[i])
        cid = f"c{i:04d}"
        changes.setdefault(granted, []).append({
            "action": "grant", "consent_id": cid, "data_concept": spec.data,
            "subject": spec.subject, "recipient_concept": spec.recipient,
            "retroactive": spec.grant_retroactive})
        if withdrawn[i] and granted < steps:
            step = rng.randint(granted + 1, steps)
            spec = ConsentSpec(spec.data, spec.subject, spec.recipient, granted,
                               spec.grant_retroactive, step, withdraw_retro[i])
            changes.setdefault(step, []).append(
                {"action": "withdraw", "consent_id": cid, "retroactive": withdraw_retro[i]})
        consents.append(spec)

    consent_lines = []
    for step in sorted(changes):
        # Consent records sit in the first hour of their day, so every one
        # replays before that day's access records; the very first is at
        # the epoch, which `monitor` takes as step 1 when none is given.
        for k, record in enumerate(changes[step]):
            line = {"timestamp": _stamp(_day(step) + timedelta(seconds=k))}
            line.update(record)
            consent_lines.append(json.dumps(line))

    by_subject: dict[str, list[ConsentSpec]] = {}
    for c in consents:
        by_subject.setdefault(c.subject, []).append(c)
    facts = _facts("Data", [(name, parent[name]) for name in concepts])
    access_lines, reads = [], []
    per_day = [n_records // steps + (1 if d < n_records % steps else 0)
               for d in range(steps)]
    for step in range(1, steps + 1):
        count = per_day[step - 1]
        # Exact shares per day rather than a coin per record: one in twenty
        # records names the recipient nobody consented to (a full scan of
        # the ledger finds no consent), a fifth ask at random, the rest
        # below one of the subject's own consents; half are accesses.
        kind = ["unconsented"] * (count // 20) + ["random"] * (count // 5)
        kind = _dealt(rng, kind + ["own"] * (count - len(kind)))
        accesses = _flags(rng, count, count // 2)
        for j in range(count):
            subject = rng.choice(subjects)
            own = by_subject.get(subject)
            if kind[j] == "own" and own:
                c = rng.choice(own)
                data = rng.choice(below[c.data])
                recipient = c.recipient if rng.random() < 0.9 else rng.choice(consented)
            else:
                data = rng.choice(concepts)
                recipient = recipients[-1] if kind[j] == "unconsented" else \
                    rng.choice(consented)
            at = _day(step) + timedelta(seconds=3600 + j * FLEET_ACCESS_SECONDS // count)
            record = {"timestamp": _stamp(at), "action": "collect",
                      "data_concept": data, "subject": subject,
                      "recipient_concept": recipient}
            start, end = step, step + 1
            if accesses[j]:
                hi = max(1, step - rng.randint(0, 2))
                lo = max(1, hi - rng.randint(0, FLEET_MAX_WINDOW - 1))
                record["action"] = "access"
                record["collected_from"] = _stamp(_day(lo) + timedelta(minutes=30))
                record["collected_to"] = _stamp(_day(hi) + timedelta(minutes=30))
                start, end = lo, hi + 1
            access_lines.append(json.dumps(record))
            reads.append(Read(QuerySpec(record["action"], data, subject, recipient,
                                        step, start, end), facts))

    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.consent").write_text("\n".join(manifest) + "\n")
    (out / "consents.jsonl").write_text("\n".join(consent_lines) + "\n")
    (out / "accesses.jsonl").write_text("\n".join(access_lines) + "\n")
    recipient_facts = _facts("Recipient", [(r, "Recipient") for r in recipients])
    verdicts = oracle_verdicts(reads, consents, recipient_facts, steps)
    return {
        "ops": len(consent_lines) + len(access_lines),
        "authorized": verdicts,
        "size": {"subjects": n_subjects, "consents": n_consents,
                 "consent_records": len(consent_lines), "concepts": n_concepts,
                 "recipients": n_recipients, "steps": steps,
                 "access_records": len(access_lines)},
    }


# -- long-history ------------------------------------------------------------
#
# Few subjects, many steps, every read spans all history: per-step
# coverage inside `check` dominates and memory grows with the decisions
# kept on recorded events. The only workload that asks in possible mode.

LONG = {"subjects": 4, "steps": 400}
LONG_CHURN_EVERY = 90  # steps between withdraw-and-regrant cycles
_FLAVOURS = [(False, False), (False, True), (True, False), (True, True)]


def long_history(seed: int, out: Path, scale: float = 1.0) -> dict:
    rng = random.Random(f"long-history/{seed}")
    n_subjects = _count(LONG["subjects"], scale, 2)
    steps = _count(LONG["steps"], scale, 3)
    churn_every = min(LONG_CHURN_EVERY, max(2, steps // 4))
    subjects = [f"s{i}" for i in range(n_subjects)]

    preamble = [["declare_data", "Location"], ["declare_data", "Gps", "Location"],
                ["declare_data", "Health"], ["declare_recipient", "Partner"],
                ["declare_disjoint", "Health", "Location"]]
    facts = _facts("Data", [("Location", "Data"), ("Gps", "Location"),
                            ("Health", "Data")], disjoint=[("Health", "Location")])

    # Which flavours a subject's history holds decides how many collection
    # steps its all-history reads leave uncovered, and so their cost. Every
    # seed deals the same histories, a Latin square of the four
    # (withdrawal, regrant) retroactivity pairs over the churns, and only
    # decides which subject gets which.
    churns = steps // churn_every
    histories = [[_FLAVOURS[(i + k) % len(_FLAVOURS)] for k in range(churns + 1)]
                 for i in range(n_subjects)]
    rng.shuffle(histories)

    consents: list[ConsentSpec] = []
    live: dict[str, tuple[int, str]] = {}  # subject -> current consent, label
    for subject, history in zip(subjects, histories):
        retro = history[0][1]
        live[subject] = (len(consents), f"{subject}_1")
        consents.append(ConsentSpec("Location", subject, "Partner", 1, retro))
        preamble.append(["grant", "Location", subject, "Partner", retro,
                         f"{subject}_1"])

    ops, reads = [], []
    for step in range(1, steps + 1):
        if step > 1:
            ops.append(["advance"])
        if step % churn_every == 0:
            for subject, history in zip(subjects, histories):
                w_retro, g_retro = history[step // churn_every]
                index, label = live[subject]
                old = consents[index]
                consents[index] = ConsentSpec(
                    old.data, subject, old.recipient, old.granted_at,
                    old.grant_retroactive, step, w_retro)
                ops.append(["withdraw", label, w_retro])
                live[subject] = (len(consents), f"{subject}_{step}")
                consents.append(ConsentSpec("Location", subject, "Partner", step, g_retro))
                ops.append(["grant", "Location", subject, "Partner", g_retro,
                            f"{subject}_{step}"])
        for subject in subjects:
            # Either concept of each check is covered by the same consents
            # at the same cost; the seed picks which one is asked.
            for op, mode, data in (("collect", "guaranteed", "Gps"),
                                   ("access", "guaranteed", "Gps"),
                                   ("check", "guaranteed", rng.choice(("Location", "Gps"))),
                                   ("check", "possible", rng.choice(("Data", "Location")))):
                if op == "check":
                    ops.append(["check", mode, data, subject, "Partner"])
                else:
                    ops.append([op, data, subject, "Partner"])
                action = "collect" if op == "collect" else "access"
                start = step if op == "collect" else 1
                reads.append(Read(QuerySpec(action, data, subject, "Partner", step,
                                            start, step + 1, mode), facts))

    out.mkdir(parents=True, exist_ok=True)
    (out / "ops.json").write_text(json.dumps({"preamble": preamble, "ops": ops}))
    verdicts = oracle_verdicts(reads, consents, _facts("Recipient", [("Partner", "Recipient")]),
                               steps)
    return {
        "ops": len(ops),
        "authorized": verdicts,
        "size": {"subjects": n_subjects, "steps": steps, "churn_every": churn_every,
                 "consents": len(consents), "ops": len(ops), "reads": len(reads)},
    }



# -- evolving-script -----------------------------------------------------------
#
# The ontology grows between reads: new concepts every step in chains
# 30+ deep, redeclarations under a second parent (which flush the
# ancestor cache), a three-way disjointness every other step and an
# equivalence every ten, which rescans every recorded event. Concept
# domains never share an edge, so no declaration is rejected and no
# concept turns unsatisfiable.

EVOLVE = {"subjects": 40, "steps": 150, "new_per_step": 14, "events_per_step": 25,
          "assumes_per_step": 20}
EVOLVE_DOMAINS = 4
EVOLVE_SEED_CONCEPTS = 5  # per domain, declared before the first step
EVOLVE_PARENT_WINDOW = 40  # a new concept goes under one of its domain's latest
EVOLVE_RECIPIENTS = 6
EVOLVE_REDECLARE_EVERY = 5
EVOLVE_DISJOINT_EVERY = 2
EVOLVE_EQUIV_EVERY = 10
EVOLVE_MAX_WINDOW = 5


def evolving_script(seed: int, out: Path, scale: float = 1.0) -> dict:
    rng = random.Random(f"evolving-script/{seed}")
    n_subjects = _count(EVOLVE["subjects"], scale, 2)
    steps = _count(EVOLVE["steps"], scale, 3)
    new_per_step = _count(EVOLVE["new_per_step"], scale, 2)
    n_events = _count(EVOLVE["events_per_step"], scale, 2)
    n_assumes = _count(EVOLVE["assumes_per_step"], scale, 2)
    subjects = [f"u{i:02d}" for i in range(n_subjects)]
    recipients = [f"R{i}" for i in range(EVOLVE_RECIPIENTS)]

    lines: list = []  # script lines; (read index, text) marks an assume line
    edges: list[tuple[str, str]] = []
    equivs: list[tuple[str, str]] = []
    disjoint: list[tuple[str, str]] = []
    domains: list[list[str]] = []
    parents: dict[str, set[str]] = {}
    snapshot: ConceptFacts | None = None  # the data ontology as reads see it now

    def facts() -> ConceptFacts:
        nonlocal snapshot
        if snapshot is None:
            snapshot = _facts("Data", edges, equivs, disjoint)
        return snapshot

    def declare(name: str, parent: str) -> None:
        nonlocal snapshot
        lines.append(f"new data {name} {parent}")
        edges.append((name, parent))
        parents.setdefault(name, set()).add(parent)
        snapshot = None

    def new_concept(domain: list[str]) -> None:
        name = f"C{sum(len(d) for d in domains)}"
        declare(name, rng.choice(domain[-EVOLVE_PARENT_WINDOW:]))
        domain.append(name)

    for d in range(EVOLVE_DOMAINS):
        root = f"Dm{d}"
        declare(root, "Data")
        domains.append([root])
        for _ in range(EVOLVE_SEED_CONCEPTS):
            new_concept(domains[d])
    lines += [f"new recipient {r}" for r in recipients]

    consents: list[ConsentSpec] = []
    active: list[int] = []
    granted_on: dict[str, list[int]] = {}

    def grant(step: int, subject: str) -> None:
        domain = rng.choice(domains)
        pool = domain[:8] if rng.random() < 0.7 else domain
        spec = ConsentSpec(rng.choice(pool), subject, rng.choice(recipients), step,
                           rng.random() < 0.5)
        retro = "retro " if spec.grant_retroactive else ""
        lines.append(f"grant {retro}{spec.data} {subject} {spec.recipient} "
                     f":g{len(consents)}")
        active.append(len(consents))
        granted_on.setdefault(spec.data, []).append(len(consents))
        consents.append(spec)

    for subject in subjects:
        for _ in range(2):
            grant(1, subject)

    reads: list[Read] = []
    event_reads: list[int] = []

    def above(name: str) -> set[str]:
        seen, todo = {name}, [name]
        while todo:
            for up in parents.get(todo.pop(), ()):
                if up not in seen:
                    seen.add(up)
                    todo.append(up)
        return seen

    def read(step: int, assume: bool, access: bool) -> None:
        # Any concept at all, so the concepts recorded events use (which an
        # equivalence must keep satisfiable) keep growing with the ontology;
        # then mostly a subject holding a consent on one of its ancestors,
        # so that timing, not a missing consent, decides the verdict.
        data = rng.choice(rng.choice(domains))
        holders = sorted(c for up in above(data) for c in granted_on.get(up, ()))
        recipient = rng.choice(recipients)
        if holders and rng.random() < 0.95:
            c = consents[rng.choice(holders)]
            subject = c.subject
            if rng.random() < 0.9:
                recipient = c.recipient
        else:
            subject = rng.choice(subjects)
        if not access:
            action, start, end = "collect", step, step + 1
            text = f"collect {data} {subject} {recipient}"
        else:
            hi = max(1, step - rng.randint(0, 2))
            start = max(1, hi - rng.randint(0, EVOLVE_MAX_WINDOW - 1))
            action, end = "access", hi + 1
            text = f"access {data} {subject} {recipient} T{start} T{end}"
        reads.append(Read(QuerySpec(action, data, subject, recipient, step, start, end),
                          facts()))
        if assume:
            lines.append((len(reads) - 1, text))
        else:
            event_reads.append(len(reads) - 1)
            lines.append(text)

    def write(kind: str) -> None:
        nonlocal snapshot
        if kind == "new":
            new_concept(rng.choice(domains))
            return
        if kind == "redeclare":
            domain = rng.choice(domains)
            name = rng.choice(domain[1:])
            options = [p for p in domain if p != name and p not in parents[name]]
            declare(name, rng.choice(options))
            return
        if kind == "disjoint":
            names = [rng.choice(domain) for domain in rng.sample(domains, 3)]
            lines.append("new disjoint " + " ".join(names))
            disjoint.extend(combinations(names, 2))
        else:
            domain = rng.choice(domains)
            for _ in range(100):  # an equivalence already implied adds nothing
                a, b = rng.sample(domain, 2)
                if not (oracle.oracle_subsumes(facts(), a, b)
                        and oracle.oracle_subsumes(facts(), b, a)):
                    lines.append(f"new equiv {a} {b}")
                    equivs.append((a, b))
                    break
        snapshot = None

    for step in range(2, steps + 1):
        lines.append("step")
        if active:
            index = active.pop(rng.randrange(len(active)))
            old = consents[index]
            retro = rng.random() < 0.5
            consents[index] = ConsentSpec(old.data, old.subject, old.recipient,
                                          old.granted_at, old.grant_retroactive, step,
                                          retro)
            lines.append(f"withdraw {'retro ' if retro else ''}:g{index}")
        grant(step, rng.choice(subjects))
        writes = ["new"] * new_per_step
        if step % EVOLVE_REDECLARE_EVERY == 0:
            writes.append("redeclare")
        if step % EVOLVE_DISJOINT_EVERY == 1:
            writes.append("disjoint")
        if step % EVOLVE_EQUIV_EVERY == 0:
            writes.append("equiv")
        n_reads = n_events + n_assumes
        body = writes + [None] * n_reads
        rng.shuffle(body)
        assumes = _flags(rng, n_reads, n_assumes)
        accesses = _flags(rng, n_reads, n_reads // 2)
        slot = 0
        for item in body:
            if item is None:
                read(step, assumes[slot], accesses[slot])
                slot += 1
            else:
                write(item)

    recipient_facts = _facts("Recipient", [(r, "Recipient") for r in recipients])
    verdicts = oracle_verdicts(reads, consents, recipient_facts, steps)
    text = []
    for line in lines:
        if isinstance(line, tuple):
            index, inner = line
            line = f"assume {'true' if verdicts[index] else 'false'} {inner}"
        text.append(line)
    out.mkdir(parents=True, exist_ok=True)
    (out / "scenario.consent").write_text("\n".join(text) + "\n")
    return {
        "ops": len(text),
        "authorized": [verdicts[i] for i in event_reads],
        "size": {"lines": len(text), "subjects": n_subjects, "steps": steps,
                 "concepts": sum(len(d) for d in domains), "consents": len(consents),
                 "events": len(event_reads), "assumes": len(reads) - len(event_reads),
                 "disjoint_pairs": len(disjoint), "equivalences": len(equivs)},
    }


GENERATORS = {"fleet-scan": fleet_scan, "long-history": long_history,
              "evolving-script": evolving_script}
