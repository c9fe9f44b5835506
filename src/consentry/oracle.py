"""Brute-force reference semantics for differential testing.

Everything here is deliberately naive and self-contained: concept facts
are plain name tuples, subsumption is a textbook fixpoint over edge
lists, and time coverage is materialized cell by cell over a finite
horizon. None of the engine's graph, cache, or interval machinery is
imported; agreement between the two code paths is evidence, not
tautology.

The covered region of a single consent over (collection step, access
step) pairs takes one of four shapes, written out case by case:

* no withdrawal, plain grant at g: a triangle from column g rightward,
  rows t_c >= g;
* no withdrawal, retroactive grant at g: every row of columns t_a >= g;
* withdrawal at w cuts the shape off: a retroactive withdrawal erases
  every column from w on, a non-retroactive one erases every row from
  w on (data collected from w is dead, old data stays readable).

Collection is one-dimensional: steps from the grant up to, not
including, any withdrawal step. Retroactivity plays no role in it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

DATA_ROOT = "Data"
RECIPIENT_ROOT = "Recipient"

# Scenario generation bounds. Small graphs and short horizons keep single
# cases readable while still covering every region shape and both modes.
MAX_DATA_CONCEPTS = 6
MAX_RECIPIENT_CONCEPTS = 3
MAX_STEPS = 10
MAX_CONSENTS = 4
MAX_QUERIES = 20
EQUIV_PROBABILITY = 0.35
DISJOINT_PROBABILITY = 0.5
WITHDRAW_PROBABILITY = 0.6
RETRO_PROBABILITY = 0.4
POSSIBLE_MODE_PROBABILITY = 0.3
SUBJECT_POOL = ("alice", "bob")


@dataclass(frozen=True)
class ConceptFacts:
    """One kind's hierarchy as flat fact lists, declaration order preserved."""

    root: str
    concepts: tuple[tuple[str, str], ...] = ()  # (name, parent name)
    equivalences: tuple[tuple[str, str], ...] = ()
    disjoint_pairs: tuple[tuple[str, str], ...] = ()

    @property
    def names(self) -> tuple[str, ...]:
        return (self.root,) + tuple(name for name, _ in self.concepts)


@dataclass(frozen=True)
class ConsentSpec:
    data: str
    subject: str
    recipient: str
    granted_at: int
    grant_retroactive: bool = False
    withdrawn_at: int | None = None
    withdraw_retroactive: bool = False


@dataclass(frozen=True)
class QuerySpec:
    """A check scheduled at step `at`. Collection interval is [start, end)."""

    action: str  # "collect" | "access"
    data: str
    subject: str
    recipient: str
    at: int
    start: int
    end: int
    mode: str = "guaranteed"  # "guaranteed" | "possible"


@dataclass(frozen=True)
class FiniteScenario:
    horizon: int
    data_facts: ConceptFacts
    recipient_facts: ConceptFacts
    subjects: tuple[str, ...]
    consents: tuple[ConsentSpec, ...]
    queries: tuple[QuerySpec, ...]


# -- naive concept reasoning ---------------------------------------------


@lru_cache(maxsize=8192)
def _ancestor_set(edges: tuple[tuple[str, str], ...],
                  equivs: tuple[tuple[str, str], ...],
                  name: str) -> frozenset[str]:
    members = {name}
    changed = True
    while changed:
        changed = False
        for child, parent in edges:
            if child in members and parent not in members:
                members.add(parent)
                changed = True
        for a, b in equivs:
            if a in members and b not in members:
                members.add(b)
                changed = True
            if b in members and a not in members:
                members.add(a)
                changed = True
    return frozenset(members)


def oracle_ancestors(facts: ConceptFacts, name: str) -> frozenset[str]:
    return _ancestor_set(facts.concepts, facts.equivalences, name)


def oracle_subsumes(facts: ConceptFacts, general: str, specific: str) -> bool:
    return general in oracle_ancestors(facts, specific)


def oracle_unsatisfiable(facts: ConceptFacts, name: str) -> bool:
    anc = oracle_ancestors(facts, name)
    return any(p in anc and q in anc for p, q in facts.disjoint_pairs)


def oracle_disjoint(facts: ConceptFacts, a: str, b: str) -> bool:
    if oracle_unsatisfiable(facts, a) or oracle_unsatisfiable(facts, b):
        return True
    anc_a = oracle_ancestors(facts, a)
    anc_b = oracle_ancestors(facts, b)
    return any(
        (p in anc_a and q in anc_b) or (p in anc_b and q in anc_a)
        for p, q in facts.disjoint_pairs
    )


# -- naive time coverage ---------------------------------------------------


@lru_cache(maxsize=1024)
def oracle_collection_steps(consent: ConsentSpec, horizon: int) -> frozenset[int]:
    g, w = consent.granted_at, consent.withdrawn_at
    steps = set()
    for t in range(1, horizon + 1):
        if t < g:
            continue
        if w is not None and t >= w:
            continue
        steps.add(t)
    return frozenset(steps)


# A region holds O(horizon**2) cells and is reused only within one scenario
# (or one subject's reads), so a few dozen are kept, not every one ever built.
@lru_cache(maxsize=32)
def oracle_region(consent: ConsentSpec, horizon: int) -> frozenset[tuple[int, int]]:
    g, w = consent.granted_at, consent.withdrawn_at
    cells = set()
    for t_a in range(1, horizon + 1):
        for t_c in range(1, t_a + 1):
            if w is None:
                if consent.grant_retroactive:
                    ok = t_a >= g
                else:
                    ok = t_c >= g  # implies t_a >= g since t_a >= t_c
            elif consent.withdraw_retroactive:
                if consent.grant_retroactive:
                    ok = t_a >= g and t_a < w
                else:
                    ok = t_c >= g and t_a < w
            else:
                if consent.grant_retroactive:
                    ok = t_a >= g and t_c < w
                else:
                    ok = t_c >= g and t_c < w
            if ok:
                cells.add((t_c, t_a))
    return frozenset(cells)


# -- full query answering ---------------------------------------------------


def _matches(scenario: FiniteScenario, consent: ConsentSpec, query: QuerySpec) -> bool:
    if consent.subject != query.subject:
        return False
    df, rf = scenario.data_facts, scenario.recipient_facts
    if query.mode == "guaranteed":
        return oracle_subsumes(df, consent.data, query.data) and \
            oracle_subsumes(rf, consent.recipient, query.recipient)
    return not oracle_disjoint(df, consent.data, query.data) and \
        not oracle_disjoint(rf, consent.recipient, query.recipient)


def oracle_check(scenario: FiniteScenario, query: QuerySpec) -> bool:
    """Answer one query by materializing every consent's covered region."""
    if oracle_unsatisfiable(scenario.data_facts, query.data):
        return False
    if oracle_unsatisfiable(scenario.recipient_facts, query.recipient):
        return False
    live = [c for c in scenario.consents if c.granted_at <= query.at]
    matching = [c for c in live if _matches(scenario, c, query)]
    if query.action == "collect":
        return any(
            query.start in oracle_collection_steps(c, scenario.horizon)
            for c in matching
        )
    regions = [oracle_region(c, scenario.horizon) for c in matching]
    for t_c in range(query.start, query.end):
        if not any((t_c, query.at) in region for region in regions):
            return False
    return True


def oracle_verdicts(scenario: FiniteScenario) -> list[bool]:
    return [oracle_check(scenario, q) for q in scenario.queries]


# -- random scenario generation ---------------------------------------------


def _generate_facts(rng: random.Random, root: str, prefix: str, max_concepts: int,
                    allow_clashes: bool) -> ConceptFacts:
    count = rng.randint(1, max_concepts)
    names = [f"{prefix}{i}" for i in range(1, count + 1)]
    concepts = []
    for i, name in enumerate(names):
        parent = rng.choice([root] + names[:i])
        concepts.append((name, parent))
    equivalences = []
    if allow_clashes and len(names) >= 2:
        while rng.random() < EQUIV_PROBABILITY:
            a, b = rng.sample(names, 2)
            equivalences.append((a, b))
    facts = ConceptFacts(root, tuple(concepts), tuple(equivalences))
    disjoint = []
    if allow_clashes and len(names) >= 2:
        while rng.random() < DISJOINT_PROBABILITY:
            a, b = rng.sample(names, 2)
            # Subsumption-related pairs cannot be declared disjoint; skip them
            # so every generated scenario replays without rejection.
            if oracle_subsumes(facts, a, b) or oracle_subsumes(facts, b, a):
                continue
            disjoint.append((a, b))
            facts = ConceptFacts(root, facts.concepts, facts.equivalences,
                                 tuple(disjoint))
    return facts


def generate_scenario(seed: int) -> FiniteScenario:
    """Deterministically generate a small random scenario from a seed."""
    rng = random.Random(seed)
    horizon = rng.randint(3, MAX_STEPS)
    data_facts = _generate_facts(rng, DATA_ROOT, "D", MAX_DATA_CONCEPTS,
                                 allow_clashes=True)
    recipient_facts = _generate_facts(rng, RECIPIENT_ROOT, "R",
                                      MAX_RECIPIENT_CONCEPTS, allow_clashes=False)
    subjects = tuple(SUBJECT_POOL[: rng.randint(1, len(SUBJECT_POOL))])
    data_names = data_facts.names
    recipient_names = recipient_facts.names

    consents = []
    for _ in range(rng.randint(0, MAX_CONSENTS)):
        granted_at = rng.randint(1, horizon)
        withdrawn_at = None
        withdraw_retro = False
        if rng.random() < WITHDRAW_PROBABILITY:
            withdrawn_at = rng.randint(granted_at, horizon)
            withdraw_retro = rng.random() < RETRO_PROBABILITY
        consents.append(ConsentSpec(
            data=rng.choice(data_names),
            subject=rng.choice(subjects),
            recipient=rng.choice(recipient_names),
            granted_at=granted_at,
            grant_retroactive=rng.random() < RETRO_PROBABILITY,
            withdrawn_at=withdrawn_at,
            withdraw_retroactive=withdraw_retro,
        ))

    queries = []
    for _ in range(rng.randint(1, MAX_QUERIES)):
        at = rng.randint(1, horizon)
        action = rng.choice(("collect", "access"))
        if action == "collect":
            start, end = at, at + 1
        else:
            start = rng.randint(1, at)
            end = rng.randint(start + 1, at + 1)
        mode = "possible" if rng.random() < POSSIBLE_MODE_PROBABILITY else "guaranteed"
        queries.append(QuerySpec(
            action=action,
            data=rng.choice(data_names),
            subject=rng.choice(subjects),
            recipient=rng.choice(recipient_names),
            at=at,
            start=start,
            end=end,
            mode=mode,
        ))

    return FiniteScenario(
        horizon=horizon,
        data_facts=data_facts,
        recipient_facts=recipient_facts,
        subjects=subjects,
        consents=tuple(consents),
        queries=tuple(queries),
    )
