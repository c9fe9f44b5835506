"""Monotonic concept hierarchies with subsumption, equivalence, and disjointness.

One graph holds two hierarchies that never mix: data categories under the
Data root and recipient roles under the Recipient root. Declarations only
ever add facts. Nothing is removed or renamed, so any subsumption answer
that was once provable stays provable, and cached ancestor sets only need
flushing when an existing concept gains edges.

Reasoning model: a concept's ancestors are everything reachable from it
over parent edges. An equivalence is two parent edges, each concept placed
under the other, so one walk over one relation serves both. Subsumption
is reachability. A set of concepts clashes when both sides of some
recorded disjoint pair lie inside it: two concepts are disjoint when the
union of their ancestors clashes, and a concept is unsatisfiable when its
own ancestors do.

Cost: disjoint pairs live in a partner index, concept -> the concepts
declared disjoint from it, each pair filed under one of its sides. A
clash test walks the smaller of the set and the index, with one lookup
and one set intersection per step, so it costs O(min(|set|, |index|))
steps, not O(|disjoint pairs|). Ancestor sets and satisfiability
verdicts are cached per concept. A parent edge added to an existing
concept, or rolled back, changes only the ancestor sets that hold that
concept, so `_flush` drops just those entries and their verdicts. A
rollback removes only the edges its declaration added, so an equivalence
refused between a concept and its parent keeps the parent edge. A
disjointness declaration changes no ancestor set, and it turns
unsatisfiable exactly the satisfiable concepts with both sides of a new
pair among their ancestors: one pass over the cached verdicts finds and
sets those, and the rest stay. The guard on fresh parents and
equivalences re-judges only the protected concepts whose ancestors hold a
concept that gained a parent, for the same reason; an edge away from the
recorded history costs no clash test at all. The guard on disjointness
reads the same pass: each protected concept is judged beforehand, so the
pass sees it.
"""

from __future__ import annotations

from enum import Enum
from itertools import combinations
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    ConsistencyError, DeclarationError, KindMismatchError, UnknownConceptError,
)


class ConceptKind(Enum):
    DATA = "data"
    RECIPIENT = "recipient"


DATA_ROOT = "Data"
RECIPIENT_ROOT = "Recipient"

_ROOT_NAMES = {ConceptKind.DATA: DATA_ROOT, ConceptKind.RECIPIENT: RECIPIENT_ROOT}


class Concept(NamedTuple):
    id: int
    name: str
    kind: ConceptKind


class ConceptGraph:
    """Append-only store of concept declarations with cached reachability."""

    def __init__(self):
        self._concepts: list[Concept] = []
        self._by_name: dict[str, int] = {}
        self._parents: dict[int, set[int]] = {}
        self._partners: dict[int, set[int]] = {}
        self._reach: dict[int, frozenset[int]] = {}
        # A verdict is kept only while its concept's ancestor set is cached.
        self._unsat: dict[int, bool] = {}
        self._roots: dict[ConceptKind, int] = {}
        for kind in ConceptKind:
            self._roots[kind] = self._add(_ROOT_NAMES[kind], kind)

    # -- introspection -------------------------------------------------

    def __len__(self) -> int:
        return len(self._concepts)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def concepts(self) -> Iterator[Concept]:
        return iter(self._concepts)

    def root(self, kind: ConceptKind) -> int:
        return self._roots[kind]

    def lookup(self, name: str) -> int:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownConceptError(name) from None

    def concept(self, cid: int) -> Concept:
        # Exactly int: a bool is an int too, but names no concept.
        if type(cid) is not int or not 0 <= cid < len(self._concepts):
            raise UnknownConceptError(cid)
        return self._concepts[cid]

    def name_of(self, cid: int) -> str:
        return self.concept(cid).name

    def kind_of(self, cid: int) -> ConceptKind:
        return self.concept(cid).kind

    def resolve(self, ref: int | str, kind: ConceptKind | None = None) -> int:
        """Map a name or id to an id, optionally insisting on a kind."""
        concept = self._concepts[self.lookup(ref)] if isinstance(ref, str) \
            else self.concept(ref)
        if kind is not None and concept.kind is not kind:
            raise KindMismatchError(
                f"{concept.name!r} is a {concept.kind.value} concept, "
                f"expected {kind.value}"
            )
        return concept.id

    # -- declarations ----------------------------------------------------

    def _add(self, name: str, kind: ConceptKind) -> int:
        cid = len(self._concepts)
        self._concepts.append(Concept(cid, name, kind))
        self._by_name[name] = cid
        self._parents[cid] = set()
        return cid

    def declare_concept(self, name: str, kind: ConceptKind,
                        parents: Sequence[str] = (),
                        protected: Iterable[int] = ()) -> int:
        """Declare a concept under the given parents (kind's root if none).

        Redeclaring an existing name adds any new parents to it; nothing is
        ever replaced. The new parents are rejected when they would turn any
        protected concept (one that recorded history relies on) from
        satisfiable to unsatisfiable.
        """
        parent_ids = []
        for pname in parents:
            pid = self._by_name.get(pname)
            if pid is None:
                raise UnknownConceptError(pname)
            if self.kind_of(pid) is not kind:
                raise KindMismatchError(
                    f"parent {pname!r} is a {self.kind_of(pid).value} concept, "
                    f"cannot place a {kind.value} concept under it"
                )
            parent_ids.append(pid)

        existing = self._by_name.get(name)
        if existing is not None:
            if self.kind_of(existing) is not kind:
                raise KindMismatchError(
                    f"{name!r} already declared as a {self.kind_of(existing).value} concept"
                )
            fresh = {p for p in parent_ids if p != existing} - self._parents[existing]
            if fresh:
                under = ", ".join(sorted(repr(self.name_of(p)) for p in fresh))
                self._add_edges([(existing, p) for p in fresh], protected,
                                f"placing {name!r} under {under}")
            return existing

        cid = self._add(name, kind)
        self._parents[cid].update(parent_ids or {self._roots[kind]})
        # A fresh concept has no children yet, so no cached set can be stale.
        return cid

    def declare_equivalent(self, a: str, b: str, protected: Iterable[int] = ()) -> None:
        """Record that two same-kind concepts denote the same category: each
        becomes a parent of the other.

        The declaration is rejected when it would turn any protected concept
        (one that recorded history relies on) from satisfiable to
        unsatisfiable.
        """
        aid, bid = self.lookup(a), self.lookup(b)
        if self.kind_of(aid) is not self.kind_of(bid):
            raise KindMismatchError(f"cannot equate {a!r} with {b!r}: different kinds")
        if aid in self.ancestors(bid) and bid in self.ancestors(aid):
            return  # already mutually subsumed, nothing new to record
        self._add_edges([(aid, bid), (bid, aid)], protected, f"equating {a!r} with {b!r}")

    def _add_edges(self, edges: list[tuple[int, int]], protected: Iterable[int],
                   what: str) -> None:
        """Add each (child, parent) edge not there yet, then flush the children;
        roll back what was added and raise if a protected concept turned
        unsatisfiable.

        Only concepts whose ancestors already hold a child gain ancestors by
        the edges, so only those are re-judged.
        """
        parents = self._parents
        added = [(child, parent) for child, parent in edges if parent not in parents[child]]
        changed = {child for child, _ in added}
        guarded = [p for p in protected
                   if not self.ancestors(p).isdisjoint(changed)
                   and not self.is_unsatisfiable(p)]
        for child, parent in added:
            parents[child].add(parent)
        self._flush(changed)
        broken = [p for p in guarded if self.is_unsatisfiable(p)]
        if broken:
            for child, parent in added:
                parents[child].remove(parent)
            self._flush(changed)
            names = ", ".join(sorted(self.name_of(p) for p in broken))
            raise ConsistencyError(f"{what} would contradict recorded events on: {names}")

    def declare_disjoint(self, names: Sequence[str], protected: Iterable[int] = ()) -> None:
        """Record pairwise disjointness over two or more same-kind concepts.

        Nothing is recorded when two of them are related by subsumption, or
        when a protected concept (one that recorded history relies on) would
        turn unsatisfiable.
        """
        if len(names) < 2:
            raise DeclarationError("disjointness needs at least two concepts")
        ids = [self.lookup(n) for n in names]
        kinds = {self.kind_of(i) for i in ids}
        if len(kinds) > 1:
            raise KindMismatchError("disjointness cannot mix data and recipient concepts")
        pairs = []
        for (na, ia), (nb, ib) in combinations(zip(names, ids), 2):
            related = ia in self.ancestors(ib) or ib in self.ancestors(ia)
            if related and not (self.is_unsatisfiable(ia) or self.is_unsatisfiable(ib)):
                raise ConsistencyError(
                    f"cannot declare {na!r} disjoint from {nb!r}: "
                    "they are related by subsumption"
                )
            pairs.append((ia, ib))
        # No ancestor set changes and every two of the names form a pair, so
        # the concepts that die are the satisfiable ones with two of the
        # names among their ancestors. Every protected concept is judged
        # first, so that the pass over the verdicts meets it.
        sides, reach, verdicts = set(ids), self._reach, self._unsat
        protected = set(protected)
        for p in protected.difference(verdicts):
            self.is_unsatisfiable(p)
        dying = [c for c, dead in verdicts.items()
                 if not dead and not sides.isdisjoint(reach[c])
                 and len(sides.intersection(reach[c])) > 1]
        broken = [p for p in dying if p in protected]
        if broken:
            listed = ", ".join(repr(n) for n in names)
            culprits = ", ".join(sorted(self.name_of(p) for p in broken))
            raise ConsistencyError(
                f"declaring {listed} disjoint would contradict recorded events on: "
                f"{culprits}")
        # Recorded only once all pairs check out, each under one side: a
        # clash needs both sides inside the set, so a walk meets that side.
        for ia, ib in pairs:
            self._partners.setdefault(ia, set()).add(ib)
        verdicts.update(dict.fromkeys(dying, True))

    def _flush(self, changed: set[int]) -> None:
        """Forget the cached ancestor sets holding a changed concept, and their verdicts."""
        for cid in [c for c, anc in self._reach.items() if not anc.isdisjoint(changed)]:
            del self._reach[cid]
            self._unsat.pop(cid, None)

    # -- reasoning -------------------------------------------------------

    def ancestors(self, cid: int) -> frozenset[int]:
        """Every concept reachable from cid, itself included."""
        cached = self._reach.get(cid)
        if cached is not None:
            return cached
        self.concept(cid)  # validate
        seen = {cid}
        frontier = [cid]
        while frontier:
            node = frontier.pop()
            for nxt in self._parents[node]:
                if nxt in seen:
                    continue
                hit = self._reach.get(nxt)
                if hit is not None:
                    seen |= hit  # cached sets are complete, no need to expand
                else:
                    seen.add(nxt)
                    frontier.append(nxt)
        result = frozenset(seen)
        self._reach[cid] = result
        return result

    def subsumes(self, general: int, specific: int) -> bool:
        """True when everything classified under specific also falls under general."""
        if self.kind_of(general) is not self.kind_of(specific):
            raise KindMismatchError("subsumption never crosses data/recipient kinds")
        return general in self.ancestors(specific)

    def equivalent(self, a: int, b: int) -> bool:
        return self.subsumes(a, b) and self.subsumes(b, a)

    def is_unsatisfiable(self, cid: int) -> bool:
        """True when cid sits below both sides of some disjoint pair."""
        verdict = self._unsat.get(cid)
        if verdict is None:
            verdict = self._unsat[cid] = self.clashes(self.ancestors(cid))
        return verdict

    def are_disjoint(self, a: int, b: int) -> bool:
        """True when no individual can fall under both concepts.

        That is when the meet of a and b is unsatisfiable: some disjoint pair
        sits over a, over b, or with one side over each.
        """
        if self.kind_of(a) is not self.kind_of(b):
            raise KindMismatchError("disjointness never crosses data/recipient kinds")
        return self.clashes(self.ancestors(a) | self.ancestors(b))

    def clashes(self, anc: frozenset[int]) -> bool:
        """True when some disjoint pair sits entirely inside anc.

        No kind check: for callers that validated the concepts behind anc
        once, as `Ledger.check` does per query.
        """
        partners = self._partners
        for p in anc if len(anc) <= len(partners) else partners:
            others = partners.get(p)
            if others is not None and p in anc and not anc.isdisjoint(others):
                return True
        return False
