"""Monotonic concept hierarchies with subsumption, equivalence, and disjointness.

One graph holds two hierarchies that never mix: data categories under the
Data root and recipient roles under the Recipient root. Declarations only
ever add facts. Nothing is removed or renamed, so any subsumption answer
that was once provable stays provable.

Reasoning model: a concept's ancestors are everything reachable from it
over parent edges. An equivalence is two parent edges, each concept placed
under the other, so one walk over one relation serves both. Subsumption
is reachability. A set of concepts clashes when both sides of some
recorded disjoint pair lie inside it: two concepts are disjoint when the
union of their ancestors clashes, and a concept is unsatisfiable when its
own ancestors do.

Cost: each concept keeps two closed forms, set when a declaration is made
and never recomputed. Both are Python ints with bit i standing for concept
i, the encoding of Aït-Kaci, Boyer, Lincoln & Nasr ("Efficient
implementation of lattice operations", TOPLAS 1989): `_up[c]` holds c's
ancestors, c included, and `_forbid[c]` the concepts declared disjoint
from any of them. A set of ancestors clashes exactly when it meets the
concepts forbidden to it, so two concepts are disjoint when the OR of their
`_up` masks meets the OR of their `_forbid` masks, and a concept is
unsatisfiable when it is disjoint from itself: one AND, with no walk, no
cache and nothing to flush. The masks of a chain of N concepts take about
N * N / 16 bytes in all.

A fresh concept ORs its parents' masks. New parents, or an equivalence,
OR the parents' masks into every concept whose `_up` holds a concept that
gained a parent; a disjointness ORs the other sides into the `_forbid` of
every concept below a side. Each is one pass over the concepts, one AND
per concept. A guard judges only the protected concepts the pass reaches,
before and after it, and a refusal restores the masks saved before the
pass. A parent edge is recorded only once its declaration is accepted.
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
    """Append-only store of concept declarations with each concept's closed forms."""

    def __init__(self):
        self._concepts: list[Concept] = []
        self._by_name: dict[str, int] = {}
        self._parents: list[set[int]] = []
        # Bit i stands for concept i: a concept's ancestors, itself
        # included, and the concepts declared disjoint from any of them.
        self._up: list[int] = []
        self._forbid: list[int] = []
        self._roots: dict[ConceptKind, int] = {}
        for kind in ConceptKind:
            self._roots[kind] = self._add(_ROOT_NAMES[kind], kind, ())

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

    def _add(self, name: str, kind: ConceptKind, parents: Sequence[int]) -> int:
        cid = len(self._concepts)
        up, forbid = 1 << cid, 0
        for p in parents:
            up |= self._up[p]
            forbid |= self._forbid[p]
        self._concepts.append(Concept(cid, name, kind))
        self._by_name[name] = cid
        self._parents.append(set(parents))
        self._up.append(up)
        self._forbid.append(forbid)
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

        return self._add(name, kind, parent_ids or [self._roots[kind]])

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
        up = self._up
        if up[bid] & 1 << aid and up[aid] & 1 << bid:
            return  # already mutually subsumed, nothing new to record
        self._add_edges([(aid, bid), (bid, aid)], protected, f"equating {a!r} with {b!r}")

    def _add_edges(self, edges: list[tuple[int, int]], protected: Iterable[int],
                   what: str) -> None:
        """Add each (child, parent) edge not there yet; restore the masks and
        raise instead if a protected concept turned unsatisfiable.

        Only concepts whose ancestors hold a child gain ancestors by the
        edges: each gains what its children's new parents reach, read before
        the pass. One pass is enough for the two edge shapes declarations
        make, one concept's new parents and an equivalence's two edges: a
        new path leaves a concept only through a child, and from there
        reaches only what the child and its new parents reached before. In
        an equivalence each child is the other's new parent, so a concept
        below either child gains both.
        """
        parents, up, forbid = self._parents, self._up, self._forbid
        added = [(child, parent) for child, parent in edges if parent not in parents[child]]
        gains = [(1 << child, up[parent], forbid[parent]) for child, parent in added]
        changed = 0
        for bit, _, _ in gains:
            changed |= bit
        guarded = [p for p in protected if up[p] & changed and not self._disjoint(p, p)]
        saved_up, saved_forbid = up[:], forbid[:]
        for c, mask in enumerate(saved_up):
            if mask & changed:
                for bit, up_gain, forbid_gain in gains:
                    if mask & bit:
                        up[c] |= up_gain
                        forbid[c] |= forbid_gain
        broken = [p for p in guarded if self._disjoint(p, p)]
        if broken:
            up[:], forbid[:] = saved_up, saved_forbid
            names = ", ".join(sorted(self.name_of(p) for p in broken))
            raise ConsistencyError(f"{what} would contradict recorded events on: {names}")
        for child, parent in added:
            parents[child].add(parent)

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
        up, forbid = self._up, self._forbid
        for (na, ia), (nb, ib) in combinations(zip(names, ids), 2):
            related = up[ib] & 1 << ia or up[ia] & 1 << ib
            if related and not (self._disjoint(ia, ia) or self._disjoint(ib, ib)):
                raise ConsistencyError(
                    f"cannot declare {na!r} disjoint from {nb!r}: "
                    "they are related by subsumption"
                )
        sides = 0
        for i in ids:
            sides |= 1 << i
        guarded = [p for p in set(protected) if up[p] & sides and not self._disjoint(p, p)]
        saved = forbid[:]
        # Every two of the names form a pair, so a concept below one of them
        # is forbidden the others, and a concept below two is forbidden all.
        for c, mask in enumerate(up):
            if mask & sides:
                below = [i for i in ids if mask & 1 << i]
                forbid[c] |= sides if len(below) > 1 else sides ^ 1 << below[0]
        broken = [p for p in guarded if self._disjoint(p, p)]
        if broken:
            forbid[:] = saved
            listed = ", ".join(repr(n) for n in names)
            culprits = ", ".join(sorted(self.name_of(p) for p in broken))
            raise ConsistencyError(
                f"declaring {listed} disjoint would contradict recorded events on: "
                f"{culprits}")

    # -- reasoning -------------------------------------------------------

    def ancestors(self, cid: int) -> frozenset[int]:
        """Every concept reachable from cid, itself included."""
        self.concept(cid)  # validate
        bits = bin(self._up[cid])[:1:-1]  # bit 0 first
        return frozenset(i for i, bit in enumerate(bits) if bit == "1")

    def subsumes(self, general: int, specific: int) -> bool:
        """True when everything classified under specific also falls under general."""
        if self.kind_of(general) is not self.kind_of(specific):
            raise KindMismatchError("subsumption never crosses data/recipient kinds")
        return self._up[specific] & 1 << general != 0

    def equivalent(self, a: int, b: int) -> bool:
        return self.subsumes(a, b) and self.subsumes(b, a)

    def is_unsatisfiable(self, cid: int) -> bool:
        """True when cid sits below both sides of some disjoint pair."""
        self.concept(cid)  # validate
        return self._disjoint(cid, cid)

    def are_disjoint(self, a: int, b: int) -> bool:
        """True when no individual can fall under both concepts.

        That is when the meet of a and b is unsatisfiable: some disjoint pair
        sits over a, over b, or with one side over each.
        """
        if self.kind_of(a) is not self.kind_of(b):
            raise KindMismatchError("disjointness never crosses data/recipient kinds")
        return self._disjoint(a, b)

    def _disjoint(self, a: int, b: int) -> bool:
        """The clash test: do a's and b's ancestors together meet a concept
        forbidden to one of them? No check, for callers that validated a and
        b, as `Ledger.check` does per query; a concept is unsatisfiable
        when it is disjoint from itself.
        """
        up, forbid = self._up, self._forbid
        return (up[a] | up[b]) & (forbid[a] | forbid[b]) != 0
