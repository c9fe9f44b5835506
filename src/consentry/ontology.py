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
cache and nothing to flush. Concept i's `_up` mask holds bit i, so the
masks of any N concepts, flat or deep, take about N * N / 16 bytes in all.

A fresh concept ORs its parents' masks. New parents, or an equivalence,
OR the parents' masks into every concept whose `_up` holds a concept that
gained a parent; a disjointness ORs the other sides into the `_forbid` of
every concept below a side. Each is one pass over the concepts, one AND
per concept, into the touched concepts' new masks. `_commit` judges them
while the old masks are still in place, and writes them only if no
protected concept turns unsatisfiable, so a refusal has nothing to
restore. Each write bumps a generation counter, which each of the ledger's
kept maps of matches compares with its own stamp when it is next read. No
parent sets are kept: an edge is new when its parent's bit is not yet in
the child's `_up`, since a parent already there adds nothing.
"""

from __future__ import annotations

from enum import Enum
from itertools import combinations
from typing import Collection, NamedTuple, Sequence

from .errors import (
    ConsistencyError, DeclarationError, InvalidValueError, KindMismatchError,
    UnknownConceptError,
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


def _name_tuple(names: object) -> tuple:
    """`names` read once into a tuple. A bare string, which would read as one
    name per letter, and a value that is not iterable are refused."""
    if isinstance(names, str):
        raise InvalidValueError(f"expected a sequence of names, got the string {names!r}")
    try:
        return tuple(names)
    except TypeError:
        raise InvalidValueError(f"expected a sequence of names, got {names!r}") from None


class ConceptGraph:
    """Append-only store of concept declarations with each concept's closed forms."""

    def __init__(self):
        self._concepts: list[Concept] = []
        self._by_name: dict[str, int] = {}
        # Bit i stands for concept i: a concept's ancestors, itself
        # included, and the concepts declared disjoint from any of them.
        self._up: list[int] = []
        self._forbid: list[int] = []
        # Counts the `_commit`s that rewrote masks, so that a reader who keeps
        # answers read off the masks knows when to drop them. A fresh concept
        # changes no mask already written, so it does not count.
        self._generation = 0
        for kind in ConceptKind:
            self._add(_ROOT_NAMES[kind], kind, ())

    # -- introspection -------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return isinstance(name, str) and name in self._by_name

    def lookup(self, name: str) -> int:
        cid = self._by_name.get(name) if isinstance(name, str) else None
        if cid is None:
            raise UnknownConceptError(name)
        return cid

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
        if isinstance(ref, str):
            cid = self._by_name.get(ref)
            if cid is None:
                raise UnknownConceptError(ref)
            concept = self._concepts[cid]
        else:
            concept = self.concept(ref)
        if kind is not None and concept.kind is not kind:
            if type(kind) is not ConceptKind:  # a kind that matched is a ConceptKind
                raise InvalidValueError(f"kind must be a ConceptKind or None, got {kind!r}")
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
        self._up.append(up)
        self._forbid.append(forbid)
        return cid

    def declare_concept(self, name: str, kind: ConceptKind,
                        parents: Sequence[str] = (),
                        protected: Collection[int] = ()) -> int:
        """Declare a concept under the given parents (kind's root if none).

        Redeclaring an existing name adds any new parents to it; nothing is
        ever replaced. The new parents are rejected when they would turn any
        protected concept (one that recorded history relies on) from
        satisfiable to unsatisfiable.
        """
        parents = _name_tuple(parents)
        if not all(isinstance(n, str) for n in (name, *parents)):
            raise InvalidValueError(f"names must be strings, got {name!r} under {parents!r}")
        if not isinstance(kind, ConceptKind):
            raise InvalidValueError(f"kind must be a ConceptKind, got {kind!r}")
        parent_ids = []
        for pname in parents:
            pid = self.lookup(pname)
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
            # A parent already above the concept adds nothing to any mask.
            fresh = {p for p in parent_ids if not self._up[existing] & 1 << p}
            if fresh:
                under = ", ".join(sorted(repr(self.name_of(p)) for p in fresh))
                self._add_edges([(existing, p) for p in fresh], protected,
                                f"placing {name!r} under {under}")
            return existing

        return self._add(name, kind, parent_ids or [self._by_name[_ROOT_NAMES[kind]]])

    def declare_equivalent(self, a: str, b: str, protected: Collection[int] = ()) -> None:
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

    def _add_edges(self, edges: list[tuple[int, int]], protected: Collection[int],
                   what: str) -> None:
        """Add the (child, parent) edges, unless `_commit` refuses them.

        Every concept below a child gains what all the new parents reach.
        One gain is right for the two edge shapes declarations make, one
        concept's new parents and an equivalence's two edges: a new path
        leaves a concept only through a child, and from there reaches only
        what the child and its new parents reached before. In an equivalence
        each side is the other's parent, so after it a concept below either
        side is below both, and gains what both reach.
        """
        up, forbid = self._up, self._forbid
        children = up_gain = forbid_gain = 0
        for child, parent in edges:
            children |= 1 << child
            up_gain |= up[parent]
            forbid_gain |= forbid[parent]
        self._commit({c: (mask | up_gain, forbid[c] | forbid_gain)
                      for c, mask in enumerate(up) if mask & children}, protected, what)

    def declare_disjoint(self, names: Sequence[str], protected: Collection[int] = ()) -> None:
        """Record pairwise disjointness over two or more same-kind concepts.

        Nothing is recorded when two of them are related by subsumption, or
        when a protected concept (one that recorded history relies on) would
        turn unsatisfiable.
        """
        names = _name_tuple(names)
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
        sides = sum(1 << i for i in set(ids))
        # Every two of the names form a pair, so a concept below one of them
        # is forbidden the others, and a concept below two is forbidden all.
        masks = {}
        for c, mask in enumerate(up):
            below = mask & sides
            if below:
                masks[c] = mask, forbid[c] | (sides if below & (below - 1) else sides ^ below)
        listed = ", ".join(repr(n) for n in names)
        self._commit(masks, protected, f"declaring {listed} disjoint")

    def _commit(self, masks: dict[int, tuple[int, int]], protected: Collection[int],
                what: str) -> None:
        """Write each concept's new (up, forbid) masks, unless a protected
        concept among them turns unsatisfiable: judged while the old masks
        are still in place, a refusal has written nothing."""
        broken = [c for c, (new_up, new_forbid) in masks.items()
                  if new_up & new_forbid and c in protected and not self._disjoint(c, c)]
        if broken:
            names = ", ".join(sorted(self.name_of(c) for c in broken))
            raise ConsistencyError(f"{what} would contradict recorded events on: {names}")
        up, forbid = self._up, self._forbid
        for c, (new_up, new_forbid) in masks.items():
            up[c], forbid[c] = new_up, new_forbid
        self._generation += 1

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
