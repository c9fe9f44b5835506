import random
from contextlib import nullcontext
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from consentry.errors import (
    ConsistencyError,
    DeclarationError,
    InvalidValueError,
    KindMismatchError,
    UnknownConceptError,
)
from consentry.ontology import ConceptGraph, ConceptKind

import support

DATA = ConceptKind.DATA
RECIPIENT = ConceptKind.RECIPIENT


@pytest.fixture
def graph():
    return ConceptGraph()


def declare_chain(graph, *names, kind=DATA):
    parent = None
    ids = []
    for name in names:
        ids.append(graph.declare_concept(name, kind,
                                         [parent] if parent else []))
        parent = name
    return ids


class TestDeclarations:
    def test_fresh_concept_under_root(self, graph):
        cid = graph.declare_concept("X", DATA, [])
        assert graph.subsumes(graph.root(DATA), cid)
        assert graph.name_of(cid) == "X"

    def test_child_subsumed_by_parent(self, graph):
        rt = graph.declare_concept("RealTimeLocation", DATA, [])
        route = graph.declare_concept("DrivingRoute", DATA, ["RealTimeLocation"])
        assert graph.subsumes(rt, route)
        assert not graph.subsumes(route, rt)

    def test_redeclaration_adds_parent(self, graph):
        declare_chain(graph, "Location", "DeviceLocation", "BluetoothLocation")
        coarse = graph.declare_concept("CoarseLocation", DATA, ["Location"])
        blue = graph.declare_concept("BluetoothLocation", DATA, ["CoarseLocation"])
        assert blue == graph.lookup("BluetoothLocation")
        assert graph.subsumes(coarse, blue)
        assert graph.subsumes(graph.lookup("DeviceLocation"), blue)

    def test_unknown_parent_rejected(self, graph):
        with pytest.raises(UnknownConceptError):
            graph.declare_concept("X", DATA, ["Nowhere"])

    def test_kind_mismatch_on_parent(self, graph):
        graph.declare_concept("Advertiser", RECIPIENT, [])
        with pytest.raises(KindMismatchError):
            graph.declare_concept("X", DATA, ["Advertiser"])

    def test_kind_mismatch_on_redeclaration(self, graph):
        graph.declare_concept("Advertiser", RECIPIENT, [])
        with pytest.raises(KindMismatchError):
            graph.declare_concept("Advertiser", DATA, [])

    def test_lookup_unknown(self, graph):
        with pytest.raises(UnknownConceptError):
            graph.lookup("Missing")

    def test_resolve_checks_kind(self, graph):
        graph.declare_concept("X", DATA, [])
        with pytest.raises(KindMismatchError):
            graph.resolve("X", RECIPIENT)

    @pytest.mark.parametrize("cid", [1.5, None, True, False, b"X", (0,), 1.0])
    def test_an_id_that_is_not_an_int_is_unknown(self, graph, cid):
        x = graph.declare_concept("X", DATA, [])
        # Concept 1 is asked about first, so no earlier answer is handed on.
        graph.ancestors(1), graph.is_unsatisfiable(1)
        for ask in (graph.resolve, graph.concept, graph.ancestors, graph.is_unsatisfiable,
                    lambda c: graph.subsumes(c, x), lambda c: graph.subsumes(x, c),
                    lambda c: graph.are_disjoint(c, x), lambda c: graph.are_disjoint(x, c)):
            with pytest.raises(UnknownConceptError):
                ask(cid)

    @pytest.mark.parametrize("name", [7, None, ["X"], b"X"])
    def test_lookup_of_a_name_that_is_not_a_string_is_unknown(self, graph, name):
        with pytest.raises(UnknownConceptError):
            graph.lookup(name)

    @pytest.mark.parametrize("name, parents", [
        (7, []), (None, []), (["X"], []), ("X", [7]), ("X", ["A", None]), ("X", "AB")])
    def test_names_that_are_not_strings_are_refused(self, graph, name, parents):
        # A bare string as parents would read as one parent per letter.
        for letter in "AB":
            graph.declare_concept(letter, DATA, [])
        size = len(graph)
        with pytest.raises(InvalidValueError):
            graph.declare_concept(name, DATA, parents)
        assert len(graph) == size and "X" not in graph

    @pytest.mark.parametrize("kind", ["data", None, 0])
    def test_a_kind_that_is_not_a_concept_kind_is_refused(self, graph, kind):
        with pytest.raises(InvalidValueError, match="kind must be a ConceptKind"):
            graph.declare_concept("C", kind)
        assert "C" not in graph

    def test_a_refused_redeclaration_names_only_the_parents_not_yet_above(self, graph):
        # A is above D through C, so placing D under it adds nothing: only E
        # is a new parent, and only E is named.
        declare_chain(graph, "A", "C", "D")
        graph.declare_concept("E", DATA, [])
        graph.declare_disjoint(("A", "E"))
        d = graph.lookup("D")
        with pytest.raises(ConsistencyError, match=r"^placing 'D' under 'E' would contradict "
                                                   r"recorded events on: D$"):
            graph.declare_concept("D", DATA, ["A", "E"], protected=[d])
        assert not graph.is_unsatisfiable(d)


class TestEquivalence:
    def test_equating_lifts_subsumption_both_ways(self, graph):
        # Legacy name folded into a refined hierarchy: the old name inherits
        # the new ancestors.
        graph.declare_concept("Location", DATA, [])
        graph.declare_concept("LocationV2", DATA, [])
        graph.declare_concept("CellularLocation", DATA, ["LocationV2"])
        graph.declare_equivalent("Location", "CellularLocation")
        v2 = graph.lookup("LocationV2")
        loc = graph.lookup("Location")
        cell = graph.lookup("CellularLocation")
        assert graph.subsumes(v2, loc)
        assert graph.equivalent(loc, cell)
        assert graph.subsumes(loc, cell) and graph.subsumes(cell, loc)

    def test_self_equivalence_is_noop(self, graph):
        graph.declare_concept("A", DATA, [])
        graph.declare_equivalent("A", "A")
        assert graph.equivalent(graph.lookup("A"), graph.lookup("A"))

    def test_equivalence_transitivity(self, graph):
        for name in "ABC":
            graph.declare_concept(name, DATA, [])
        graph.declare_equivalent("A", "B")
        graph.declare_equivalent("B", "C")
        assert graph.equivalent(graph.lookup("A"), graph.lookup("C"))

    def test_cross_kind_equivalence_rejected(self, graph):
        graph.declare_concept("X", DATA, [])
        graph.declare_concept("R", RECIPIENT, [])
        with pytest.raises(KindMismatchError):
            graph.declare_equivalent("X", "R")

    def test_protected_concept_guard(self, graph):
        # Merging X into an area below both sides of a disjoint pair would
        # make X unsatisfiable; with X protected the merge must be refused
        # and the graph left unchanged.
        graph.declare_concept("A", DATA, [])
        graph.declare_concept("B", DATA, [])
        graph.declare_disjoint(("A", "B"))
        x = graph.declare_concept("X", DATA, ["A"])
        graph.declare_concept("Y", DATA, ["B"])
        with pytest.raises(ConsistencyError):
            graph.declare_equivalent("X", "Y", protected=[x])
        assert not graph.is_unsatisfiable(x)
        assert not graph.equivalent(x, graph.lookup("Y"))

    def test_unprotected_merge_may_create_unsatisfiable(self, graph):
        graph.declare_concept("A", DATA, [])
        graph.declare_concept("B", DATA, [])
        graph.declare_disjoint(("A", "B"))
        x = graph.declare_concept("X", DATA, ["A"])
        graph.declare_concept("Y", DATA, ["B"])
        graph.declare_equivalent("X", "Y")
        assert graph.is_unsatisfiable(x)

    def test_already_unsatisfiable_protected_is_not_a_blocker(self, graph):
        graph.declare_concept("A", DATA, [])
        graph.declare_concept("B", DATA, [])
        graph.declare_disjoint(("A", "B"))
        dead = graph.declare_concept("Dead", DATA, ["A", "B"])
        assert graph.is_unsatisfiable(dead)
        graph.declare_concept("C", DATA, [])
        # Dead is already unsatisfiable; equating two fresh concepts cannot
        # "newly" break it and must go through.
        graph.declare_equivalent("C", "Dead", protected=[dead])


class TestDisjointness:
    def test_declared_pair_is_disjoint(self, graph):
        a = graph.declare_concept("DrivingRoute", DATA, [])
        b = graph.declare_concept("WalkingRoute", DATA, [])
        graph.declare_disjoint(("DrivingRoute", "WalkingRoute"))
        assert graph.are_disjoint(a, b)
        assert graph.are_disjoint(b, a)

    def test_disjointness_inherited_by_descendants(self, graph):
        a = graph.declare_concept("A", DATA, [])
        b = graph.declare_concept("B", DATA, [])
        graph.declare_disjoint(("A", "B"))
        x = graph.declare_concept("X", DATA, ["A"])
        y = graph.declare_concept("Y", DATA, ["B"])
        assert graph.are_disjoint(x, y)
        assert graph.are_disjoint(x, b)

    def test_unrelated_concepts_not_disjoint(self, graph):
        a = graph.declare_concept("A", DATA, [])
        b = graph.declare_concept("B", DATA, [])
        assert not graph.are_disjoint(a, b)

    def test_nary_records_every_pair(self, graph):
        for name in ("P", "N", "T"):
            graph.declare_concept(name, DATA, [])
        graph.declare_disjoint(("P", "N", "T"))
        p, n, t = (graph.lookup(x) for x in "PNT")
        assert graph.are_disjoint(p, n)
        assert graph.are_disjoint(p, t)
        assert graph.are_disjoint(n, t)

    def test_subsumption_related_pair_rejected(self, graph):
        graph.declare_concept("A", DATA, [])
        graph.declare_concept("B", DATA, ["A"])
        with pytest.raises(ConsistencyError):
            graph.declare_disjoint(("A", "B"))

    def test_self_disjointness_rejected(self, graph):
        graph.declare_concept("A", DATA, [])
        with pytest.raises(ConsistencyError):
            graph.declare_disjoint(("A", "A"))

    def test_rejection_is_atomic(self, graph):
        graph.declare_concept("A", DATA, [])
        graph.declare_concept("B", DATA, [])
        graph.declare_concept("C", DATA, ["A"])
        with pytest.raises(ConsistencyError):
            graph.declare_disjoint(("A", "B", "C"))  # (A, C) related
        assert not graph.are_disjoint(graph.lookup("A"), graph.lookup("B"))

    def test_a_bare_string_is_refused(self, graph):
        for letter in "AB":
            graph.declare_concept(letter, DATA, [])
        with pytest.raises(InvalidValueError, match="got the string 'AB'"):
            graph.declare_disjoint("AB")
        assert not graph.are_disjoint(graph.lookup("A"), graph.lookup("B"))

    def test_needs_two_names(self, graph):
        graph.declare_concept("A", DATA, [])
        with pytest.raises(DeclarationError):
            graph.declare_disjoint(("A",))

    def test_protected_concept_guard(self, graph):
        # X, never judged before, sits under A and B: declaring A and B (with
        # a third name) disjoint would make it unsatisfiable, so with X
        # protected nothing is recorded; the unrelated Y does not block.
        for name in ("A", "B", "C"):
            graph.declare_concept(name, DATA, [])
        x = graph.declare_concept("X", DATA, ["A", "B"])
        y = graph.declare_concept("Y", DATA, ["C"])
        with pytest.raises(ConsistencyError, match="recorded events on: X"):
            graph.declare_disjoint(("A", "B", "C"), protected=[x, y])
        assert not graph.is_unsatisfiable(x)
        assert not graph.are_disjoint(graph.lookup("A"), graph.lookup("C"))
        graph.declare_disjoint(("A", "C"), protected=[x, y])
        graph.declare_disjoint(("A", "B"))
        assert graph.is_unsatisfiable(x) and not graph.is_unsatisfiable(y)

    def test_cross_kind_rejected(self, graph):
        graph.declare_concept("X", DATA, [])
        graph.declare_concept("R", RECIPIENT, [])
        with pytest.raises(KindMismatchError):
            graph.declare_disjoint(("X", "R"))


class TestUnsatisfiability:
    def test_below_both_sides_of_a_pair(self, graph):
        graph.declare_concept("A", DATA, [])
        graph.declare_concept("B", DATA, [])
        graph.declare_disjoint(("A", "B"))
        dead = graph.declare_concept("Dead", DATA, ["A", "B"])
        assert graph.is_unsatisfiable(dead)
        assert not graph.is_unsatisfiable(graph.lookup("A"))

    def test_unsatisfiable_is_disjoint_from_everything(self, graph):
        graph.declare_concept("A", DATA, [])
        graph.declare_concept("B", DATA, [])
        graph.declare_disjoint(("A", "B"))
        dead = graph.declare_concept("Dead", DATA, ["A", "B"])
        other = graph.declare_concept("Other", DATA, [])
        assert graph.are_disjoint(dead, other)
        assert graph.are_disjoint(dead, dead)
        assert graph.are_disjoint(dead, graph.root(DATA))

    def test_satisfiable_by_default(self, graph):
        x = graph.declare_concept("X", DATA, [])
        assert not graph.is_unsatisfiable(x)


class TestKinds:
    def test_subsumption_never_crosses_kinds(self, graph):
        x = graph.declare_concept("X", DATA, [])
        r = graph.declare_concept("R", RECIPIENT, [])
        with pytest.raises(KindMismatchError):
            graph.subsumes(x, r)
        with pytest.raises(KindMismatchError):
            graph.are_disjoint(x, r)

    def test_recipient_hierarchy_is_independent(self, graph):
        partner = graph.declare_concept("Partner", RECIPIENT, [])
        ad = graph.declare_concept("Advertiser", RECIPIENT, ["Partner"])
        assert graph.subsumes(partner, ad)
        assert graph.subsumes(graph.root(RECIPIENT), ad)


class TestRandomizedProperties:
    """Small-scale version of the full property suite (see acceptance)."""

    @pytest.mark.parametrize("seed", range(25))
    def test_subsumes_matches_naive_closure(self, seed):
        rng = random.Random(seed)
        graph, names, edges, equivs, _ = support.random_graph(rng, max_concepts=20)
        closure = support.naive_reachability(names, edges, equivs)
        for a in names:
            for b in names:
                expected = a in closure[b]
                assert graph.subsumes(graph.lookup(a), graph.lookup(b)) == expected, \
                    f"subsumes({a}, {b}) diverges from naive closure"

    @pytest.mark.parametrize("seed", range(10))
    def test_monotonicity_under_append(self, seed):
        rng = random.Random(1000 + seed)
        graph, names, *_ = support.random_graph(rng, max_concepts=15)
        ids = [graph.lookup(n) for n in names]
        before = {(a, b) for a in ids for b in ids if graph.subsumes(a, b)}
        # One more declaration of each flavor must never retract an answer.
        graph.declare_concept("Extra", DATA, [rng.choice(names)])
        graph.declare_concept(rng.choice(names), DATA, [rng.choice(names)])
        graph.declare_equivalent(rng.choice(names), rng.choice(names))
        for a, b in before:
            assert graph.subsumes(a, b), "append retracted a subsumption answer"


# A diamond to start from (C under A and B, D under C): one disjointness
# can then make concepts unsatisfiable that were judged before it.
BASE = {"A": [], "B": [], "C": ["A", "B"], "D": ["C"], "E": []}
POOL = ["Data", *BASE]
names_st = st.sampled_from(list(BASE))
ontology_steps = st.lists(st.one_of(
    st.tuples(st.just("parents"), names_st, st.lists(names_st, min_size=1, max_size=2),
              st.booleans()),
    st.tuples(st.just("equivalent"), names_st, names_st, st.booleans()),
    st.tuples(st.just("disjoint"), st.lists(names_st, min_size=2, max_size=3),
              st.booleans()),
    st.tuples(st.just("query"), names_st),
), min_size=3, max_size=20)


class NaiveGraph:
    """All-pairs reference: the naive closure, and a scan of every pair."""

    def __init__(self):
        self.edges = [(n, p) for n, ps in BASE.items() for p in ps or ["Data"]]
        self.equivs: list[tuple[str, str]] = []
        self.pairs: list[tuple[str, str]] = []

    def closure(self, edges=None, equivs=None) -> dict[str, set[str]]:
        return support.naive_reachability(
            list(BASE), self.edges if edges is None else edges,
            self.equivs if equivs is None else equivs)

    def clashes(self, names: set[str], pairs=None) -> bool:
        return any(p in names and q in names
                   for p, q in (self.pairs if pairs is None else pairs))


class TestCachesNeverStale:
    """Interleaved declarations keep every verdict the stored masks give
    equal to a rescan."""

    @staticmethod
    def step(graph, naive, op):
        """Apply op to both graphs; the naive one predicts any rejection."""
        kind, *args = op
        up = naive.closure()
        if kind != "query":  # every declaration is guarded when the flag is set
            *sides, guard = args
            protected = POOL if guard else []
            ids = [graph.lookup(p) for p in protected]
        if kind in ("parents", "equivalent"):  # new edges widen the masks
            edges, equivs = naive.edges, naive.equivs
            if kind == "parents":
                name, parents = sides
                edges = edges + [(name, p) for p in parents]
            else:
                equivs = equivs + [tuple(sides)]
            # Refused when a protected concept dies; a no-op changes no closure.
            after = naive.closure(edges, equivs)
            refused = any(not naive.clashes(up[p]) and naive.clashes(after[p])
                          for p in protected)
            with pytest.raises(ConsistencyError) if refused else nullcontext():
                if kind == "parents":
                    graph.declare_concept(name, DATA, parents, protected=ids)
                else:
                    graph.declare_equivalent(*sides, protected=ids)
            if not refused:
                naive.edges, naive.equivs = edges, equivs
        elif kind == "disjoint":
            names, = sides
            pairs = naive.pairs + list(combinations(names, 2))
            refused = any(
                (x in up[y] or y in up[x])
                and not (naive.clashes(up[x]) or naive.clashes(up[y]))
                for x, y in combinations(names, 2)) or any(
                not naive.clashes(up[p]) and naive.clashes(up[p], pairs)
                for p in protected)
            with pytest.raises(ConsistencyError) if refused else nullcontext():
                graph.declare_disjoint(names, protected=ids)
            if not refused:
                naive.pairs = pairs
        else:
            name, = args
            assert graph.is_unsatisfiable(graph.lookup(name)) == naive.clashes(up[name])

    @staticmethod
    def agree(graph, naive):
        """Every verdict the graph gives equals the rescan."""
        up = naive.closure()
        ids = {n: graph.lookup(n) for n in POOL}
        for n in POOL:
            assert {graph.name_of(c) for c in graph.ancestors(ids[n])} == up[n], n
            assert graph.is_unsatisfiable(ids[n]) == naive.clashes(up[n]), n
        for x, y in product(POOL, repeat=2):
            both = up[x] | up[y]
            expected = naive.clashes(both)
            assert graph.are_disjoint(ids[x], ids[y]) == expected, (x, y)

    @settings(max_examples=300, deadline=None)
    @given(ontology_steps)
    # C is dead once A and B are disjoint; equating it with E must be
    # refused for E's sake, although E does not reach C.
    @example([("disjoint", ["A", "B"], False), ("equivalent", "C", "E", True),
              ("query", "E")])
    # A fresh parent E for D kills D and must be refused; unguarded it is kept.
    @example([("disjoint", ["A", "E"], False), ("parents", "D", ["E"], True),
              ("parents", "D", ["E"], False), ("query", "D")])
    # A and B disjoint kill C and D, which sit under both: refused when guarded.
    @example([("disjoint", ["E", "A", "B"], True), ("query", "C"),
              ("disjoint", ["E", "A", "B"], False), ("query", "D")])
    # C equated with its own ancestor A, which then gains C's ancestor B;
    # equating E with C would kill them all and must be refused.
    @example([("disjoint", ["B", "E"], False), ("equivalent", "C", "A", True),
              ("equivalent", "E", "C", True), ("query", "A")])
    # D's parents mix A, already above it through C, with a new E: E kills
    # D, refused when guarded and kept when not.
    @example([("disjoint", ["A", "E"], False), ("parents", "D", ["A", "E"], True),
              ("parents", "D", ["A", "E"], False), ("query", "D")])
    def test_verdicts_match_a_rescan_after_every_step(self, ops):
        graph, naive = ConceptGraph(), NaiveGraph()
        for name, parents in BASE.items():
            graph.declare_concept(name, DATA, parents)
        self.agree(graph, naive)  # the verdicts the first step may change
        for op in ops:
            self.step(graph, naive, op)
            self.agree(graph, naive)
