from itertools import product

import pytest

from consentry.core import ConsentRecord, Withdrawal
from consentry.oracle import (
    ConceptFacts,
    ConsentSpec,
    _ancestor_set,
    generate_scenario,
    oracle_collection_steps,
    oracle_disjoint,
    oracle_region,
    oracle_subsumes,
    oracle_unsatisfiable,
    oracle_verdicts,
)

import support
from support import authorized_region


def spec(granted_at=1, grant_retroactive=False, withdrawn_at=None,
         withdraw_retroactive=False):
    return ConsentSpec("D1", "alice", "R1", granted_at, grant_retroactive,
                       withdrawn_at, withdraw_retroactive)


class TestRegionShapes:
    def test_plain_grant(self):
        assert oracle_region(spec(granted_at=1), 3) == {
            (1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3)}

    def test_late_plain_grant(self):
        assert oracle_region(spec(granted_at=2), 3) == {(2, 2), (2, 3), (3, 3)}

    def test_retroactive_grant(self):
        assert oracle_region(spec(granted_at=2, grant_retroactive=True), 3) == {
            (1, 2), (2, 2), (1, 3), (2, 3), (3, 3)}

    def test_retroactive_withdrawal(self):
        got = oracle_region(spec(withdrawn_at=2, withdraw_retroactive=True), 3)
        assert got == {(1, 1)}

    def test_non_retroactive_withdrawal(self):
        got = oracle_region(spec(withdrawn_at=2), 3)
        assert got == {(1, 1), (1, 2), (1, 3)}

    def test_retro_grant_retro_withdrawal(self):
        got = oracle_region(spec(granted_at=2, grant_retroactive=True,
                                 withdrawn_at=3, withdraw_retroactive=True), 4)
        assert got == {(1, 2), (2, 2)}

    def test_retro_grant_plain_withdrawal(self):
        got = oracle_region(spec(granted_at=2, grant_retroactive=True,
                                 withdrawn_at=3), 4)
        assert got == {(1, 2), (2, 2), (1, 3), (2, 3), (1, 4), (2, 4)}

    def test_collection_steps_ignore_retro_flags(self):
        for gr, wr in product((False, True), repeat=2):
            got = oracle_collection_steps(
                spec(granted_at=2, grant_retroactive=gr,
                     withdrawn_at=4, withdraw_retroactive=wr), 5)
            assert got == {2, 3}

    def test_matches_engine_region_on_every_shape(self):
        # Same cells from two very different formulations: the engine's
        # closed-form reach and the oracle's case-by-case shapes.
        horizon = 5
        for g, gr, w, wr in product((1, 2, 3), (False, True),
                                    (None, 2, 3, 4), (False, True)):
            if w is not None and w < g:
                continue
            s = spec(g, gr, w, wr)
            rec = ConsentRecord(
                0, None, 0, "alice", 1, g, gr,
                None if w is None else Withdrawal(w, wr))
            assert authorized_region(rec, horizon) == set(oracle_region(s, horizon)), \
                f"region mismatch for g={g} gr={gr} w={w} wr={wr}"

    def test_memo_caches_are_bounded(self):
        # Regions hold O(horizon**2) cells; a long process must not keep them all.
        for memo in (oracle_region, oracle_collection_steps, _ancestor_set):
            assert memo.cache_info().maxsize is not None


class TestConceptOracle:
    FACTS = ConceptFacts(
        root="Data",
        concepts=(("A", "Data"), ("B", "A"), ("C", "B"), ("D", "Data"),
                  ("E", "D")),
        equivalences=(("E", "C"),),
        disjoint_pairs=(("A", "D"),),
    )

    def test_chain_subsumption(self):
        assert oracle_subsumes(self.FACTS, "A", "C")
        assert oracle_subsumes(self.FACTS, "Data", "C")
        assert not oracle_subsumes(self.FACTS, "C", "A")

    def test_equivalence_lifts_ancestors_both_ways(self):
        assert oracle_subsumes(self.FACTS, "D", "C")  # via C ~ E
        assert oracle_subsumes(self.FACTS, "A", "E")  # via E ~ C

    def test_equated_names_become_unsatisfiable_across_a_disjoint_pair(self):
        # C sits under A, E under D, and C ~ E folds them together.
        assert oracle_unsatisfiable(self.FACTS, "C")
        assert oracle_unsatisfiable(self.FACTS, "E")
        assert not oracle_unsatisfiable(self.FACTS, "B")

    def test_disjointness_inherited(self):
        assert oracle_disjoint(self.FACTS, "B", "D")
        assert not oracle_disjoint(self.FACTS, "B", "Data")

    def test_unsatisfiable_disjoint_from_everything(self):
        assert oracle_disjoint(self.FACTS, "C", "C")
        assert oracle_disjoint(self.FACTS, "C", "Data")


class TestScenarioGenerator:
    def test_deterministic_per_seed(self):
        assert generate_scenario(42) == generate_scenario(42)
        assert generate_scenario(42) != generate_scenario(43)

    @pytest.mark.parametrize("seed", range(40))
    def test_generated_shapes_are_well_formed(self, seed):
        sc = generate_scenario(seed)
        assert 3 <= sc.horizon <= 10
        assert sc.subjects
        for consent in sc.consents:
            assert 1 <= consent.granted_at <= sc.horizon
            if consent.withdrawn_at is not None:
                assert consent.granted_at <= consent.withdrawn_at <= sc.horizon
        for q in sc.queries:
            assert q.action in ("collect", "access")
            assert q.mode in ("guaranteed", "possible")
            assert 1 <= q.at <= sc.horizon
            if q.action == "collect":
                assert (q.start, q.end) == (q.at, q.at + 1)
            else:
                assert 1 <= q.start < q.end <= q.at + 1

    @pytest.mark.parametrize("seed", range(40))
    def test_generated_declarations_replay_cleanly(self, seed):
        # The generator must never emit declarations the engine rejects.
        support.build_ledger(generate_scenario(seed))


class TestDifferential:
    @pytest.mark.parametrize("seed", range(150))
    def test_engine_agrees_with_oracle(self, seed):
        sc = generate_scenario(seed)
        engine = support.engine_verdicts(sc)
        oracle = oracle_verdicts(sc)
        assert engine == oracle, (
            f"seed {seed}: engine {engine} vs oracle {oracle}\n{sc}")
