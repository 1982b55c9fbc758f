import dataclasses
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slice_arena.baselines import (myopic_exhaustive_decision,
                                   random_policy_decision)
from slice_arena.env import Chain, ClusterState, ResourceVector, SliceEnv

from conftest import make_dc, make_slice
from oracles import (assignment_cost, brute_force_decision,
                     count_vector_decision, enumerate_assignments)


def cluster(remaining, chains=()):
    return ClusterState(remaining=list(remaining), chains=list(chains),
                        pending=deque(), slot_index=0)


def rv(cpu, memory, storage):
    return ResourceVector(cpu, memory, storage)


@pytest.fixture()
def two_dcs():
    return (make_dc("dc1", power=(150, 150)), make_dc("dc2", power=(150, 150)))


class TestRandomPolicy:
    def test_uniform_over_three_options(self):
        state = cluster([rv(32, 50, 5000), rv(32, 50, 5000)])
        rng = np.random.default_rng(0)
        draws = np.array([random_policy_decision(state, rng)
                          for _ in range(30_000)])
        for option in (0, 1, 2):
            assert abs((draws == option).mean() - 1 / 3) < 0.02

    def test_seeded_reproducible(self):
        state = cluster([rv(1, 1, 1)])
        a = [random_policy_decision(state, np.random.default_rng(5))
             for _ in range(1)]
        b = [random_policy_decision(state, np.random.default_rng(5))
             for _ in range(1)]
        assert a == b

    def test_no_datacenters_always_rejects(self):
        state = cluster([])
        rng = np.random.default_rng(1)
        assert all(random_policy_decision(state, rng) == 0
                   for _ in range(50))


class TestEnumeration:
    def test_counts(self):
        state = cluster([rv(1, 1, 1), rv(1, 1, 1)])
        spec = make_slice()
        assert len(enumerate_assignments([spec], state)) == 3
        assert len(enumerate_assignments([spec, spec], state)) == 9

    def test_lexicographic_order(self):
        state = cluster([rv(1, 1, 1), rv(1, 1, 1)])
        spec = make_slice()
        got = enumerate_assignments([spec, spec], state)
        assert got == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1),
                       (1, 2), (2, 0), (2, 1), (2, 2)]


class TestAssignmentCost:
    def test_reject_all_costs_standing_power(self, two_dcs):
        chains = [Chain("s1", 0, 120.0, depart_after=99)]
        state = cluster([rv(30, 43, 4970), rv(32, 50, 5000)], chains)
        spec = make_slice(priority=2.0)
        cost = assignment_cost((0,), [spec], state, kappa=100.0,
                               datacenters=two_dcs)
        assert cost == pytest.approx(120.0)

    def test_admission_uses_expected_power(self, two_dcs):
        state = cluster([rv(32, 50, 5000), rv(32, 50, 5000)])
        spec = make_slice(priority=2.0)
        cost = assignment_cost((1,), [spec], state, kappa=100.0,
                               datacenters=two_dcs)
        assert cost == pytest.approx(150.0 - 200.0)

    def test_infeasible_returns_none(self, two_dcs):
        state = cluster([rv(1, 1, 1), rv(1, 1, 1)])
        spec = make_slice(demand=(2, 7, 30))
        assert assignment_cost((1,), [spec], state, 100.0, two_dcs) is None

    def test_cumulative_feasibility(self, two_dcs):
        # one DC slot of memory: the second admission must fail
        state = cluster([rv(32, 10, 5000), rv(1, 1, 1)])
        spec = make_slice(demand=(2, 7, 30))
        assert assignment_cost((1, 1), [spec, spec], state, 100.0, two_dcs) is None
        assert assignment_cost((1, 0), [spec, spec], state, 100.0, two_dcs) is not None

    def test_chain_capacity_counts_assignment(self, two_dcs):
        state = cluster([rv(32, 50, 5000), rv(32, 50, 5000)])
        spec = make_slice(chain_capacity=1)
        assert assignment_cost((1, 2), [spec, spec], state, 100.0, two_dcs) is None


class TestMyopicExhaustive:
    def test_single_request_fits_only_second_dc(self):
        dcs = (make_dc("dc1", memory=5, power=(150, 150)),
               make_dc("dc2", power=(150, 150)))
        state = cluster([rv(32, 5, 5000), rv(32, 50, 5000)])
        spec = make_slice(priority=2.0, demand=(2, 7, 30))
        got = myopic_exhaustive_decision([spec], state, kappa=1000.0,
                                         datacenters=dcs)
        assert got == (2,)

    def test_low_kappa_admits_nothing(self, two_dcs):
        # admitting costs 150 - 100 = +50, so the optimum rejects both
        state = cluster([rv(32, 50, 5000), rv(32, 50, 5000)])
        spec = make_slice(priority=1.0)
        got = myopic_exhaustive_decision([spec, spec], state, kappa=100.0,
                                         datacenters=two_dcs)
        assert got == (0, 0)

    def test_scarce_capacity_lexicographic_tie(self):
        # memory fits exactly one admission; (0,1) and (1,0) tie on cost
        dcs = (make_dc("dc1", memory=7, power=(150, 150)),)
        state = cluster([rv(32, 7, 5000)])
        spec = make_slice(priority=1.0, demand=(2, 7, 30))
        got = myopic_exhaustive_decision([spec, spec], state, kappa=1000.0,
                                         datacenters=dcs)
        assert got == (0, 1)

    def test_prefers_high_priority_under_scarcity(self):
        # sequential greedy would admit the earlier low-priority request;
        # exhaustive search holds the slot for the later high one
        dcs = (make_dc("dc1", memory=7, power=(150, 150)),)
        state = cluster([rv(32, 7, 5000)])
        low = make_slice("low", priority=1.0, demand=(2, 7, 30))
        high = make_slice("high", priority=5.0, demand=(2, 7, 30))
        got = myopic_exhaustive_decision([low, high], state, kappa=1000.0,
                                         datacenters=dcs)
        assert got == (0, 1)

    def test_no_feasible_placement(self, two_dcs):
        state = cluster([rv(1, 1, 1), rv(1, 1, 1)])
        spec = make_slice(demand=(2, 7, 30))
        got = myopic_exhaustive_decision([spec, spec, spec], state, 1000.0,
                                         two_dcs)
        assert got == (0, 0, 0)

    def test_large_slot_planned_whole(self, two_dcs):
        # 13 requests, 3^13 assignment vectors: the chain cap admits 8 and
        # memory fits 7 per DC; rejects come first, then DC 1 before DC 2
        state = cluster([rv(32, 50, 5000), rv(32, 50, 5000)])
        got = myopic_exhaustive_decision([make_slice(chain_capacity=8)] * 13,
                                         state, 1000.0, two_dcs)
        assert got == (0,) * 5 + (1,) * 7 + (2,)

    def test_starved_large_slot_rejects_all(self, two_dcs):
        starved = cluster([rv(1, 1, 1), rv(1, 1, 1)])
        low, high = make_slice("low"), make_slice("high", priority=3.0)
        got = myopic_exhaustive_decision([low, high] * 10, starved, 1000.0,
                                         two_dcs)
        assert got == (0,) * 20

    def test_rounding_miss_takes_next_arrangement(self):
        # replayed in request order, 0.6 - 0.5 no longer covers 0.1, so the
        # canonical (0, 1, 1) does not fit while (1, 1, 0) does
        a = make_slice("a", demand=(0.1, 1, 1), chain_capacity=1)
        b = make_slice("b", demand=(0.5, 1, 1), chain_capacity=1)
        state = cluster([rv(0.6, 10, 10)])
        dcs = (make_dc("dc1", power=(100, 100)),)
        assert assignment_cost((0, 1, 1), [a, b, a], state, 1000.0, dcs) is None
        assert myopic_exhaustive_decision([a, b, a], state, 1000.0, dcs) \
            == (1, 1, 0)

    def test_count_arithmetic_does_not_cut_a_fit(self):
        # 0.6 + 1.1 rounds above 1.7, but 1.7 - 0.6 still covers 1.1
        a = make_slice("a", demand=(0.6, 1, 1))
        b = make_slice("b", demand=(1.1, 1, 1))
        state = cluster([rv(1.7, 10, 10)])
        dcs = (make_dc("dc1", power=(100, 100)),)
        assert myopic_exhaustive_decision([a, b], state, 1000.0, dcs) == (1, 1)

    def test_cheapest_first_leaf_is_not_optimal(self):
        # "a" fills the DC alone (2 x 1,850 against "b"'s 2,850), so the
        # first leaf of a cheapest-first search admits both a's; one a and
        # the b together are worth 4,700, which a cut must not lose
        a = make_slice("a", priority=2.0, demand=(1, 10, 1))
        b = make_slice("b", priority=3.0, demand=(1, 10, 1))
        state = cluster([rv(32, 20, 5000)])
        dcs = (make_dc("dc1", power=(150, 150)),)
        requests = [a, a, b]
        assert assignment_cost((1, 1, 0), requests, state, 1000.0, dcs) == -3700
        got = myopic_exhaustive_decision(requests, state, 1000.0, dcs)
        assert got == (0, 1, 1)
        assert got == brute_force_decision(requests, state, 1000.0, dcs)

    def test_all_ties_take_the_smallest_assignment(self, two_dcs):
        # identical DCs with room for two requests each and two slices of
        # equal worth: every way to admit all four ties on cost
        s1, s2 = make_slice("s1", chain_capacity=2), make_slice("s2", chain_capacity=2)
        state = cluster([rv(32, 14, 5000), rv(32, 14, 5000)])
        requests = [s2, s1, s2, s1]
        tied = {assignment_cost(a, requests, state, 1000.0, two_dcs)
                for a in [(1, 1, 2, 2), (1, 2, 2, 1), (2, 1, 1, 2), (2, 2, 1, 1)]}
        assert len(tied) == 1
        got = myopic_exhaustive_decision(requests, state, 1000.0, two_dcs)
        assert got == (1, 1, 2, 2)
        assert got == brute_force_decision(requests, state, 1000.0, two_dcs)

    def test_one_slice_id_with_two_specs_rejected(self, two_dcs):
        state = cluster([rv(32, 50, 5000), rv(32, 50, 5000)])
        with pytest.raises(ValueError, match="differ"):
            myopic_exhaustive_decision(
                [make_slice("s1"), make_slice("s1", priority=2.0)], state,
                1000.0, two_dcs)

    def test_beats_every_enumerated_assignment(self, two_dcs):
        rng = np.random.default_rng(17)
        for _ in range(100):
            k = int(rng.integers(1, 5))
            kappa = float(rng.choice([1.0, 100.0, 1000.0]))
            state = cluster([
                rv(int(rng.integers(2, 12)), int(rng.integers(5, 20)),
                   int(rng.integers(30, 200))) for _ in range(2)])
            specs = [make_slice(f"s{i}",
                                priority=float(rng.integers(1, 5)),
                                demand=(int(rng.integers(1, 4)),
                                        int(rng.integers(3, 9)),
                                        int(rng.integers(10, 60))),
                                chain_capacity=int(rng.integers(1, 4)))
                     for i in range(k)]
            got = myopic_exhaustive_decision(specs, state, kappa, two_dcs)
            got_cost = assignment_cost(got, specs, state, kappa, two_dcs)
            assert got_cost is not None
            # independent check over the full assignment space
            for assignment in enumerate_assignments(specs, state):
                cost = assignment_cost(assignment, specs, state, kappa, two_dcs)
                if cost is not None:
                    assert got_cost <= cost + 1e-9

    def test_single_request_equals_argmin(self, two_dcs):
        rng = np.random.default_rng(23)
        for _ in range(50):
            state = cluster([
                rv(int(rng.integers(1, 6)), int(rng.integers(3, 12)),
                   int(rng.integers(20, 100))) for _ in range(2)])
            spec = make_slice(priority=float(rng.integers(1, 5)))
            kappa = float(rng.choice([1.0, 500.0]))
            got = myopic_exhaustive_decision([spec], state, kappa, two_dcs)
            costs = [assignment_cost((c,), [spec], state, kappa, two_dcs)
                     for c in range(3)]
            feasible = [(cost, c) for c, cost in enumerate(costs) if cost is not None]
            want = min(feasible)[1]
            assert got == (want,)



@st.composite
def slot_instances(draw, min_requests=1, max_requests=None):
    """A slot decision problem with exact cost arithmetic (integer
    priorities, kappa and chain powers; half-integer midpoints), so that
    cost ties are exact and the tie rule is well defined. Demands lie on a
    0.1 grid and each DC has room for a few requests give or take a tenth,
    so placements fit or miss at the margin, where the order of the
    subtractions can decide. Without max_requests a slot has at most 8, 7
    or 6 requests on 1, 2 or 3 DCs, few enough to brute-force."""
    n_dcs = draw(st.integers(1, 3))
    if draw(st.booleans()):
        ranges = [(150.0, 150.0)] * n_dcs
    else:
        ranges = [(float(lo), float(lo + width)) for lo, width in
                  draw(st.lists(st.tuples(st.integers(50, 200),
                                          st.integers(0, 101)),
                                min_size=n_dcs, max_size=n_dcs))]
    dcs = tuple(make_dc(f"dc{j}", power=power) for j, power in enumerate(ranges))
    tenths = [tuple(draw(st.integers(1, 20)) for _ in range(3))
              for _ in range(draw(st.integers(1, 3)))]
    slices = [make_slice(f"s{i}", priority=float(draw(st.integers(1, 3))),
                         demand=tuple(t / 10 for t in demand),
                         chain_capacity=draw(st.integers(1, 4)))
              for i, demand in enumerate(tenths)]
    remaining = []
    for _ in range(n_dcs):
        room = draw(st.lists(st.sampled_from(tenths), min_size=1, max_size=4))
        remaining.append(rv(*(
            max(0, sum(demand[c] for demand in room)
                + draw(st.integers(-1, 1))) / 10 for c in range(3))))
    if max_requests is None:
        max_requests = (8, 7, 6)[n_dcs - 1]
    requests = draw(st.lists(st.sampled_from(slices), min_size=min_requests,
                             max_size=max_requests))
    chains = [Chain(slices[s].slice_id, dc, float(power), depart_after=99)
              for s, dc, power in draw(st.lists(
                  st.tuples(st.integers(0, len(slices) - 1),
                            st.integers(0, n_dcs - 1), st.integers(50, 200)),
                  max_size=3))]
    kappa = draw(st.sampled_from([100.0, 1000.0]))
    return requests, cluster(remaining, chains), kappa, dcs


class TestAgainstBruteForce:
    @given(slot_instances())
    @settings(max_examples=150, deadline=None)
    def test_oracle_equals_brute_force(self, instance):
        requests, state, kappa, dcs = instance
        assert myopic_exhaustive_decision(requests, state, kappa, dcs) \
            == brute_force_decision(requests, state, kappa, dcs)


class TestAgainstCountVectors:
    """Slots of 10 to 16 requests, past brute force's reach, against the
    enumerate-sort-replay search over count vectors."""

    @given(slot_instances(min_requests=10, max_requests=16))
    @settings(max_examples=120, deadline=None)
    def test_oracle_equals_count_vector_search(self, instance):
        requests, state, kappa, dcs = instance
        assert myopic_exhaustive_decision(requests, state, kappa, dcs) \
            == count_vector_decision(requests, state, kappa, dcs)

    @pytest.mark.parametrize("capacity", [8, 20])
    def test_paper_slots_equal_count_vector_search(self, paper_cfg, capacity):
        # the paper's identical DCs make cost ties common; at a cap of 20
        # the DCs bind before the caps do
        scenario = dataclasses.replace(paper_cfg, slices=tuple(
            dataclasses.replace(s, chain_capacity=capacity)
            for s in paper_cfg.slices))
        by_id = {s.slice_id: s for s in scenario.slices}
        env = SliceEnv(scenario)
        env.reset(paper_cfg.seeds[0])
        decided = large = 0
        while not env.episode_done() and env.state.slot_index < 60:
            requests = [by_id[sid] for sid in env.state.pending]
            got = myopic_exhaustive_decision(requests, env.state,
                                             scenario.kappa, scenario.datacenters)
            assert got == count_vector_decision(
                requests, env.state, scenario.kappa, scenario.datacenters)
            decided += 1
            large += len(requests) >= 10
            for option in got:
                env.step(option)
        assert decided == 60 and large > 20
