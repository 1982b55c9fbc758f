import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slice_arena import (REJECT, InvalidDecisionError, NoPendingRequestError,
                         ResourceVector, SliceEnv, StepOutcome, load_config,
                         paper_config_path)
from slice_arena.env import PENDING_CAP, _geometric_lifetime, run_episodes

from conftest import make_dc, make_scenario, make_slice
from oracles import observation_reference, per_request_draw_arrivals


def run_episode(env, seed, policy):
    """Drive env to completion; policy(env) -> decision. Returns step outcomes."""
    env.reset(seed)
    outcomes = []
    while env.has_pending():
        outcomes.append(env.step(policy(env)))
        if outcomes[-1].episode_done:
            break
    return outcomes


def first_fit(env):
    spec = env.current_request_slice()
    for dc in range(len(env.scenario.datacenters)):
        if env.admission_feasible(spec.slice_id, dc):
            return dc + 1
    return REJECT


def hunt_seed(env, pending_target, limit=300):
    for seed in range(limit):
        env.reset(seed)
        if len(env.state.pending) == pending_target and not env.episode_done():
            return seed
    raise AssertionError(f"no seed with {pending_target} initial arrivals in {limit} tries")


class TestResourceVector:
    def test_arithmetic_and_covers(self):
        a = ResourceVector(4, 8, 100)
        b = ResourceVector(1, 2, 30)
        assert (a - b).as_tuple() == (3.0, 6.0, 70.0)
        assert (a + b).as_tuple() == (5.0, 10.0, 130.0)
        assert a.covers(b) and not b.covers(a)
        assert a.covers(a)

    def test_negative_rejected(self):
        for component in ("cpu", "memory", "storage"):
            for bad in (-1, math.nan, math.inf):
                values = {"cpu": 1.0, "memory": 1.0, "storage": 1.0,
                          component: bad}
                with pytest.raises(ValueError, match=(
                        f"^{component} must be finite and >= 0, got {bad!r}$")):
                    ResourceVector(**values)
        assert ResourceVector(0, 0.0, 1e308).as_tuple() == (0, 0.0, 1e308)

    def test_every_remaining_vector_passed_the_check(self, monkeypatch):
        checked = {}  # id -> vector; holding each keeps its id unique
        check = ResourceVector.__post_init__

        def counting(self):
            check(self)
            checked[id(self)] = self

        monkeypatch.setattr(ResourceVector, "__post_init__", counting)
        # loaded under the counter, so the capacities reset writes count too
        env = SliceEnv(load_config(paper_config_path()))
        admitted = departed = 0
        for seed in (1, 2):
            env.reset(seed)
            assert all(checked.get(id(v)) is v for v in env.state.remaining)
            while not env.episode_done():
                chains = len(env.state.chains)
                outcome = env.step(first_fit(env))
                admitted += outcome.admitted
                departed += len(env.state.chains) < chains + outcome.admitted
                assert all(checked.get(id(v)) is v
                           for v in env.state.remaining)
        assert admitted > 100 and departed > 100

    @given(st.tuples(*[st.floats(0, 1e6) for _ in range(3)]),
           st.tuples(*[st.floats(0, 1e6) for _ in range(3)]))
    @settings(max_examples=60, deadline=None)
    def test_sum_covers_parts(self, xs, ys):
        a, b = ResourceVector(*xs), ResourceVector(*ys)
        total = a + b
        assert total.covers(a) and total.covers(b)


class TestStepOutcome:
    def test_fields_keep_their_names_and_order(self):
        assert StepOutcome._fields == ("reward", "admitted",
                                       "infeasible_attempt", "observation",
                                       "episode_done")

    def test_step_returns_one(self, paper_cfg):
        env = SliceEnv(paper_cfg)
        env.reset(1)
        outcome = env.step(REJECT)
        assert type(outcome) is StepOutcome
        reward, admitted, infeasible, observation, done = outcome
        assert (admitted, infeasible, done) == (False, False, False)
        np.testing.assert_array_equal(observation, env.observation())


class TestFeasibilityAndCost:
    def _env(self, cpu, *slices):
        env = SliceEnv(make_scenario(datacenters=(make_dc(cpu=cpu),),
                                     slices=slices))
        env.reset(0)
        return env

    def test_ample_resources_feasible(self):
        env = self._env(32.0, make_slice(demand=(2, 7, 30)))
        assert env.admission_feasible("s1", 0)

    def test_cpu_short_infeasible(self):
        env = self._env(1.0, make_slice(demand=(2, 7, 30)))
        assert not env.admission_feasible("s1", 0)

    def test_chain_cap_blocks(self):
        env = self._env(32.0, make_slice(arrival_mean=4.0, departure_prob=0.0,
                                         chain_capacity=1),
                        make_slice("s2", demand=(1, 1, 1)))
        assert env.admission_feasible("s1", 0)
        while env.current_request_slice().slice_id != "s1":
            env.step(REJECT)
        assert env.step(1).admitted
        # the chain never departs; resources remain for both slices
        assert not env.admission_feasible("s1", 0)
        assert env.admission_feasible("s2", 0)

    def test_slot_cost_hand_value(self):
        # one chain slot, drawing exactly 150 and never departing; kappa 100
        # and priority 1: the slot that admits it costs 150 - 100 = 50, the
        # next slot, which still runs it but admits nothing, costs 150
        sc = make_scenario(
            datacenters=(make_dc(power=(150.0, 150.0)),),
            slices=(make_slice("a", priority=1.0, arrival_mean=3.0,
                               departure_prob=0.0, chain_capacity=1),),
            kappa=100.0, horizon=2)
        env = SliceEnv(sc)
        env.reset(0)
        env.step(1)
        while env.state.slot_index == 0:
            env.step(REJECT)
        assert (env.slot_log[-1].slot, env.slot_log[-1].decisions) == (0, 2)
        assert env.slot_log[-1].cost == pytest.approx(50.0)
        while not env.episode_done():
            env.step(REJECT)
        assert (env.slot_log[-1].slot, env.slot_log[-1].decisions) == (1, 4)
        assert env.slot_log[-1].cost == pytest.approx(150.0)


class TestReset:
    def test_no_arrivals_observation(self):
        sc = make_scenario(slices=(make_slice("a", arrival_mean=0.0),
                                   make_slice("b", arrival_mean=0.0)))
        env = SliceEnv(sc)
        obs = env.reset(0)
        np.testing.assert_allclose(obs, [1, 1, 1, 1, 1, 1, 0, 0])
        assert env.episode_done()  # nothing ever arrives

    def test_same_seed_same_observation(self, paper_cfg):
        env = SliceEnv(paper_cfg)
        a = env.reset(11)
        b = env.reset(11)
        np.testing.assert_array_equal(a, b)

    def test_initial_pending_poisson_mean(self, paper_cfg):
        env = SliceEnv(paper_cfg)
        totals = np.zeros(2)
        n = 10_000
        for seed in range(n):
            obs = env.reset(seed)
            totals += obs[6:] * PENDING_CAP
        means = totals / n
        np.testing.assert_allclose(means, [6.0, 6.0], rtol=0.02)


class TestStep:
    def test_single_request_hand_reward(self):
        sc = make_scenario(
            datacenters=(make_dc(power=(150.0, 150.0)),),
            slices=(make_slice(priority=1.0, arrival_mean=1.0),),
            kappa=100.0, horizon=1)
        env = SliceEnv(sc, debug=True)
        seed = hunt_seed(env, 1)
        env.reset(seed)
        out = env.step(1)
        assert out.admitted and not out.infeasible_attempt
        assert out.episode_done
        assert out.reward == pytest.approx(-(150.0 - 100.0))

    def test_infeasible_penalty_leaves_state_alone(self):
        sc = make_scenario(
            datacenters=(make_dc(cpu=1.0),),
            slices=(make_slice(demand=(2, 7, 30), arrival_mean=1.0),),
            m_penalty=1000.0, horizon=1)
        env = SliceEnv(sc, debug=True)
        seed = hunt_seed(env, 1)
        env.reset(seed)
        out = env.step(1)
        assert out.infeasible_attempt and not out.admitted
        # slot settles with zero chains, so the penalty is the whole reward
        assert out.reward == pytest.approx(-1000.0)
        assert env.state.remaining[0].as_tuple() == (1.0, 50.0, 5000.0)

    def test_reject_is_free(self):
        sc = make_scenario(slices=(make_slice(arrival_mean=2.0),), horizon=1)
        env = SliceEnv(sc)
        seed = hunt_seed(env, 2)
        env.reset(seed)
        out = env.step(REJECT)
        assert not out.admitted and not out.infeasible_attempt
        assert out.reward == 0.0  # slot not settled yet, no penalty

    def test_certain_departure_empties_ledger(self):
        sc = make_scenario(
            datacenters=(make_dc(power=(150.0, 150.0)), make_dc("dc2", power=(150.0, 150.0))),
            slices=(make_slice(departure_prob=1.0, arrival_mean=3.0,
                               chain_capacity=50),),
            horizon=60)
        env = SliceEnv(sc, debug=True)
        run_episode(env, 5, first_fit)
        for rec in env.slot_log:
            admitted = sum(s.admitted for s in rec.per_slice.values())
            assert rec.power == pytest.approx(150.0 * admitted)

    def test_littles_law_occupancy(self):
        # M/M/inf regime: mean active chains = arrival_mean / departure_prob
        sc = make_scenario(
            datacenters=(make_dc(cpu=1e7, memory=1e7, storage=1e9,
                                 power=(150.0, 150.0)),),
            slices=(make_slice(arrival_mean=5.0, departure_prob=0.3,
                               chain_capacity=10**6, demand=(1, 1, 1)),),
            horizon=4000)
        env = SliceEnv(sc)
        run_episode(env, 3, lambda e: 1)
        mean_power = np.mean([rec.power for rec in env.slot_log[200:]])
        want = 150.0 * 5.0 / 0.3
        assert mean_power == pytest.approx(want, rel=0.05)

    def test_invalid_decisions(self, paper_cfg):
        env = SliceEnv(paper_cfg)
        env.reset(0)
        for bad in (-1, 3, 7):
            with pytest.raises(InvalidDecisionError):
                env.step(bad)
        with pytest.raises(InvalidDecisionError):
            env.step(1.5)

    def test_step_after_done(self):
        sc = make_scenario(slices=(make_slice(arrival_mean=0.0),))
        env = SliceEnv(sc)
        env.reset(0)
        assert env.episode_done()
        with pytest.raises(NoPendingRequestError):
            env.step(REJECT)
        with pytest.raises(NoPendingRequestError):
            env.current_request_slice()


@pytest.fixture(scope="module")
def random_run(paper_cfg):
    env = SliceEnv(paper_cfg, debug=True)
    rng = np.random.default_rng(42)
    outcomes = run_episode(env, 7, lambda e: int(rng.integers(0, 3)))
    return env, outcomes


class TestRunEpisodes:
    def test_matches_per_seed_loop(self, paper_cfg):
        seeds = (3, 4, 5)
        envs = [SliceEnv(paper_cfg) for _ in seeds]
        calls = []

        def decide(live, observations):
            calls.append(list(live))
            for i in live:
                np.testing.assert_array_equal(observations[i],
                                              envs[i].observation())
            return [first_fit(envs[i]) for i in live]

        run_episodes(envs, seeds, decide)
        for env, seed in zip(envs, seeds):
            reference = SliceEnv(paper_cfg)
            run_episode(reference, seed, first_fit)
            assert env.slot_log == reference.slot_log
        # one call per lockstep step, over the episodes still running
        lengths = [sum(s.decisions for s in env.slot_log) for env in envs]
        assert len(set(lengths)) == len(lengths)
        assert calls == [[i for i, n in enumerate(lengths) if n > step]
                         for step in range(max(lengths))]

    def test_empty_episodes_never_decide(self):
        sc = make_scenario(slices=(make_slice(arrival_mean=0.0),), horizon=5)
        envs = [SliceEnv(sc), SliceEnv(sc)]

        def decide(live, observations):
            raise AssertionError("no request is ever pending")

        run_episodes(envs, (1, 2), decide)
        for env in envs:
            assert env.episode_done()
            assert [(r.slot, r.cost, r.reward) for r in env.slot_log] == \
                [(t, 0.0, 0.0) for t in range(5)]


class TestAccountingInvariants:
    def test_step_rewards_match_slot_rewards(self, random_run):
        env, outcomes = random_run
        total_steps = sum(o.reward for o in outcomes)
        total_slots = sum(rec.reward for rec in env.slot_log)
        assert total_steps == pytest.approx(total_slots, rel=1e-9)

    def test_arrival_decomposition(self, random_run):
        env, _ = random_run
        for rec in env.slot_log:
            for stats in rec.per_slice.values():
                assert stats.arrived == stats.admitted + stats.rejected + stats.infeasible

    def test_slot_reward_bounds(self, random_run, paper_cfg):
        env, _ = random_run
        max_power = sum(s.chain_capacity for s in paper_cfg.slices) * 200.0
        max_priority = max(s.priority for s in paper_cfg.slices)
        for rec in env.slot_log:
            requests = sum(s.arrived for s in rec.per_slice.values())
            lo = -paper_cfg.m_penalty * requests - max_power
            hi = paper_cfg.kappa * max_priority * requests
            assert lo <= rec.reward <= hi + 1e-9

    def test_full_slot_coverage(self, random_run, paper_cfg):
        env, _ = random_run
        assert [rec.slot for rec in env.slot_log] == list(range(paper_cfg.horizon))

    def test_observation_bounds(self, paper_cfg):
        env = SliceEnv(paper_cfg)
        env.reset(19)
        while env.has_pending():
            obs = env.step(first_fit(env)).observation
            assert np.all(obs >= 0.0) and np.all(obs <= 1.0)
            if env.episode_done():
                break

    def test_pending_clip(self):
        sc = make_scenario(slices=(make_slice(arrival_mean=50.0),), horizon=2)
        env = SliceEnv(sc)
        obs = env.reset(1)
        assert obs[-1] == 1.0


class TestDeterminismAndIsolation:
    def test_identical_replay(self, paper_cfg):
        env1 = SliceEnv(paper_cfg)
        rng = np.random.default_rng(1)
        outcomes1 = run_episode(env1, 13, lambda e: int(rng.integers(0, 3)))
        actions = []
        rng = np.random.default_rng(1)
        env_probe = SliceEnv(paper_cfg)
        env_probe.reset(13)
        while env_probe.has_pending():
            a = int(rng.integers(0, 3))
            actions.append(a)
            if env_probe.step(a).episode_done:
                break
        env2 = SliceEnv(paper_cfg)
        env2.reset(13)
        outcomes2 = [env2.step(a) for a in actions]
        assert len(outcomes1) == len(outcomes2)
        for a, b in zip(outcomes1, outcomes2):
            assert a.reward == b.reward
            np.testing.assert_array_equal(a.observation, b.observation)
        assert [r.power for r in env1.slot_log] == [r.power for r in env2.slot_log]

    def test_traffic_independent_of_policy(self, paper_cfg):
        reject_env = SliceEnv(paper_cfg)
        run_episode(reject_env, 21, lambda e: REJECT)
        greedy_env = SliceEnv(paper_cfg)
        run_episode(greedy_env, 21, first_fit)
        rejected_arrivals = [[s.arrived for s in rec.per_slice.values()]
                             for rec in reject_env.slot_log]
        greedy_arrivals = [[s.arrived for s in rec.per_slice.values()]
                           for rec in greedy_env.slot_log]
        assert rejected_arrivals == greedy_arrivals

    def test_arrival_statistics(self):
        sc = make_scenario(slices=(make_slice(arrival_mean=6.0),), horizon=10_000)
        env = SliceEnv(sc)
        run_episode(env, 2, lambda e: REJECT)
        counts = np.array([rec.per_slice["s1"].arrived for rec in env.slot_log])
        assert counts.mean() == pytest.approx(6.0, rel=0.05)
        assert counts.var() == pytest.approx(6.0, rel=0.05)


class TestLifetimes:
    def test_inverse_cdf_geometric(self):
        rng = np.random.default_rng(8)
        draws = np.array([_geometric_lifetime(u, 0.3) for u in rng.uniform(size=200_000)])
        assert draws.mean() == pytest.approx(1.0 / 0.3, rel=0.05)
        assert (draws == 1).mean() == pytest.approx(0.3, abs=0.01)
        assert draws.min() >= 1

    def test_edge_probabilities(self):
        assert _geometric_lifetime(0.99, 1.0) == 1.0
        assert _geometric_lifetime(0.5, 0.0) == math.inf
        assert _geometric_lifetime(0.0, 0.5) >= 1.0

    @given(st.floats(0, 0.999999), st.floats(0.01, 1))
    @settings(max_examples=80, deadline=None)
    def test_always_at_least_one_slot(self, u, p):
        assert _geometric_lifetime(u, p) >= 1.0


class TestAlwaysOnPower:
    def test_power_constant_and_admission_independent(self):
        def build():
            return make_scenario(
                slices=(make_slice(arrival_mean=2.0, chain_capacity=8),),
                power_mode="always_on", horizon=40)
        env_a = SliceEnv(build())
        run_episode(env_a, 31, lambda e: REJECT)
        env_b = SliceEnv(build())
        run_episode(env_b, 31, first_fit)
        powers_a = {rec.power for rec in env_a.slot_log}
        powers_b = {rec.power for rec in env_b.slot_log}
        assert len(powers_a) == 1
        assert powers_a == powers_b
        value = powers_a.pop()
        assert 8 * 100.0 <= value <= 8 * 200.0


class PerRequestDrawEnv(SliceEnv):
    """Draws one value at a time and builds its observation from scratch,
    so it owes nothing to the batched draws or to the observation that
    SliceEnv keeps in place."""

    _draw_arrivals = per_request_draw_arrivals
    observation = observation_reference


def run_against_per_request_draws(scenario, seed, script_seed=5):
    """Step the batched env (with its debug checks on) and the per-request
    reference side by side on the same scripted decisions; returns the
    number of steps taken."""
    env, ref = SliceEnv(scenario, debug=True), PerRequestDrawEnv(scenario)
    np.testing.assert_array_equal(env.reset(seed), ref.reset(seed))
    script = np.random.default_rng(script_seed)
    steps = 0
    while not env.episode_done():
        assert list(env.state.pending) == list(ref.state.pending)
        assert list(env._request_uniforms) == list(ref._request_uniforms)
        decision = (first_fit(env) if script.random() < 0.7
                    else int(script.integers(0, env.n_actions)))
        got, want = env.step(decision), ref.step(decision)
        assert (got.reward, got.admitted, got.infeasible_attempt,
                got.episode_done) == (want.reward, want.admitted,
                                      want.infeasible_attempt,
                                      want.episode_done)
        np.testing.assert_array_equal(got.observation, want.observation)
        steps += 1
    assert ref.episode_done()
    assert env.slot_log == ref.slot_log
    return steps


@st.composite
def small_scenarios(draw):
    slices = tuple(
        make_slice(f"s{i}", priority=draw(st.sampled_from((1.0, 3.0))),
                   arrival_mean=draw(st.sampled_from((0.0, 0.4, 2.0, 7.5))),
                   departure_prob=draw(st.sampled_from((0.0, 0.3, 1.0))),
                   chain_capacity=draw(st.integers(1, 4)))
        for i in range(draw(st.integers(1, 3))))
    dcs = tuple(make_dc(f"dc{j}", cpu=draw(st.sampled_from((4.0, 32.0))))
                for j in range(draw(st.integers(1, 2))))
    return make_scenario(datacenters=dcs, slices=slices,
                         power_mode=draw(st.sampled_from(("utilization",
                                                          "always_on"))),
                         horizon=draw(st.integers(1, 15)))


class TestBatchedDraws:
    """The per-slot batched draws against drawing one value at a time."""

    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_paper_config_matches_per_request_draws(self, paper_cfg, seed):
        assert run_against_per_request_draws(paper_cfg, seed) > 1000

    @given(small_scenarios(), st.integers(0, 2 ** 31 - 1))
    @example(make_scenario(
        slices=(make_slice("idle", arrival_mean=0.0),
                make_slice("stays", arrival_mean=2.0, departure_prob=0.0,
                           chain_capacity=3),
                make_slice("blinks", arrival_mean=3.0, departure_prob=1.0)),
        power_mode="always_on", horizon=12), 17)
    @settings(max_examples=60, deadline=None)
    def test_small_scenarios_match_per_request_draws(self, scenario, seed):
        run_against_per_request_draws(scenario, seed)


class TestCounters:
    """The O(1) per-slice counters against the ledger and the deque."""

    @pytest.mark.parametrize("seed", range(4))
    def test_random_episodes_keep_counters(self, seed):
        sc = make_scenario(slices=(
            make_slice("s1", arrival_mean=3.0, chain_capacity=2),
            make_slice("s2", arrival_mean=1.0, departure_prob=0.0,
                       chain_capacity=3),
            make_slice("s3", arrival_mean=2.0, departure_prob=1.0)),
            horizon=60)
        env = SliceEnv(sc, debug=True)  # checks every counter on every step
        rng = np.random.default_rng(seed)
        outcomes = run_episode(env, seed, lambda e: int(rng.integers(0, 3)))
        assert env.episode_done()
        assert any(o.admitted for o in outcomes)
        assert any(o.infeasible_attempt for o in outcomes)

    @pytest.mark.parametrize("counter,message", (
        ("_active_counts", "active counter"),
        ("_pending_counts", "pending counter")))
    def test_corrupted_counter_raises(self, paper_cfg, counter, message):
        env = SliceEnv(paper_cfg, debug=True)
        env.reset(hunt_seed(env, 12))
        getattr(env, counter)[paper_cfg.slices[-1].slice_id] += 1
        with pytest.raises(AssertionError, match=message):
            env.step(REJECT)

    def test_nudged_power_total_raises(self, paper_cfg):
        # the kept total must be the ledger's sum bit for bit: a nudge of
        # one unit in the last place is caught
        env = SliceEnv(paper_cfg, debug=True)
        env.reset(hunt_seed(env, 12))
        assert env.step(first_fit(env)).admitted  # the cluster starts empty
        env._power = math.nextafter(env._power, math.inf)
        with pytest.raises(AssertionError, match="kept power total"):
            env.step(REJECT)


def run_checking_observations(env, seed, policy):
    """Drive env to its end with policy(env); check env.observation() and
    every StepOutcome.observation against the from-scratch reference, and
    that each is a copy. Returns the number of steps taken."""
    first = env.reset(seed)
    np.testing.assert_array_equal(first, observation_reference(env))
    first[:] = -1.0  # a caller's edit must not reach the env
    np.testing.assert_array_equal(env.observation(), observation_reference(env))
    steps = 0
    while not env.episode_done():
        outcome = env.step(policy(env))
        want = observation_reference(env)
        np.testing.assert_array_equal(outcome.observation, want)
        np.testing.assert_array_equal(env.observation(), want)
        assert outcome.observation is not env.observation()
        steps += 1
    return steps


class TestIncrementalObservation:
    """The observation SliceEnv keeps in place against one built from
    scratch, after reset and after every step."""

    @pytest.mark.parametrize("seed", (1, 2))
    def test_paper_config_random_policy(self, paper_cfg, seed):
        rng = np.random.default_rng(seed)
        env = SliceEnv(paper_cfg)
        assert run_checking_observations(
            env, seed, lambda e: int(rng.integers(0, e.n_actions))) > 1000

    def test_paper_config_first_fit(self, paper_cfg):
        env = SliceEnv(paper_cfg)
        assert run_checking_observations(env, 3, first_fit) > 1000
        assert len(env.state.chains) > 0

    def test_reset_with_no_arrivals(self):
        sc = make_scenario(slices=(make_slice("a", arrival_mean=0.0),
                                   make_slice("b", arrival_mean=0.0)))
        assert run_checking_observations(SliceEnv(sc), 0, first_fit) == 0
        # a reused env: a reset with no arrivals after an episode that left
        # chains placed and requests pending must rewrite every entry
        sc = make_scenario(slices=(make_slice("a", arrival_mean=1.0),
                                   make_slice("b", arrival_mean=1.0)),
                           horizon=1)
        env = SliceEnv(sc)
        busy = hunt_seed(env, 2)
        def done_at_reset(seed):  # with one slot: nothing arrives
            env.reset(seed)
            return env.episode_done()

        empty = next(seed for seed in range(300) if done_at_reset(seed))
        env.reset(busy)
        env.step(1)
        assert run_checking_observations(env, empty, first_fit) == 0
        np.testing.assert_array_equal(env.observation(), [1] * 6 + [0, 0])

    def test_departures_and_empty_slots(self):
        # lifetimes of one slot, and sparse arrivals: chains leave every slot
        # and many slots arrive empty, so their crossings are checked too
        sc = make_scenario(slices=(
            make_slice("blinks", arrival_mean=0.4, departure_prob=1.0),
            make_slice("lingers", arrival_mean=0.6, departure_prob=0.3,
                       chain_capacity=2)), horizon=80)
        env = SliceEnv(sc, debug=True)
        run_checking_observations(env, 4, first_fit)
        assert any(rec.decisions == 0 for rec in env.slot_log)
        assert sum(s.admitted for rec in env.slot_log
                   for s in rec.per_slice.values()) > 10

    def test_always_on_power(self):
        sc = make_scenario(slices=(make_slice(arrival_mean=2.0, chain_capacity=4),),
                           power_mode="always_on", horizon=40)
        env = SliceEnv(sc)
        rng = np.random.default_rng(8)
        run_checking_observations(
            env, 31, lambda e: first_fit(e) if rng.random() < 0.8 else REJECT)
        assert len({rec.power for rec in env.slot_log}) == 1

    @given(small_scenarios(), st.integers(0, 2 ** 31 - 1), st.integers(0, 9))
    @settings(max_examples=60, deadline=None)
    def test_small_scenarios(self, scenario, seed, script_seed):
        script = np.random.default_rng(script_seed)
        env = SliceEnv(scenario)
        run_checking_observations(
            env, seed, lambda e: (first_fit(e) if script.random() < 0.7
                                  else int(script.integers(0, e.n_actions))))

    def test_subclass_observation_reaches_step(self, paper_cfg):
        class Marked(SliceEnv):
            def observation(self):
                return np.full(self.observation_size, 7.0)

        env = Marked(paper_cfg)
        env.reset(hunt_seed(env, 12))
        np.testing.assert_array_equal(env.step(REJECT).observation,
                                      np.full(env.observation_size, 7.0))
