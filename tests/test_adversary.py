import numpy as np
import pytest

from slice_arena.adversary import AttackConfig, ForgeryAdversary, PoisonedEnv
from slice_arena.env import (InvalidDecisionError, NoPendingRequestError,
                             SliceEnv)

from conftest import make_scenario, make_slice
from oracles import PoisonedEnvReference


class StubRng:
    """Fixed-value stand-in: every uniform is `u`, every poisson is `k`."""

    def __init__(self, u=0.5, k=3, attack=True):
        self.u = u
        self.k = k
        self.attack = attack

    def uniform(self, size=None):
        if size is None:
            return self.u
        return np.full(size, self.u)

    def poisson(self, lam):
        return self.k

    def random(self):
        return 0.0 if self.attack else 1.0


@pytest.fixture(scope="module")
def paper_like():
    return make_scenario(
        slices=(make_slice("s1", priority=2.0, demand=(2, 7, 30), arrival_mean=6.0),
                make_slice("s2", priority=3.0, demand=(3, 5, 50), arrival_mean=6.0)),
        kappa=1000.0,
        m_penalty=150_000.0,
    )


class TestForgeObservation:
    def test_stub_layout(self, paper_like):
        adv = ForgeryAdversary(paper_like)
        forged = adv.forge_observation(StubRng(u=0.5, k=3))
        np.testing.assert_allclose(forged, [0.5] * 6 + [3 / 32, 3 / 32])

    def test_scalar_uniform_fills_resources(self, paper_like):
        class ScalarRng(StubRng):
            def uniform(self, size=None):
                return self.u

        forged = ForgeryAdversary(paper_like).forge_observation(ScalarRng(u=0.25))
        np.testing.assert_array_equal(forged, [0.25] * 6 + [3 / 32, 3 / 32])

    def test_bounds_and_shape(self, paper_like):
        adv = ForgeryAdversary(paper_like)
        rng = np.random.default_rng(0)
        env = SliceEnv(paper_like)
        for _ in range(10_000):
            forged = adv.forge_observation(rng)
            assert forged.shape == (env.observation_size,)
            assert np.all(forged >= 0.0) and np.all(forged <= 1.0)

    def test_pending_clipped(self, paper_like):
        adv = ForgeryAdversary(paper_like)
        forged = adv.forge_observation(StubRng(k=500))
        np.testing.assert_allclose(forged[6:], [1.0, 1.0])

    def test_deterministic(self, paper_like):
        adv = ForgeryAdversary(paper_like)
        a = [adv.forge_observation(np.random.default_rng(7)) for _ in range(3)]
        b = [adv.forge_observation(np.random.default_rng(7)) for _ in range(3)]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


class TestForgedReward:
    def test_midslot_infeasible_placement(self, paper_like):
        adv = ForgeryAdversary(paper_like)
        forged = np.array([0.0] * 6 + [0.1, 0.1])  # nothing fits anywhere
        reward = adv.forged_reward(forged, decision=1,
                                   spec=paper_like.slices[0],
                                   slot_final=False, earlier_bonus=0)
        assert reward == -150_000.0

    def test_midslot_feasible_placement_is_free(self, paper_like):
        adv = ForgeryAdversary(paper_like)
        forged = np.array([0.9] * 6 + [0.1, 0.1])
        reward = adv.forged_reward(forged, decision=2,
                                   spec=paper_like.slices[0],
                                   slot_final=False, earlier_bonus=0)
        assert reward == 0.0

    def test_exact_fit_is_feasible(self, paper_like):
        adv = ForgeryAdversary(paper_like)
        fraction = (0.1, 0.14, 0.006)
        forged = np.array([*fraction, 0.0, 0.0, 0.0, 0.1, 0.1])
        assert adv.forged_feasible(forged, 0, fraction)
        assert not adv.forged_feasible(forged, 1, fraction)

    def test_slot_final_reject(self, paper_like):
        # utilization 0.5 of the 16-chain 200-power ceiling: phi_hat = 1600
        adv = ForgeryAdversary(paper_like)
        forged = np.array([0.5] * 6 + [0.1, 0.1])
        reward = adv.forged_reward(forged, decision=0,
                                   spec=paper_like.slices[1],
                                   slot_final=True, earlier_bonus=2.0 + 3.0)
        assert reward == pytest.approx(-(1600 - 1000 * 5))

    def test_slot_final_placement_counts_when_forged_feasible(self, paper_like):
        adv = ForgeryAdversary(paper_like)
        forged = np.array([0.5] * 6 + [0.1, 0.1])
        # s2 (priority 3) needs (0.09375, 0.1, 0.01) of a DC
        reward = adv.forged_reward(forged, decision=1,
                                   spec=paper_like.slices[1],
                                   slot_final=True, earlier_bonus=2.0)
        assert reward == pytest.approx(-(1600 - 1000 * 5))

    def test_slot_final_forged_infeasible_drops_and_penalizes(self, paper_like):
        adv = ForgeryAdversary(paper_like)
        forged = np.array([0.0] * 6 + [0.1, 0.1])
        reward = adv.forged_reward(forged, decision=1,
                                   spec=paper_like.slices[1],
                                   slot_final=True, earlier_bonus=2.0)
        # phi_hat = 3200 at zero remaining; only the earlier admission counts
        assert reward == pytest.approx(-150_000.0 - (3200 - 1000 * 2))

    def test_true_infeasible_can_look_feasible(self, paper_like):
        # the true cluster is full, so the true step pays -M; the forged
        # picture has room, so the agent is told the placement fit
        env = SliceEnv(paper_like)
        env.reset(seed=1)
        assert len(env.state.pending) > 1  # a mid-slot step
        spec = env.current_request_slice()
        env.state.remaining = [dc.capacity - dc.capacity
                               for dc in paper_like.datacenters]
        assert env.step(1).reward == -150_000.0
        adv = ForgeryAdversary(paper_like)
        forged = adv.forge_observation(StubRng(u=0.9))
        reward = adv.forged_reward(forged, decision=1, spec=spec,
                                   slot_final=False, earlier_bonus=0)
        assert reward == 0.0


def scripted_run(env, seed, script_seed=909):
    """Drive an env (wrapped or not) with decisions that ignore observations."""
    script = np.random.default_rng(script_seed)
    env.reset(seed)
    rewards = []
    while not env.episode_done():
        out = env.step(int(script.integers(0, 3)))
        rewards.append(out.reward)
    return rewards


class TestPoisonedEnv:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="attack_probability"):
            AttackConfig(attack_probability=1.2)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            AttackConfig(seed=-1)

    def test_true_evolution_untouched(self, paper_like):
        bare = SliceEnv(paper_like)
        scripted_run(bare, seed=5)
        wrapped = PoisonedEnv(SliceEnv(paper_like), AttackConfig(seed=1))
        scripted_run(wrapped, seed=5)
        assert len(bare.slot_log) == len(wrapped.env.slot_log)
        for a, b in zip(bare.slot_log, wrapped.env.slot_log):
            assert a.slot == b.slot
            assert a.power == b.power
            assert a.cost == b.cost
            assert a.reward == b.reward
            assert a.decisions == b.decisions
            for sid in a.per_slice:
                assert vars(a.per_slice[sid]) == vars(b.per_slice[sid])

    def test_zero_probability_transparent(self, paper_like):
        bare = SliceEnv(paper_like)
        want = scripted_run(bare, seed=6)
        wrapped = PoisonedEnv(SliceEnv(paper_like),
                              AttackConfig(attack_probability=0.0))
        got = scripted_run(wrapped, seed=6)
        assert got == want
        assert sum(wrapped.attacked_by_slot.values()) == 0

    def test_attacked_fraction(self, paper_like):
        wrapped = PoisonedEnv(SliceEnv(paper_like),
                              AttackConfig(attack_probability=0.25, seed=3))
        scripted_run(wrapped, seed=7)
        decisions = sum(rec.decisions for rec in wrapped.env.slot_log)
        assert decisions > 1500
        fraction = sum(wrapped.attacked_by_slot.values()) / decisions
        assert abs(fraction - 0.25) < 0.02

    def test_counts_keyed_by_slot(self, paper_like):
        wrapped = PoisonedEnv(SliceEnv(paper_like),
                              AttackConfig(attack_probability=0.5, seed=4))
        scripted_run(wrapped, seed=8)
        per_slot_decisions = {rec.slot: rec.decisions for rec in wrapped.env.slot_log}
        for slot, count in wrapped.attacked_by_slot.items():
            assert 0 <= slot < paper_like.horizon
            assert 1 <= count <= per_slot_decisions[slot]

    def test_certain_attack_forges_rewards(self, paper_like):
        bare = SliceEnv(paper_like)
        true_rewards = scripted_run(bare, seed=9)
        wrapped = PoisonedEnv(SliceEnv(paper_like),
                              AttackConfig(attack_probability=1.0, seed=5))
        forged_rewards = scripted_run(wrapped, seed=9)
        assert len(forged_rewards) == len(true_rewards)
        assert forged_rewards != true_rewards

    def test_deterministic_replay(self, paper_like):
        config = AttackConfig(attack_probability=0.3, seed=11)
        a = PoisonedEnv(SliceEnv(paper_like), config)
        ra = scripted_run(a, seed=10)
        b = PoisonedEnv(SliceEnv(paper_like), config)
        rb = scripted_run(b, seed=10)
        assert ra == rb
        assert a.attacked_by_slot == b.attacked_by_slot

    def test_reset_clears_counts(self, paper_like):
        wrapped = PoisonedEnv(SliceEnv(paper_like),
                              AttackConfig(attack_probability=1.0, seed=2))
        scripted_run(wrapped, seed=11)
        assert sum(wrapped.attacked_by_slot.values()) > 0
        wrapped.reset(seed=12)
        assert sum(wrapped.attacked_by_slot.values()) <= 1  # only the armed first decision

    def test_error_passthrough(self, paper_like):
        wrapped = PoisonedEnv(SliceEnv(paper_like), AttackConfig(seed=0))
        wrapped.reset(seed=13)
        with pytest.raises(InvalidDecisionError):
            wrapped.step(7)
        while not wrapped.episode_done():
            wrapped.step(0)
        with pytest.raises(NoPendingRequestError):
            wrapped.step(0)

    def test_mirrored_surface(self, paper_like):
        env = SliceEnv(paper_like)
        wrapped = PoisonedEnv(env, AttackConfig())
        assert wrapped.observation_size == env.observation_size
        assert wrapped.n_actions == env.n_actions
        assert wrapped.scenario is paper_like
        obs = wrapped.reset(seed=14)
        assert obs.shape == (env.observation_size,)


class TestLeanWrapper:
    """PoisonedEnv against the reference wrapper that asks the env for
    everything and builds a new outcome on every step."""

    @staticmethod
    def side_by_side(scenario, probability, seed, script_seed=3):
        config = AttackConfig(attack_probability=probability, seed=seed)
        # the lean side runs every counter check on every step
        lean = PoisonedEnv(SliceEnv(scenario, debug=True), config)
        ref = PoisonedEnvReference(SliceEnv(scenario), config)
        np.testing.assert_array_equal(lean.reset(seed), ref.reset(seed))
        script = np.random.default_rng(script_seed)
        steps = 0
        while not ref.episode_done():
            decision = int(script.integers(0, lean.n_actions))
            got, want = lean.step(decision), ref.step(decision)
            assert (got.reward, got.admitted, got.infeasible_attempt,
                    got.episode_done) == (want.reward, want.admitted,
                                          want.infeasible_attempt,
                                          want.episode_done)
            np.testing.assert_array_equal(got.observation, want.observation)
            assert lean.attacked_by_slot == ref.attacked_by_slot
            assert lean.lifetime_attacked == ref.lifetime_attacked
            steps += 1
        assert lean.episode_done()
        assert lean.env.slot_log == ref.env.slot_log
        return lean, steps

    @pytest.mark.parametrize("probability", (0.0, 0.25, 1.0))
    def test_paper_config(self, paper_cfg, probability):
        lean, steps = self.side_by_side(paper_cfg, probability, seed=5)
        assert steps > 1000
        attacked = sum(lean.attacked_by_slot.values())
        assert (attacked == 0) == (probability == 0.0)
        assert (attacked == steps) == (probability == 1.0)

    @pytest.mark.parametrize("probability", (0.0, 0.25, 1.0))
    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_tiny_scenario(self, probability, seed):
        tiny = make_scenario(slices=(make_slice(arrival_mean=2.0),), horizon=25)
        self.side_by_side(tiny, probability, seed)

    def test_unattacked_steps_pass_the_outcome_through(self, paper_like):
        class Recording(SliceEnv):
            def step(self, decision):
                self.last = super().step(decision)
                return self.last

        env = Recording(paper_like)
        wrapped = PoisonedEnv(env, AttackConfig(attack_probability=0.0))
        wrapped.reset(seed=3)
        assert wrapped.step(0) is env.last
