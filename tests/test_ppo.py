import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slice_arena import ppo
from slice_arena.adversary import AttackConfig, PoisonedEnv
from slice_arena.env import SliceEnv, StepOutcome
from slice_arena.policy import (AdamOptimizer, DimensionMismatchError,
                                MlpParameters, backward_batch, forward_batch,
                                init_parameters, policy_forward, state_values)
from slice_arena.ppo import (NonFiniteLossError, PpoConfig, Trajectory,
                             clipped_surrogate_loss, compute_advantages,
                             normalize_advantages, train, update)

from conftest import make_scenario, make_slice
from oracles import gae_reference, numerical_gradient, reference_rollout


def make_traj(rewards, values, bootstrap, dones=None, obs_dim=2):
    rewards = np.asarray(rewards, dtype=np.float64)
    T = rewards.size
    dones = np.zeros(T, dtype=bool) if dones is None else np.asarray(dones, dtype=bool)
    return Trajectory(
        observations=np.zeros((T, obs_dim)),
        actions=np.zeros(T, dtype=np.int64),
        log_probs=np.full(T, -1.0),
        values=np.asarray(values, dtype=np.float64),
        rewards=rewards,
        dones=dones,
        bootstrap_value=float(bootstrap),
    )


class TestAdvantages:
    def test_hand_worked_three_steps(self):
        # delta_t = 1 + 0.9*0.5 - 0.5 = 0.95 at every t, then the backward
        # recursion with factor 0.9*0.95 = 0.855 stacks them up.
        traj = make_traj([1.0, 1.0, 1.0], [0.5, 0.5, 0.5], 0.5)
        adv, ret = compute_advantages(traj, discount=0.9, gae_lambda=0.95)
        np.testing.assert_allclose(adv, [2.45672375, 1.76225, 0.95], atol=1e-12)
        np.testing.assert_allclose(ret, adv + 0.5, atol=1e-12)

    def test_matches_reference_on_random_trajectories(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            T = int(rng.integers(1, 40))
            rewards = rng.normal(size=T)
            values = rng.normal(size=T)
            dones = rng.random(T) < 0.2
            bootstrap = float(rng.normal())
            gamma = float(rng.uniform(0.8, 1.0))
            lam = float(rng.uniform(0.0, 1.0))
            traj = make_traj(rewards, values, bootstrap, dones)
            adv, ret = compute_advantages(traj, gamma, lam)
            want_adv, want_ret = gae_reference(rewards, values, bootstrap,
                                               gamma, lam, dones)
            np.testing.assert_allclose(adv, want_adv, atol=1e-12)
            np.testing.assert_allclose(ret, want_ret, atol=1e-12)

    def test_zero_signal(self):
        traj = make_traj([0.0] * 5, [0.0] * 5, 0.0)
        adv, ret = compute_advantages(traj, 0.99, 0.95)
        np.testing.assert_array_equal(adv, np.zeros(5))
        np.testing.assert_array_equal(ret, np.zeros(5))

    def test_done_cuts_propagation(self):
        a = make_traj([1.0, 2.0, 5.0], [0.1, 0.2, 0.3], 0.7, [False, True, False])
        b = make_traj([1.0, 2.0, -7.0], [0.1, 0.2, 0.3], -4.0, [False, True, False])
        adv_a, _ = compute_advantages(a, 0.99, 0.95)
        adv_b, _ = compute_advantages(b, 0.99, 0.95)
        np.testing.assert_allclose(adv_a[:2], adv_b[:2], atol=1e-12)
        assert adv_a[2] != adv_b[2]

    def test_terminal_step_ignores_bootstrap(self):
        a = make_traj([1.0], [0.4], 100.0, [True])
        adv, _ = compute_advantages(a, 0.99, 0.95)
        assert adv[0] == pytest.approx(1.0 - 0.4, abs=1e-12)


class TestNormalization:
    def test_zero_mean_unit_std(self):
        rng = np.random.default_rng(7)
        adv = normalize_advantages(rng.normal(3.0, 10.0, size=256))
        assert abs(adv.mean()) < 1e-9
        assert abs(adv.std() - 1.0) < 1e-6

    def test_constant_batch_goes_to_zero(self):
        np.testing.assert_array_equal(
            normalize_advantages(np.full(8, 3.25)), np.zeros(8))


class TestClippedSurrogate:
    def test_ratio_one_reduces_to_vanilla(self):
        logp = np.log(np.array([0.4, 0.4]))
        adv = np.array([2.0, -1.0])
        loss, d_logp, ratios, clip_frac = clipped_surrogate_loss(logp, logp, adv, 0.2)
        assert loss == pytest.approx(-0.5, abs=1e-12)
        np.testing.assert_allclose(d_logp, -adv, atol=1e-12)
        np.testing.assert_allclose(ratios, [1.0, 1.0], atol=1e-12)
        assert clip_frac == 0.0

    def test_clip_branches_and_dead_zones(self):
        old = np.zeros(3)
        new = np.log(np.array([2.0, 0.5, 1.1]))
        adv = np.array([1.0, -1.0, -1.0])
        loss, d_logp, ratios, clip_frac = clipped_surrogate_loss(new, old, adv, 0.2)
        np.testing.assert_allclose(ratios, [2.0, 0.5, 1.1], atol=1e-12)
        # r=2, A>0 clips at 1.2; r=0.5, A<0 clips at 0.8; r=1.1 inside band
        assert loss == pytest.approx((-1.2 + 0.8 + 1.1) / 3, abs=1e-12)
        np.testing.assert_allclose(d_logp, [0.0, 0.0, 1.1], atol=1e-12)
        assert clip_frac == pytest.approx(2 / 3)

    def test_pessimistic_bound_inside_band(self):
        # A < 0 and r slightly above 1: still the unclipped branch
        loss, d_logp, _, _ = clipped_surrogate_loss(
            np.array([math.log(1.05)]), np.array([0.0]), np.array([-2.0]), 0.2)
        assert loss == pytest.approx(2.1, abs=1e-12)
        assert d_logp[0] == pytest.approx(2.1, abs=1e-12)


class TestUpdate:
    def _rollout(self, params, T, seed, n_actions=3, obs_dim=4):
        rng = np.random.default_rng(seed)
        obs = rng.normal(size=(T, obs_dim))
        probs, values, _ = forward_batch(params, obs)
        actions = np.array([int(rng.choice(n_actions, p=p)) for p in probs])
        logp = np.log(probs[np.arange(T), actions])
        rewards = rng.normal(size=T)
        dones = rng.random(T) < 0.1
        return Trajectory(obs, actions, logp, values, rewards, dones,
                          bootstrap_value=float(values[-1]))

    def test_zero_learning_rate_is_identity(self):
        params = init_parameters(4, 3, hidden=(8,), seed=1)
        before = [a.copy() for a in params.arrays()]
        config = PpoConfig(steps_per_update=32, minibatch_size=32,
                           epochs_per_update=2, learning_rate=0.0)
        traj = self._rollout(params, 32, seed=5)
        stats = update(params, traj, config, AdamOptimizer(),
                       np.random.default_rng(0))
        for a, b in zip(params.arrays(), before):
            np.testing.assert_array_equal(a, b)
        assert stats.mean_ratio == pytest.approx(1.0, abs=1e-9)
        assert stats.clip_fraction == 0.0

    def test_full_loss_gradient_matches_finite_differences(self):
        for seed in (0, 1, 2, 3, 4):
            rng = np.random.default_rng(300 + seed)
            params = init_parameters(3, 3, hidden=(4,), seed=seed)
            for a in params.arrays():
                a[:] = rng.normal(scale=0.6, size=a.shape)
            T = 8
            obs = rng.normal(size=(T, 3))
            actions = rng.integers(0, 3, size=T)
            probs0, _, _ = forward_batch(params, obs)
            # jitter theta_old so the ratios engage both clip branches
            old_logp = np.log(probs0[np.arange(T), actions]) + rng.normal(scale=0.3, size=T)
            advantages = rng.normal(size=T)
            returns = rng.normal(size=T)
            clip_range = 0.2
            vcoef, ecoef = 0.5, 0.01

            def loss_at(flat):
                p = MlpParameters(params.layer_dims, flat)
                probs, values, _ = forward_batch(p, obs)
                new_logp = np.log(probs[np.arange(T), actions])
                clip_loss, _, _, _ = clipped_surrogate_loss(
                    new_logp, old_logp, advantages, clip_range)
                value_loss = float(np.mean((values - returns) ** 2))
                entropy = float(np.mean(-(probs * np.log(probs)).sum(axis=1)))
                return clip_loss + vcoef * value_loss - ecoef * entropy

            probs, values, cache = forward_batch(params, obs)
            new_logp = np.log(probs[np.arange(T), actions])
            _, d_logp, _, _ = clipped_surrogate_loss(
                new_logp, old_logp, advantages, clip_range)
            analytic = backward_batch(
                params, cache, actions,
                logp_weights=d_logp / T,
                value_weights=vcoef * 2.0 * (values - returns) / T,
                entropy_weights=np.full(T, -ecoef / T))
            numeric = numerical_gradient(loss_at, params.flat.copy(), eps=1e-5)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-7)

    def test_rejects_wrong_length(self):
        params = init_parameters(4, 3, hidden=(4,), seed=0)
        config = PpoConfig(steps_per_update=16, minibatch_size=16)
        traj = self._rollout(params, 8, seed=1)
        with pytest.raises(ValueError, match="steps_per_update"):
            update(params, traj, config, AdamOptimizer(), np.random.default_rng(0))

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_nonfinite_loss_aborts(self):
        params = init_parameters(2, 2, hidden=(2,), seed=0)
        for a in params.arrays():
            a[:] = 0.0
        T = 8
        traj = Trajectory(
            observations=np.zeros((T, 2)),
            actions=np.zeros(T, dtype=np.int64),
            log_probs=np.full(T, -800.0),  # ratio overflows to inf
            values=np.zeros(T),
            rewards=np.tile([1.0, -1.0], T // 2),
            dones=np.zeros(T, dtype=bool),
            bootstrap_value=0.0,
        )
        config = PpoConfig(steps_per_update=T, minibatch_size=T,
                           epochs_per_update=1)
        with pytest.raises(NonFiniteLossError):
            update(params, traj, config, AdamOptimizer(), np.random.default_rng(0))


class TestValidation:
    def test_trajectory_length_mismatch(self):
        traj = make_traj([1.0, 2.0], [0.0, 0.0], 0.0)
        traj.values = np.zeros(3)
        with pytest.raises(ValueError, match="length"):
            traj.validate()

    def test_trajectory_positive_log_prob(self):
        traj = make_traj([1.0], [0.0], 0.0)
        traj.log_probs = np.array([0.5])
        with pytest.raises(ValueError, match="log prob"):
            traj.validate()

    def test_trajectory_nonfinite(self):
        traj = make_traj([np.inf], [0.0], 0.0)
        with pytest.raises(ValueError, match="rewards"):
            traj.validate()
        traj = make_traj([1.0], [0.0], np.nan)
        with pytest.raises(ValueError, match="bootstrap"):
            traj.validate()

    @pytest.mark.parametrize("kwargs", [
        {"clip_range": 0.0},
        {"clip_range": 1.5},
        {"discount": 0.0},
        {"discount": 1.2},
        {"gae_lambda": -0.1},
        {"steps_per_update": 0},
        {"minibatch_size": 128, "steps_per_update": 64},
        {"learning_rate": -1e-4},
        {"hidden_sizes": ()},
        {"hidden_sizes": (64, 0)},
        {"seed": -1},
    ])
    def test_config_rejects(self, kwargs):
        with pytest.raises(ValueError):
            PpoConfig(**kwargs)


class TwoArmedBandit:
    """One-step episodes; arm 0 pays 1, arm 1 pays 0."""

    observation_size = 1
    n_actions = 2

    def reset(self, seed):
        return np.array([1.0])

    def step(self, decision):
        return StepOutcome(
            reward=1.0 if decision == 0 else 0.0,
            admitted=False,
            infeasible_attempt=False,
            observation=np.array([1.0]),
            episode_done=True,
        )


BANDIT_CONFIG = PpoConfig(
    steps_per_update=64,
    minibatch_size=64,
    epochs_per_update=5,
    learning_rate=0.02,
    entropy_coeff=0.0,
    total_env_steps=64 * 50,
    hidden_sizes=(8,),
    seed=3,
)


class TestTrain:
    def test_bandit_convergence(self):
        result = train(TwoArmedBandit, BANDIT_CONFIG)
        out = policy_forward(result.params, np.array([1.0]))
        assert out.action_probabilities[0] > 0.95
        assert len(result.curve) == 50
        assert result.curve[-1].mean_episode_reward > 0.9

    def test_deterministic_replay(self):
        config = PpoConfig(steps_per_update=32, minibatch_size=16,
                           epochs_per_update=2, total_env_steps=96,
                           hidden_sizes=(4,), seed=11)
        a = train(TwoArmedBandit, config)
        b = train(TwoArmedBandit, config)
        for x, y in zip(a.params.arrays(), b.params.arrays()):
            np.testing.assert_array_equal(x, y)
        assert [r.mean_episode_reward for r in a.curve] == \
               [r.mean_episode_reward for r in b.curve]

    def test_single_update_when_budget_equals_window(self):
        config = PpoConfig(steps_per_update=32, minibatch_size=32,
                           total_env_steps=32, hidden_sizes=(4,), seed=0)
        result = train(TwoArmedBandit, config)
        assert len(result.curve) == 1
        assert result.curve[0].env_steps == 32

    def test_budget_below_window_rejected(self):
        config = PpoConfig(steps_per_update=64, minibatch_size=32,
                           total_env_steps=32, hidden_sizes=(4,), seed=0)
        with pytest.raises(ValueError, match="total_env_steps"):
            train(TwoArmedBandit, config)

    def test_smoke_on_admission_environment(self):
        scenario = make_scenario(
            slices=(make_slice(arrival_mean=2.0),),
            horizon=25,
        )
        from slice_arena.env import SliceEnv
        config = PpoConfig(steps_per_update=128, minibatch_size=64,
                           epochs_per_update=2, total_env_steps=256,
                           hidden_sizes=(16,), seed=7)
        result = train(lambda: SliceEnv(scenario), config)
        assert len(result.curve) == 2
        for a in result.params.arrays():
            assert np.isfinite(a).all()
        assert result.curve[-1].entropy >= 0.0
        assert math.isfinite(result.curve[-1].mean_episode_reward)


class FaultyBandit(TwoArmedBandit):
    """TwoArmedBandit whose observation after the given step is `bad`."""

    def __init__(self, at, bad):
        self.at, self.bad, self.steps = at, np.asarray(bad, dtype=np.float64), 0

    def step(self, decision):
        outcome = super().step(decision)
        self.steps += 1
        if self.steps == self.at:
            return outcome._replace(observation=self.bad, episode_done=False)
        return outcome


class TestRollout:
    """The rollout draws from the actor alone at each step and fills its
    values in one stacked critic pass after the last; both must keep the
    bits of one batch-1 policy_forward and sample_action per step."""

    SCENARIOS = {"tiny": make_scenario(slices=(make_slice(arrival_mean=2.0),),
                                       horizon=25),
                 "paper": None}

    @pytest.mark.parametrize("hidden", [(8,), (64, 64), (128, 128)])
    @pytest.mark.parametrize("attacked", [False, True], ids=["clean", "poisoned"])
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_trajectories_match_the_batch1_reference(self, scenario, attacked,
                                                     hidden, paper_cfg, monkeypatch):
        scenario_config = self.SCENARIOS[scenario] or paper_cfg

        def factory():
            env = SliceEnv(scenario_config)
            return PoisonedEnv(env, AttackConfig(seed=3)) if attacked else env

        # 300 steps: two full 128-row critic chunks and a remainder of 44
        config = PpoConfig(steps_per_update=300, total_env_steps=600,
                           minibatch_size=100, epochs_per_update=2,
                           hidden_sizes=hidden, seed=5)
        expected = reference_rollout(factory, config)
        seen = []
        real_update = ppo.update

        def capture(params, traj, *args):
            seen.append(traj)
            return real_update(params, traj, *args)

        monkeypatch.setattr(ppo, "update", capture)
        train(factory, config)
        assert len(seen) == len(expected) == 2
        for got, want in zip(seen, expected):
            for name in ("observations", "actions", "log_probs", "values",
                         "rewards", "dones"):
                a, b = getattr(got, name), getattr(want, name)
                assert (a.dtype, a.shape) == (b.dtype, b.shape), name
                assert a.tobytes() == b.tobytes(), name
            assert float(got.bootstrap_value).hex() == float(want.bootstrap_value).hex()

    @given(st.integers(1, 12), st.lists(st.integers(1, 130), min_size=1, max_size=2),
           st.integers(1, 300), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_stacked_critic_pass_is_batch1(self, width, hidden, rows, seed):
        params = init_parameters(width, 3, hidden=hidden, seed=seed % 1000)
        rng = np.random.default_rng(seed)
        obs = rng.normal(scale=rng.uniform(0.1, 10.0), size=(rows, width))
        values = state_values(params, obs)
        assert values.shape == (rows,)
        for row, value in zip(obs, values.tolist()):
            assert value.hex() == policy_forward(params, row).state_value.hex()

    def test_wrong_width_observation_raises_at_its_step(self):
        config = PpoConfig(steps_per_update=32, minibatch_size=32,
                           total_env_steps=32, hidden_sizes=(4,), seed=0)
        env = FaultyBandit(at=5, bad=[1.0, 0.0])
        with pytest.raises(DimensionMismatchError, match="shape"):
            train(lambda: env, config)
        assert env.steps == 5

    def test_non_finite_observation_raises_before_any_update(self, monkeypatch):
        config = PpoConfig(steps_per_update=32, minibatch_size=32,
                           total_env_steps=64, hidden_sizes=(4,), seed=0)
        env = FaultyBandit(at=5, bad=[math.nan])
        monkeypatch.setattr(ppo, "update", lambda *args: pytest.fail("updated"))
        with pytest.raises(ValueError, match="non-finite"):
            train(lambda: env, config)
        assert env.steps == 32  # the rollout ran to its end
