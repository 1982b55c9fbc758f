"""Clipped-surrogate policy optimization over the admission environment.

Rollouts of steps_per_update transitions are collected with the current
policy, advantages are estimated with generalized advantage estimation over
the logged value predictions, and the parameters then take epochs_per_update
passes of minibatch ascent on

    -min(r A, clip(r, 1-eps, 1+eps) A) + value_loss_coeff (R - V)^2
    - entropy_coeff H(pi)

where r is the probability ratio against the collection-time policy (the
theta_old snapshot is exactly the logged log-probabilities). Advantages are
normalized once per update batch. Gradients come from policy-core's
hand-derived backward pass; the per-sample chain-rule weights are

    d loss / d log pi = -A r   while the min() selects the unclipped branch
                                (zero when A > 0 and r > 1+eps, or A < 0 and
                                r < 1-eps)
    d loss / d V      = 2 value_loss_coeff (V - R)
    d loss / d H      = -entropy_coeff

Training starts from init_parameters at the config's seed and hidden sizes.
A rollout step shape-tests the observation, writes it into its buffer row
and draws from the actor alone on that (1, in) row (policy.act). After the
last step, policy.state_values checks the whole buffer for finiteness (so a
non-finite observation raises ValueError at the end of its rollout, before
any update) and fills the values in one critic pass over (chunk, 1, in)
stacks of the rows: a stacked matmul makes the batch-1 product per row, so
values, log-probabilities and checkpoints keep the bits of one batch-1
policy_forward per step, which the bootstrap value still uses. A minibatch
makes one forward_batch (its cache holds the log probabilities and
entropies), one backward_batch (one flat gradient vector) and one fused
AdamOptimizer.step. Callees are looked up as module attributes at call time,
so a per-layer tracer can wrap them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from .policy import (AdamOptimizer, DimensionMismatchError, MlpParameters, act,
                     backward_batch, forward_batch, init_parameters,
                     policy_forward, state_values)

_STREAM_ACTIONS = 55
_STREAM_SHUFFLE = 56
_STREAM_EPISODES = 57


class NonFiniteLossError(RuntimeError):
    """The update loss went non-finite; the update is aborted."""


@dataclass(frozen=True)
class PpoConfig:
    clip_range: float = 0.2
    discount: float = 0.99
    gae_lambda: float = 0.95
    steps_per_update: int = 2048
    epochs_per_update: int = 10
    minibatch_size: int = 64
    learning_rate: float = 3e-4
    value_loss_coeff: float = 0.5
    entropy_coeff: float = 0.01
    total_env_steps: int = 200_000
    seed: int = 0
    hidden_sizes: Tuple[int, ...] = (64, 64)

    def __post_init__(self) -> None:
        if not 0.0 < self.clip_range < 1.0:
            raise ValueError(f"clip_range must lie in (0, 1), got {self.clip_range!r}")
        if not 0.0 < self.discount <= 1.0:
            raise ValueError(f"discount must lie in (0, 1], got {self.discount!r}")
        if not 0.0 <= self.gae_lambda <= 1.0:
            raise ValueError(f"gae_lambda must lie in [0, 1], got {self.gae_lambda!r}")
        for name in ("steps_per_update", "epochs_per_update", "minibatch_size",
                     "total_env_steps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        if self.minibatch_size > self.steps_per_update:
            raise ValueError("minibatch_size cannot exceed steps_per_update")
        if self.learning_rate < 0.0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate!r}")
        if not self.hidden_sizes or any(h < 1 for h in self.hidden_sizes):
            raise ValueError(f"hidden_sizes must be positive, got {self.hidden_sizes!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")


@dataclass
class Trajectory:
    """Parallel arrays over T collected steps plus the bootstrap value for
    the state following the last step (0 when that step ended an episode)."""

    observations: np.ndarray
    actions: np.ndarray
    log_probs: np.ndarray
    values: np.ndarray
    rewards: np.ndarray
    dones: np.ndarray
    bootstrap_value: float

    def __len__(self) -> int:
        return self.actions.shape[0]

    def validate(self) -> None:
        T = len(self)
        shapes = (self.observations.shape[0], self.log_probs.shape[0],
                  self.values.shape[0], self.rewards.shape[0], self.dones.shape[0])
        if any(s != T for s in shapes):
            raise ValueError(f"trajectory arrays disagree on length: {shapes}")
        if np.any(self.log_probs > 1e-12):
            raise ValueError("log probabilities must be <= 0")
        for name in ("observations", "log_probs", "values", "rewards"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"non-finite entries in {name}")
        if not math.isfinite(self.bootstrap_value):
            raise ValueError("non-finite bootstrap value")


def compute_advantages(traj: Trajectory, discount: float,
                       gae_lambda: float) -> Tuple[np.ndarray, np.ndarray]:
    """Generalized advantage estimation; returns (advantages, returns).

    delta_t = r_t + discount V_{t+1} (1 - done_t) - V_t, accumulated
    backwards with factor discount * lambda * (1 - done_t); returns are
    advantages + values (the value-function regression targets).
    """
    T = len(traj)
    next_values = np.append(traj.values[1:], traj.bootstrap_value)
    cont = 1.0 - traj.dones.astype(np.float64)
    deltas = (traj.rewards + discount * next_values * cont - traj.values).tolist()
    cont = cont.tolist()  # the recursion runs on Python floats
    advantages = [0.0] * T
    running = 0.0
    for t in range(T - 1, -1, -1):
        running = deltas[t] + discount * gae_lambda * cont[t] * running
        advantages[t] = running
    advantages = np.array(advantages)
    return advantages, advantages + traj.values


def normalize_advantages(advantages: np.ndarray) -> np.ndarray:
    std = advantages.std()
    if std < 1e-12:
        return np.zeros_like(advantages)
    return (advantages - advantages.mean()) / std


def clipped_surrogate_loss(new_log_probs: np.ndarray, old_log_probs: np.ndarray,
                           advantages: np.ndarray, clip_range: float):
    """Mean clipped surrogate loss with its per-sample gradient coefficients.

    Returns (loss, d_loss_d_logp, ratios, clip_fraction); clip_fraction is
    the share of ratios outside [1 - eps, 1 + eps].
    """
    ratios = np.exp(new_log_probs - old_log_probs)
    clipped = np.clip(ratios, 1.0 - clip_range, 1.0 + clip_range)
    per_sample = -np.minimum(ratios * advantages, clipped * advantages)
    dead = ((advantages > 0.0) & (ratios > 1.0 + clip_range)) | \
           ((advantages < 0.0) & (ratios < 1.0 - clip_range))
    d_logp = np.where(dead, 0.0, -advantages * ratios)
    clip_fraction = float((np.abs(ratios - 1.0) > clip_range).sum() / ratios.size)
    return float(per_sample.sum() / ratios.size), d_logp, ratios, clip_fraction


@dataclass
class UpdateStats:
    mean_ratio: float
    clip_fraction: float
    value_loss: float
    entropy: float
    loss: float


def update(params: MlpParameters, traj: Trajectory, config: PpoConfig,
           optimizer: AdamOptimizer, rng: np.random.Generator) -> UpdateStats:
    """One PPO update in place over a collected trajectory."""
    if len(traj) != config.steps_per_update:
        raise ValueError(
            f"trajectory length {len(traj)} != steps_per_update {config.steps_per_update}")
    traj.validate()
    advantages, returns = compute_advantages(traj, config.discount, config.gae_lambda)
    advantages = normalize_advantages(advantages)

    T = len(traj)
    sums = np.zeros(5)  # the UpdateStats fields, summed over minibatches
    batches = 0
    for _ in range(config.epochs_per_update):
        order = rng.permutation(T)
        for start in range(0, T, config.minibatch_size):
            idx = order[start:start + config.minibatch_size]
            b = idx.size
            actions = traj.actions[idx]
            _, values, cache = forward_batch(params, traj.observations[idx])
            new_logp = cache["logp"][np.arange(b), actions]

            clip_loss, d_logp, ratios, clip_frac = clipped_surrogate_loss(
                new_logp, traj.log_probs[idx], advantages[idx], config.clip_range)
            value_errors = values - returns[idx]
            value_loss = float((value_errors ** 2).sum() / b)
            entropy = float(cache["entropy"].sum() / b)
            loss = clip_loss + config.value_loss_coeff * value_loss \
                - config.entropy_coeff * entropy
            if not math.isfinite(loss):
                raise NonFiniteLossError(
                    f"loss {loss!r} (clip {clip_loss!r}, value {value_loss!r}, "
                    f"entropy {entropy!r})")

            # mean-over-minibatch loss: every per-sample weight carries 1/b
            grad = backward_batch(
                params, cache, actions,
                logp_weights=d_logp / b,
                value_weights=config.value_loss_coeff * 2.0 * value_errors / b,
                entropy_weights=np.full(b, -config.entropy_coeff / b),
            )
            optimizer.step(params, grad, config.learning_rate)

            sums += (ratios.sum() / b, clip_frac, value_loss, entropy, loss)
            batches += 1
    return UpdateStats(*(sums / batches).tolist())


@dataclass
class CurveRow:
    update_index: int
    env_steps: int
    mean_episode_reward: float
    clip_fraction: float
    entropy: float


@dataclass
class TrainResult:
    params: MlpParameters
    curve: List[CurveRow]


def train(env_factory: Callable[[], object], config: PpoConfig) -> TrainResult:
    """Run total_env_steps of interaction with PPO updates every
    steps_per_update steps. Deterministic for a given config.

    The factory's environments must expose reset(seed) -> observation
    array, step(action) -> StepOutcome, and observation_size / n_actions.
    """
    env = env_factory()
    params = init_parameters(env.observation_size, env.n_actions,
                             hidden=config.hidden_sizes, seed=config.seed)
    optimizer = AdamOptimizer()
    action_rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence((config.seed, _STREAM_ACTIONS))))
    shuffle_rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence((config.seed, _STREAM_SHUFFLE))))
    episode_seeds = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence((config.seed, _STREAM_EPISODES))))

    n_updates = config.total_env_steps // config.steps_per_update
    if n_updates < 1:
        raise ValueError("total_env_steps smaller than steps_per_update")

    obs = env.reset(int(episode_seeds.integers(2**63)))
    episode_return = 0.0
    last_mean = math.nan
    curve: List[CurveRow] = []

    for update_index in range(n_updates):
        obs_buf = np.empty((config.steps_per_update, env.observation_size))
        act_buf = np.empty(config.steps_per_update, dtype=np.int64)
        logp_buf = np.empty(config.steps_per_update)
        rew_buf = np.empty(config.steps_per_update)
        done_buf = np.zeros(config.steps_per_update, dtype=bool)
        window_returns: List[float] = []

        for t in range(config.steps_per_update):
            if obs.shape != obs_buf.shape[1:]:
                raise DimensionMismatchError(
                    f"observation shape {obs.shape} does not fit {obs_buf.shape[1:]}")
            obs_buf[t] = obs
            action, logp = act(params, obs_buf[t:t + 1], action_rng)
            outcome = env.step(action)
            act_buf[t] = action
            logp_buf[t] = logp
            rew_buf[t] = outcome.reward
            done_buf[t] = outcome.episode_done
            episode_return += outcome.reward
            if outcome.episode_done:
                window_returns.append(episode_return)
                episode_return = 0.0
                obs = env.reset(int(episode_seeds.integers(2**63)))
            else:
                obs = outcome.observation

        val_buf = state_values(params, obs_buf)
        if done_buf[-1]:
            bootstrap = 0.0
        else:
            bootstrap = policy_forward(params, obs).state_value
        traj = Trajectory(observations=obs_buf, actions=act_buf,
                          log_probs=logp_buf, values=val_buf, rewards=rew_buf,
                          dones=done_buf, bootstrap_value=bootstrap)
        stats = update(params, traj, config, optimizer, shuffle_rng)

        if window_returns:
            last_mean = float(np.mean(window_returns))
        curve.append(CurveRow(
            update_index=update_index,
            env_steps=(update_index + 1) * config.steps_per_update,
            mean_episode_reward=last_mean,
            clip_fraction=stats.clip_fraction,
            entropy=stats.entropy,
        ))
    return TrainResult(params=params, curve=curve)
