"""Black-box state and reward forgery against the admission agent.

The adversary knows the public scenario description (layout, capacities,
arrival means) and nothing else: no model parameters, no true resource
values. On an attacked decision step the agent observes a forged state
drawn from scratch (resource fractions uniform in [0,1], pending counts
redrawn from the arrival distributions) and later receives the reward the
forged state would have produced, keeping the perceived episode coherent:

- a placement that does not fit the forged remaining resources is reported
  as an infeasible attempt (-M penalty), whatever really happened;
- the slot-settling step reports -(phi_hat - kappa * bonus_hat), where
  phi_hat scales the forged utilization by the deployed-chain power ceiling
  and bonus_hat re-evaluates the current request under forged feasibility;
- everything else reports zero, exactly like a mid-slot step.

The true environment is never touched. PoisonedEnv presents the forgery to
the agent while the wrapped SliceEnv keeps evolving (and logging metrics)
from the true state; identical action sequences leave identical true
trajectories with or without the wrapper. Per decision step it draws the
attack Bernoulli, forges the observation before the agent acts, and
recomputes the reward after the true step, through forge_observation and
forged_reward. forge_observation takes only a generator: the black-box
contract grants the attacker no state access.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .config import ScenarioConfig
from .env import PENDING_CAP, REJECT, SliceEnv, SliceSpec, StepOutcome
from .metrics import power_scale

_STREAM_ATTACK = 21


@dataclass(frozen=True)
class AttackConfig:
    """Attack intensity and the seed of the attack stream."""

    attack_probability: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.attack_probability <= 1.0:
            raise ValueError(
                f"attack_probability must lie in [0, 1], got {self.attack_probability!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")


class ForgeryAdversary:
    """Forges observations and rewards for one scenario."""

    def __init__(self, scenario: ScenarioConfig) -> None:
        self.scenario = scenario
        self._power_scale = power_scale(scenario)

    def forge_observation(self, rng) -> np.ndarray:
        """Draw a fresh, feasible-looking observation of the true layout:
        first 3N resource uniforms in one call, then one Poisson per slice."""
        sc = self.scenario
        n_resources = 3 * len(sc.datacenters)
        forged = np.empty(n_resources + len(sc.slices))
        forged[:n_resources] = rng.uniform(size=n_resources)
        forged[n_resources:] = [
            min(int(rng.poisson(s.arrival_mean)), PENDING_CAP) / PENDING_CAP
            for s in sc.slices]
        return forged

    def forged_feasible(self, forged_obs: np.ndarray, dc_index: int,
                        demand_fraction: Tuple[float, float, float]) -> bool:
        """Does the demand fit the forged remaining fractions of this DC?

        The forged picture carries no chain counts, so only resources are
        checked (the cap channel is not observable to begin with).
        """
        remaining = forged_obs[3 * dc_index:3 * dc_index + 3].tolist()
        return all(r >= d - 1e-12 for r, d in zip(remaining, demand_fraction))

    def forged_reward(self, forged_obs: np.ndarray, decision: int,
                      spec: SliceSpec, slot_final: bool,
                      earlier_bonus: float) -> float:
        """The reward the forged state would have produced for this step.

        spec is the slice of the request decided; a placement is checked
        against the forged picture with its demand over the chosen DC's
        capacity. earlier_bonus sums the priorities of the slot's earlier
        truly-admitted requests; the current one is re-evaluated against
        the forged picture instead.
        """
        sc = self.scenario
        reward = 0.0
        placed_ok = False
        if decision != REJECT:
            cap, d = sc.datacenters[decision - 1].capacity, spec.demand
            fraction = (d.cpu / cap.cpu, d.memory / cap.memory,
                        d.storage / cap.storage)
            if self.forged_feasible(forged_obs, decision - 1, fraction):
                placed_ok = True
            else:
                reward -= sc.m_penalty
        if slot_final:
            n_res = 3 * len(sc.datacenters)
            utilization = 1.0 - float(np.mean(forged_obs[:n_res]))
            phi_hat = utilization * self._power_scale
            bonus = earlier_bonus
            if placed_ok:
                bonus += spec.priority
            reward -= phi_hat - sc.kappa * bonus
        return reward


class PoisonedEnv:
    """SliceEnv wrapper that feeds the agent the adversary's forgery.

    Each decision step is attacked independently with probability
    attack_probability, decided before the observation is presented so the
    agent acts on the forged state. Metrics must be read from the wrapped
    env (its slot log is the ground truth); the wrapper only counts how
    many decisions per slot were attacked.

    On attacked steps only, step reads the request's slice, whether it ends
    the slot and the slot's bonus so far from the wrapped env, before
    stepping it. When neither the step just taken nor the next one is
    attacked, it returns the wrapped env's StepOutcome itself: the agent
    then sees exactly what the true env reported. Otherwise it builds a
    new StepOutcome with the forged reward or observation.
    """

    def __init__(self, env: SliceEnv, config: AttackConfig) -> None:
        self.env = env
        self.config = config
        self.adversary = ForgeryAdversary(env.scenario)
        self.attacked_by_slot: Dict[int, int] = {}
        self.lifetime_attacked = 0  # survives resets, unlike attacked_by_slot
        self._rng = None
        self._forged_obs: Optional[np.ndarray] = None  # set on attacked steps

    # mirrored read-only surface
    @property
    def scenario(self) -> ScenarioConfig:
        return self.env.scenario

    @property
    def observation_size(self) -> int:
        return self.env.observation_size

    @property
    def n_actions(self) -> int:
        return self.env.n_actions

    def episode_done(self) -> bool:
        return self.env.episode_done()

    def reset(self, seed: int) -> np.ndarray:
        true_obs = self.env.reset(seed)
        self._rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence((self.config.seed, seed, _STREAM_ATTACK))))
        self.attacked_by_slot = {}
        return self._arm(true_obs)

    def _arm(self, true_obs: np.ndarray) -> np.ndarray:
        """Decide the attack for the upcoming decision; returns what the
        agent gets to see."""
        self._forged_obs = None
        # a finished episode has nothing pending
        if not self.env.state.pending:
            return true_obs
        if self._rng.random() < self.config.attack_probability:
            self._forged_obs = self.adversary.forge_observation(self._rng)
            slot = self.env.state.slot_index
            self.attacked_by_slot[slot] = self.attacked_by_slot.get(slot, 0) + 1
            self.lifetime_attacked += 1
            return self._forged_obs
        return true_obs

    def step(self, decision: int) -> StepOutcome:
        env = self.env
        forged_obs = self._forged_obs
        if forged_obs is None:
            outcome = env.step(decision)
            reward = outcome.reward
        else:
            # an attacked step always has a request pending
            spec = env.current_request_slice()
            slot_final = len(env.state.pending) == 1
            earlier_bonus = env._slot_bonus
            outcome = env.step(decision)
            reward = self.adversary.forged_reward(
                forged_obs, decision, spec, slot_final, earlier_bonus)

        observation = self._arm(outcome.observation)
        if forged_obs is None and self._forged_obs is None:
            return outcome
        return StepOutcome(reward, outcome.admitted, outcome.infeasible_attempt,
                           observation, outcome.episode_done)
