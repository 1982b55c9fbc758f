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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .config import ScenarioConfig
from .env import PENDING_CAP, REJECT, SliceEnv, StepOutcome
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
                      demand_fraction: Optional[Tuple[float, float, float]],
                      slot_final: bool, admitted_priorities: Sequence[float],
                      current_priority: float) -> float:
        """The reward the forged state would have produced for this step.

        demand_fraction is the request's demand over the chosen DC's
        capacity (None on a reject). admitted_priorities lists the slot's
        earlier truly-admitted requests; the current one is re-evaluated
        against the forged picture instead.
        """
        sc = self.scenario
        reward = 0.0
        placed_ok = False
        if decision != REJECT:
            if self.forged_feasible(forged_obs, decision - 1, demand_fraction):
                placed_ok = True
            else:
                reward -= sc.m_penalty
        if slot_final:
            n_res = 3 * len(sc.datacenters)
            utilization = 1.0 - float(np.mean(forged_obs[:n_res]))
            phi_hat = utilization * self._power_scale
            bonus = sum(admitted_priorities)
            if placed_ok:
                bonus += current_priority
            reward -= phi_hat - sc.kappa * bonus
        return reward


class PoisonedEnv:
    """SliceEnv wrapper that feeds the agent the adversary's forgery.

    Each decision step is attacked independently with probability
    attack_probability, decided before the observation is presented so the
    agent acts on the forged state. Metrics must be read from the wrapped
    env (its slot log is the ground truth); the wrapper only counts how
    many decisions per slot were attacked.

    step reads the wrapped env's pending deque directly. When neither the
    step just taken nor the next one is attacked, it returns the wrapped
    env's StepOutcome itself: the agent then sees exactly what the true env
    reported. Otherwise it builds a new StepOutcome with the forged reward
    or observation.
    """

    def __init__(self, env: SliceEnv, config: AttackConfig) -> None:
        self.env = env
        self.config = config
        self.adversary = ForgeryAdversary(env.scenario)
        self.attacked_by_slot: Dict[int, int] = {}
        self.lifetime_attacked = 0  # survives resets, unlike attacked_by_slot
        self._rng = None
        self._attacked_now = False
        self._forged_obs: Optional[np.ndarray] = None
        self._slot_admitted: List[float] = []
        self._slice_by_id = {s.slice_id: s for s in env.scenario.slices}

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

    def has_pending(self) -> bool:
        return self.env.has_pending()

    def reset(self, seed: int) -> np.ndarray:
        true_obs = self.env.reset(seed)
        self._rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence((self.config.seed, seed, _STREAM_ATTACK))))
        self.attacked_by_slot = {}
        self._slot_admitted = []
        return self._arm(true_obs)

    def _arm(self, true_obs: np.ndarray) -> np.ndarray:
        """Decide the attack for the upcoming decision; returns what the
        agent gets to see."""
        self._attacked_now = False
        self._forged_obs = None
        # a finished episode has nothing pending
        if not self.env.state.pending:
            return true_obs
        if self._rng.random() < self.config.attack_probability:
            self._attacked_now = True
            self._forged_obs = self.adversary.forge_observation(self._rng)
            slot = self.env.state.slot_index
            self.attacked_by_slot[slot] = self.attacked_by_slot.get(slot, 0) + 1
            self.lifetime_attacked += 1
            return self._forged_obs
        return true_obs

    def step(self, decision: int) -> StepOutcome:
        env = self.env
        attacked = self._attacked_now
        forged_obs = self._forged_obs
        pending = env.state.pending if env.state is not None else ()
        spec = self._slice_by_id[pending[0]] if pending else None
        slot_final = len(pending) == 1

        outcome = env.step(decision)

        reward = outcome.reward
        if attacked:
            demand_fraction = None
            if decision != REJECT:
                cap = env.scenario.datacenters[decision - 1].capacity
                d = spec.demand
                demand_fraction = (d.cpu / cap.cpu, d.memory / cap.memory,
                                   d.storage / cap.storage)
            reward = self.adversary.forged_reward(
                forged_obs, decision, demand_fraction, slot_final,
                self._slot_admitted, spec.priority)

        if slot_final:
            self._slot_admitted = []
        elif outcome.admitted:
            self._slot_admitted.append(spec.priority)

        observation = self._arm(outcome.observation)
        if not (attacked or self._attacked_now):
            return outcome
        return StepOutcome(reward, outcome.admitted, outcome.infeasible_attempt,
                           observation, outcome.episode_done)
