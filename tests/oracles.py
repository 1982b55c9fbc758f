"""Independent reference implementations used to check the library.

Everything here is deliberately written against the underlying mathematics,
not against the library's code paths, so a shared bug cannot cancel out.
"""
from __future__ import annotations

import functools
import itertools
from types import SimpleNamespace

import numpy as np


def lindley_mm1_sojourn(service_rate: float, arrival_rate: float,
                        n_arrivals: int, seed: int) -> float:
    """Mean sojourn time of an M/M/1 queue by discrete-event simulation.

    Uses the Lindley recursion in prefix-sum form: with interarrival gaps
    A_k and service times S_k, the waiting time of customer k is
    W_k = max(0, max_j<=k sum_{i=j..k-1}(S_i - A_i+1)), computed as a
    running-minimum of cumulative sums. Sojourn = waiting + own service.
    """
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / arrival_rate, size=n_arrivals)
    services = rng.exponential(1.0 / service_rate, size=n_arrivals)
    deltas = services[:-1] - gaps[1:]
    c = np.concatenate(([0.0], np.cumsum(deltas)))
    waits = c - np.minimum.accumulate(c)
    return float(np.mean(waits + services))


def gae_reference(rewards, values, bootstrap, gamma, lam, dones=None):
    """Plain-Python generalized advantage estimation, backward recursion.

    delta_t = r_t + gamma * V(s_{t+1}) * (1 - done_t) - V(s_t)
    A_t     = delta_t + gamma * lam * (1 - done_t) * A_{t+1}
    Returns (advantages, returns) with returns = A + V.
    """
    T = len(rewards)
    if dones is None:
        dones = [False] * T
    next_values = list(values[1:]) + [bootstrap]
    advantages = [0.0] * T
    running = 0.0
    for t in reversed(range(T)):
        cont = 0.0 if dones[t] else 1.0
        delta = rewards[t] + gamma * next_values[t] * cont - values[t]
        running = delta + gamma * lam * cont * running
        advantages[t] = running
    returns = [a + v for a, v in zip(advantages, values)]
    return advantages, returns


def softmax_reference(z):
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(z - z.max())
    return e / e.sum()


def numerical_gradient(f, x, eps: float = 1e-6):
    """Central-difference gradient of scalar f at flat parameter vector x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for i in range(x.size):
        bump = np.zeros_like(x)
        bump[i] = eps
        grad[i] = (f(x + bump) - f(x - bump)) / (2.0 * eps)
    return grad


def enumerate_assignments(requests, state):
    """Every joint choice over {REJECT, 1..N} per request, lexicographic."""
    n_options = len(state.remaining) + 1
    return list(itertools.product(range(n_options), repeat=len(requests)))


def assignment_cost(assignment, requests, state, kappa, datacenters):
    """Slot cost of a joint assignment, or None when it is infeasible.

    Replays the placements in request order on plain float lists: a DC must
    cover the demand component by component when the placement is made, and
    the slice must still have a free chain slot. Each admission adds the
    DC's power midpoint and the slice's priority.
    """
    remaining = [list(r.as_tuple()) for r in state.remaining]
    chains = {}
    for chain in state.chains:
        chains[chain.slice_id] = chains.get(chain.slice_id, 0) + 1
    power = sum(chain.power for chain in state.chains)
    bonus = 0.0
    for choice, spec in zip(assignment, requests):
        if choice == 0:
            continue
        have = remaining[choice - 1]
        need = spec.demand.as_tuple()
        if chains.get(spec.slice_id, 0) >= spec.chain_capacity:
            return None
        if any(h < n for h, n in zip(have, need)):
            return None
        remaining[choice - 1] = [h - n for h, n in zip(have, need)]
        chains[spec.slice_id] = chains.get(spec.slice_id, 0) + 1
        lo, hi = datacenters[choice - 1].power_range
        power += (lo + hi) / 2.0
        bonus += spec.priority
    return power - kappa * bonus


def brute_force_decision(requests, state, kappa, datacenters):
    """The first minimum-cost feasible assignment in lexicographic order,
    found by scoring every assignment vector."""
    best, best_cost = None, None
    for assignment in enumerate_assignments(requests, state):
        cost = assignment_cost(assignment, requests, state, kappa, datacenters)
        if cost is not None and (best_cost is None or cost < best_cost):
            best, best_cost = assignment, cost
    return best


def count_vector_decision(requests, state, kappa, datacenters):
    """The slot optimum found from count vectors, for slots too large for
    brute_force_decision.

    Lists every way to split each slice's requests over the DCs that its
    free chain slots and the summed demand allow (count arithmetic with a
    relative slack of 1e-9), sorts all of them by cost, and replays the
    cheapest in request order, each as the lexicographically first
    arrangement of its counts that fits, until the next costs more than the
    best replayed cost plus a tolerance far above rounding. The smallest
    (replayed cost, assignment) wins.
    """
    slack = 1e-9
    ids = list(dict.fromkeys(spec.slice_id for spec in requests))
    spec_of = {spec.slice_id: spec for spec in requests}
    counts = {sid: sum(spec.slice_id == sid for spec in requests) for sid in ids}
    active = {sid: sum(chain.slice_id == sid for chain in state.chains)
              for sid in ids}
    base_power = sum(chain.power for chain in state.chains)
    midpoints = [sum(dc.power_range) / 2.0 for dc in datacenters]
    remaining = [r.as_tuple() for r in state.remaining]
    bounds = [v + slack * max(1.0, v) for r in remaining for v in r]
    n_dcs = len(remaining)

    candidates = [(base_power, (), [0.0] * len(bounds))]
    for sid in ids:
        spec = spec_of[sid]
        limit = max(0, min(counts[sid], spec.chain_capacity - active[sid]))
        grown = []
        for split in itertools.product(range(limit + 1), repeat=n_dcs):
            if sum(split) > limit:
                continue
            usage = [m * d for m in split for d in spec.demand.as_tuple()]
            delta = (sum(m * p for m, p in zip(split, midpoints))
                     - kappa * spec.priority * sum(split))
            for cost, chosen, used in candidates:
                total = [u + v for u, v in zip(used, usage)]
                if all(t <= b for t, b in zip(total, bounds)):
                    grown.append((cost + delta, chosen + (split,), total))
        candidates = grown
    candidates.sort(key=lambda candidate: candidate[0])

    tolerance = slack * (1.0 + abs(base_power) + sum(
        max(midpoints, default=0.0) + abs(kappa) * spec.priority
        for spec in requests))
    best = None
    for approx, chosen, _ in candidates:
        if best is not None and approx > best[0] + tolerance:
            break
        left = tuple((counts[sid] - sum(split),) + split
                     for sid, split in zip(ids, chosen))
        assignment = _first_fitting_arrangement(requests, ids, left, remaining)
        if assignment is not None:
            found = (assignment_cost(assignment, requests, state, kappa,
                                     datacenters), assignment)
            if best is None or found < best:
                best = found
    return best[1]


def _first_fitting_arrangement(requests, ids, left, remaining):
    """The lexicographically first assignment that gives slice ids[s]
    left[s][option] requests of each option and whose placements each fit
    when made in request order, or None. Memoized on (request, remaining
    capacity, counts left)."""
    index = {sid: s for s, sid in enumerate(ids)}

    @functools.lru_cache(maxsize=None)
    def search(i, remaining, left):
        if i == len(requests):
            return ()
        s = index[requests[i].slice_id]
        demand = requests[i].demand.as_tuple()
        for option, count in enumerate(left[s]):
            if not count:
                continue
            after = remaining
            if option:
                have = remaining[option - 1]
                if any(h < d for h, d in zip(have, demand)):
                    continue
                after = (remaining[:option - 1]
                         + (tuple(h - d for h, d in zip(have, demand)),)
                         + remaining[option:])
            counts = left[s][:option] + (count - 1,) + left[s][option + 1:]
            rest = search(i + 1, after, left[:s] + (counts,) + left[s + 1:])
            if rest is not None:
                return (option,) + rest
        return None

    return search(0, tuple(remaining), left)


def greedy_episodes_reference(members, scenario, seeds, attack=None,
                              serve=None):
    """Greedy episodes run one seed after another, one batch-1 forward per
    decision: the per-seed loop that lockstep evaluation replaces.

    serve maps a global slot index (episode index * horizon + slot) to a
    member; without it member 0 decides every step. Returns one
    (slot_log, attacked_by_slot, member_by_slot) tuple per seed, with
    member_by_slot None when serve is None.
    """
    from slice_arena.adversary import PoisonedEnv
    from slice_arena.env import SliceEnv
    from slice_arena.policy import policy_forward

    episodes = []
    for episode_index, seed in enumerate(seeds):
        env = SliceEnv(scenario)
        wrapped = PoisonedEnv(env, attack) if attack is not None else env
        member_by_slot = {}
        obs = wrapped.reset(int(seed))
        while not wrapped.episode_done():
            member = 0
            if serve is not None:
                slot = env.state.slot_index
                if slot not in member_by_slot:
                    member_by_slot[slot] = serve(
                        episode_index * scenario.horizon + slot)
                member = member_by_slot[slot]
            probs = policy_forward(members[member], obs).action_probabilities
            obs = wrapped.step(int(np.argmax(probs))).observation
        episodes.append((
            list(env.slot_log),
            dict(wrapped.attacked_by_slot) if attack is not None else {},
            member_by_slot if serve is not None else None,
        ))
    return episodes


def random_episodes_reference(scenario, seeds):
    """Uniform random decisions, one seed after another, each seed drawing
    from its own (seed, 41) stream. Returns one slot log per seed."""
    from slice_arena.baselines import random_policy_decision
    from slice_arena.env import SliceEnv

    logs = []
    for seed in seeds:
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence((int(seed), 41))))
        env = SliceEnv(scenario)
        env.reset(int(seed))
        while not env.episode_done():
            env.step(random_policy_decision(env.state, rng))
        logs.append(list(env.slot_log))
    return logs


def optimal_episodes_reference(scenario, seeds):
    """Myopic exhaustive placement, one seed after another: each slot is
    planned whole when its first request comes up. Returns one slot log
    per seed."""
    from collections import deque

    from slice_arena.baselines import myopic_exhaustive_decision
    from slice_arena.env import SliceEnv

    by_id = {s.slice_id: s for s in scenario.slices}
    logs = []
    for seed in seeds:
        env = SliceEnv(scenario)
        env.reset(int(seed))
        plan = deque()
        while not env.episode_done():
            if not plan:
                plan = deque(myopic_exhaustive_decision(
                    [by_id[sid] for sid in env.state.pending], env.state,
                    scenario.kappa, scenario.datacenters))
            env.step(int(plan.popleft()))
        logs.append(list(env.slot_log))
    return logs


def greedy_mean_power_reference(scenario, capacity, slots, seed):
    """Mean slot power of admit-on-the-first-feasible-DC placement with
    every slice capped at `capacity` chains, over `slots` slots."""
    from dataclasses import replace

    from slice_arena.env import REJECT, SliceEnv

    capped = replace(
        scenario,
        slices=[replace(s, chain_capacity=capacity) for s in scenario.slices],
        horizon=slots)
    env = SliceEnv(capped)
    env.reset(seed)
    while env.has_pending():
        slice_id = env.current_request_slice().slice_id
        decision = REJECT
        for dc in range(len(capped.datacenters)):
            if env.admission_feasible(slice_id, dc):
                decision = dc + 1
                break
        if env.step(decision).episode_done:
            break
    return sum(rec.power for rec in env.slot_log) / max(1, slots)


def per_request_draw_arrivals(env):
    """SliceEnv._draw_arrivals drawn one value at a time: per slice in
    scenario order one poisson call on the arrival stream, then per request
    one power and one lifetime uniform call on the request stream. Fills
    the slot's fields, the pending deque and the request uniforms of env;
    the pending counters are recounted from the deque, so they owe nothing
    to the batched method's bookkeeping. Bind it as _draw_arrivals on a
    SliceEnv subclass."""
    from slice_arena.env import SliceSlotStats

    slices = env.scenario.slices
    env._current_stats = {s.slice_id: SliceSlotStats() for s in slices}
    env._slot_bonus = 0
    env._penalties_this_slot = 0.0
    for spec in slices:
        count = int(env._arrival_rng.poisson(spec.arrival_mean))
        env._current_stats[spec.slice_id].arrived = count
        for _ in range(count):
            u_power = float(env._request_rng.uniform())
            u_life = float(env._request_rng.uniform())
            env.state.pending.append(spec.slice_id)
            env._request_uniforms.append((u_power, u_life))
    env._pending_counts = {s.slice_id: env.state.pending.count(s.slice_id)
                           for s in slices}


def observation_reference(env):
    """The observation of env built from scratch: per DC in scenario order
    the remaining cpu, memory and storage over capacity, read from the
    state; then per slice in scenario order its requests in the pending
    deque, counted there, clipped to 32 and divided by 32."""
    values = []
    for dc, rem in zip(env.scenario.datacenters, env.state.remaining):
        cap = dc.capacity
        values += [rem.cpu / cap.cpu, rem.memory / cap.memory,
                   rem.storage / cap.storage]
    pending = list(env.state.pending)
    values += [min(pending.count(s.slice_id), 32) / 32
               for s in env.scenario.slices]
    return np.asarray(values, dtype=np.float64)


class PoisonedEnvReference:
    """The attack wrapper as first written, kept to check the lean one: it
    asks the wrapped env for everything through its public methods, builds
    a new outcome namespace on every step, and forges the observation into
    a list.
    Same attack stream, same draws, same forged rewards."""

    def __init__(self, env, config):
        from slice_arena.adversary import ForgeryAdversary

        self.env = env
        self.config = config
        self.adversary = ForgeryAdversary(env.scenario)
        self.attacked_by_slot = {}
        self.lifetime_attacked = 0
        self._rng = None
        self._attacked_now = False
        self._forged_obs = None
        self._slot_admitted = []

    def episode_done(self):
        return self.env.episode_done()

    def reset(self, seed):
        true_obs = self.env.reset(seed)
        self._rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence((self.config.seed, seed, 21))))
        self.attacked_by_slot = {}
        self._slot_admitted = []
        return self._arm(true_obs)

    def _forge(self):
        sc = self.env.scenario
        values = list(np.atleast_1d(
            self._rng.uniform(size=3 * len(sc.datacenters))))
        for s in sc.slices:
            count = min(int(self._rng.poisson(s.arrival_mean)), 32)
            values.append(count / 32)
        return np.asarray(values, dtype=np.float64)

    def _arm(self, true_obs):
        self._attacked_now = False
        self._forged_obs = None
        if self.env.episode_done() or not self.env.has_pending():
            return true_obs
        if self._rng.random() < self.config.attack_probability:
            self._attacked_now = True
            self._forged_obs = self._forge()
            slot = self.env.state.slot_index
            self.attacked_by_slot[slot] = self.attacked_by_slot.get(slot, 0) + 1
            self.lifetime_attacked += 1
            return self._forged_obs
        return true_obs

    def step(self, decision):
        from slice_arena.env import REJECT

        env = self.env
        attacked = self._attacked_now
        forged_obs = self._forged_obs
        spec = env.current_request_slice() if env.has_pending() else None
        slot_final = len(env.state.pending) == 1

        outcome = env.step(decision)

        if attacked:
            demand_fraction = None
            if decision != REJECT:
                cap = env.scenario.datacenters[decision - 1].capacity
                d = spec.demand
                demand_fraction = (d.cpu / cap.cpu, d.memory / cap.memory,
                                   d.storage / cap.storage)
            context = SimpleNamespace(
                decision=int(decision), demand_fraction=demand_fraction,
                slot_final=slot_final,
                admitted_priorities=tuple(self._slot_admitted),
                current_priority=spec.priority)
            reward = self._forged_reward(context, forged_obs)
        else:
            reward = outcome.reward

        if slot_final:
            self._slot_admitted = []
        elif outcome.admitted:
            self._slot_admitted.append(spec.priority)

        return SimpleNamespace(
            reward=reward,
            admitted=outcome.admitted,
            infeasible_attempt=outcome.infeasible_attempt,
            observation=self._arm(outcome.observation),
            episode_done=outcome.episode_done)

    def _forged_reward(self, context, forged_obs):
        """ForgeryAdversary.forged_reward with its numpy feasibility test."""
        from slice_arena.env import REJECT

        sc = self.env.scenario
        reward = 0.0
        placed_ok = False
        if context.decision != REJECT:
            dc = context.decision - 1
            remaining = forged_obs[3 * dc:3 * dc + 3]
            if np.all(remaining >= np.asarray(context.demand_fraction) - 1e-12):
                placed_ok = True
            else:
                reward -= sc.m_penalty
        if context.slot_final:
            n_res = 3 * len(sc.datacenters)
            utilization = 1.0 - float(np.mean(forged_obs[:n_res]))
            top = max(hi for _, hi in (dc.power_range for dc in sc.datacenters))
            scale = top * sum(s.chain_capacity for s in sc.slices)
            phi_hat = utilization * scale
            bonus = sum(context.admitted_priorities)
            if placed_ok:
                bonus += context.current_priority
            reward -= phi_hat - sc.kappa * bonus
        return reward


class AdamReference:
    """Adam with bias correction stepped one array at a time: for each
    parameter array a with gradient g,

        m = beta1 m + (1 - beta1) g,   v = beta2 v + (1 - beta2) g^2,
        a -= lr (m / (1 - beta1^t)) / (sqrt(v / (1 - beta2^t)) + eps).

    step takes matching lists of parameter arrays (updated in place) and
    gradient arrays; m and v are lists of arrays shaped like them."""

    def __init__(self, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.beta1, self.beta2, self.epsilon = beta1, beta2, epsilon
        self.step_count = 0
        self.m = []
        self.v = []

    def step(self, arrays, grads, learning_rate):
        if not self.m:
            self.m = [np.zeros_like(a) for a in arrays]
            self.v = [np.zeros_like(a) for a in arrays]
        self.step_count += 1
        t = self.step_count
        for a, g, m, v in zip(arrays, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            m_hat = m / (1.0 - self.beta1 ** t)
            v_hat = v / (1.0 - self.beta2 ** t)
            a -= learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)
