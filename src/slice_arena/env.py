"""Slot-structured admission and placement environment.

Time advances in slots. At the start of a slot each slice receives a Poisson
number of service requests; the requests are presented one at a time (grouped
by slice, in scenario order) and each must be rejected or placed on a single
data center. An admitted request instantiates one chain that holds the
slice's full resource demand on its data center and draws power until it
departs; lifetimes are geometric with mean 1/departure_prob, so a chain
admitted in slot t is active through slot t + L - 1 with P(L = k) =
p (1-p)^(k-1).

When the slot's last request has been decided the slot cost is settled:

    cost = phi_tot - kappa * sum of priorities over this slot's admissions

where phi_tot sums the power of every active chain (all of them, not only
the new ones). The step that decided the last request receives -cost as its
reward, on top of any infeasibility penalty it incurred itself. Earlier
steps in the slot receive 0, or -M_penalty for an infeasible placement
attempt. Slots with no arrivals are advanced internally; their cost (power
of still-active chains) is folded into the reward of the step that crossed
them, so no cost is ever dropped. Departures are sampled after the slot is
settled.

Observation layout (version 1): for each data center in scenario order the
remaining cpu, memory and storage as fractions of capacity, then for each
slice the count of still-undecided requests this slot divided by 32, clipped
to 1. The slice whose request is being decided is the first slice in
scenario order with a nonzero pending entry.

The env keeps that vector in place and rewrites only the entries that
change: a DC's three fractions when a chain is admitted to it or departs
from it, a slice's pending entry when its pending count changes. Each entry
is the same Python-float division a from-scratch build would do, so the
values are the same bits; observation() and StepOutcome.observation hand
out copies. The vector follows the env's own changes only: a caller that
rewrites state.remaining itself does not move it.

Every object the env builds goes through its type's own constructor: an
admission or departure writes the DC's new remaining capacity as
``rem - demand`` or ``rem + demand``, so ResourceVector's check runs on it,
and each step returns a StepOutcome tuple.

run_episodes is the one loop that steps episodes to their end: every
evaluation (policies, baselines, the overprovisioning study) drives its
environments through it, keeping its own state in the decide callback.

Randomness is split over two streams so that consumption depends only on
arrival counts, never on policy decisions: an arrival stream (one Poisson
draw per slice per slot) and a request stream (one power uniform and one
lifetime uniform per arriving request, drawn at arrival time). Two runs with
the same scenario and seed therefore see identical traffic regardless of the
admission decisions taken. The request draws are batched per slot: one call
for the slot's 2n uniforms, read in request order as (power, lifetime)
pairs, which yields the values of drawing them one at a time. A request
keeps both uniforms until it is decided; the lifetime is computed from its
uniform only on admission.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Callable, Dict, List, NamedTuple, Optional,
                    Sequence)

import numpy as np

from .dimensioning import TrafficProfile

if TYPE_CHECKING:
    from .config import ScenarioConfig

REJECT = 0
PENDING_CAP = 32
OBS_LAYOUT_VERSION = 1

_STREAM_ARRIVALS = 11
_STREAM_REQUESTS = 12


class NoPendingRequestError(RuntimeError):
    """step() was called with no request waiting for a decision."""


class InvalidDecisionError(ValueError):
    """Decision outside {REJECT, 1..N}."""


@dataclass(frozen=True)
class ResourceVector:
    cpu: float
    memory: float
    storage: float

    def __post_init__(self) -> None:
        # finite and >= 0; NaN fails every comparison
        if not (0.0 <= self.cpu < math.inf and 0.0 <= self.memory < math.inf
                and 0.0 <= self.storage < math.inf):
            name = next(n for n in ("cpu", "memory", "storage")
                        if not 0.0 <= getattr(self, n) < math.inf)
            raise ValueError(f"{name} must be finite and >= 0, "
                             f"got {getattr(self, name)!r}")

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(self.cpu + other.cpu, self.memory + other.memory,
                              self.storage + other.storage)

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(self.cpu - other.cpu, self.memory - other.memory,
                              self.storage - other.storage)

    def covers(self, demand: "ResourceVector") -> bool:
        return (self.cpu >= demand.cpu and self.memory >= demand.memory
                and self.storage >= demand.storage)

    def as_tuple(self) -> tuple:
        return (self.cpu, self.memory, self.storage)


@dataclass(frozen=True)
class DataCenterSpec:
    dc_id: str
    capacity: ResourceVector
    power_range: tuple

    def __post_init__(self) -> None:
        lo, hi = self.power_range
        if not (0.0 < lo <= hi):
            raise ValueError(f"power_range must satisfy 0 < low <= high, got {self.power_range!r}")
        if min(self.capacity.as_tuple()) <= 0.0:
            raise ValueError("data center capacity must be positive in every component")


@dataclass(frozen=True)
class SliceSpec:
    slice_id: str
    priority: float
    demand: ResourceVector
    profile: TrafficProfile
    arrival_mean: float
    departure_prob: float
    chain_capacity: int

    def __post_init__(self) -> None:
        if self.priority <= 0.0:
            raise ValueError(f"priority must be positive, got {self.priority!r}")
        if min(self.demand.as_tuple()) <= 0.0:
            raise ValueError("demand must be positive in every component")
        if self.arrival_mean < 0.0:
            raise ValueError(f"arrival_mean must be >= 0, got {self.arrival_mean!r}")
        if not (0.0 <= self.departure_prob <= 1.0):
            raise ValueError(f"departure_prob must lie in [0, 1], got {self.departure_prob!r}")
        if self.chain_capacity < 1:
            raise ValueError(f"chain_capacity must be >= 1, got {self.chain_capacity!r}")


@dataclass
class Chain:
    slice_id: str
    dc_index: int
    power: float
    depart_after: float  # last slot index (inclusive) the chain is active; inf if never


@dataclass
class ClusterState:
    """Mutable cluster snapshot: remaining capacity, chain ledger, pending work."""

    remaining: List[ResourceVector]
    chains: List[Chain]
    pending: deque
    slot_index: int

    def active_count(self, slice_id: str) -> int:
        return sum(1 for c in self.chains if c.slice_id == slice_id)


class StepOutcome(NamedTuple):
    reward: float
    admitted: bool
    infeasible_attempt: bool
    observation: np.ndarray
    episode_done: bool


@dataclass
class SliceSlotStats:
    arrived: int = 0
    admitted: int = 0
    rejected: int = 0
    infeasible: int = 0


@dataclass
class SlotRecord:
    slot: int
    power: float
    cost: float
    reward: float
    decisions: int
    per_slice: Dict[str, SliceSlotStats] = field(default_factory=dict)


class SliceEnv:
    """Sequential-decision admission environment over a ScenarioConfig."""

    def __init__(self, scenario: "ScenarioConfig", debug: bool = False) -> None:
        self.scenario = scenario
        self.debug = debug
        self._slice_by_id = {s.slice_id: s for s in scenario.slices}
        n_resources = 3 * len(scenario.datacenters)
        # observation entry of each slice's pending fraction
        self._pending_entry = {s.slice_id: n_resources + k
                               for k, s in enumerate(scenario.slices)}
        self._obs = np.zeros(n_resources + len(scenario.slices))
        self.state: Optional[ClusterState] = None
        self.slot_log: List[SlotRecord] = []
        self._done = True

    # ------------------------------------------------------------------ setup

    def reset(self, seed: int) -> np.ndarray:
        sc = self.scenario
        self._arrival_rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence((seed, _STREAM_ARRIVALS))))
        self._request_rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence((seed, _STREAM_REQUESTS))))
        self.state = ClusterState(
            remaining=[dc.capacity for dc in sc.datacenters],
            chains=[],
            pending=deque(),
            slot_index=0,
        )
        self.slot_log = []
        self._done = False
        self._request_uniforms = deque()  # (power, lifetime) aligned with pending
        self._power = 0  # of the live chains, summed left to right
        # per-slice chains in the ledger and requests in the pending deque
        self._active_counts = dict.fromkeys(self._slice_by_id, 0)
        self._pending_counts = dict.fromkeys(self._slice_by_id, 0)
        for i in range(len(sc.datacenters)):
            self._write_remaining(i)
        for slice_id in self._pending_counts:
            self._write_pending(slice_id)
        self._always_on_power = None
        if sc.power_mode == "always_on":
            self._always_on_power = self._draw_always_on_power()
        self._draw_arrivals()
        # slots with no arrivals need no decision; cross them right away (the
        # ledger is empty at reset so they carry zero cost)
        self._advance_through_empty_slots()
        return self.observation()

    def _draw_always_on_power(self) -> float:
        # deployed chain slots draw a fixed price each; placement is a
        # round-robin fiction over the DCs just to pick a power range
        total = 0.0
        n = len(self.scenario.datacenters)
        for s in self.scenario.slices:
            for k in range(s.chain_capacity):
                lo, hi = self.scenario.datacenters[k % n].power_range
                total += lo + float(self._request_rng.uniform()) * (hi - lo)
        return total

    def _draw_arrivals(self) -> None:
        assert self.state is not None
        self._current_stats = {s.slice_id: SliceSlotStats() for s in self.scenario.slices}
        self._slot_bonus = 0  # starts where sum() starts
        self._penalties_this_slot = 0.0
        # numpy's array-argument poisson checks its parameter with array
        # reductions; a scalar call per slice is several times cheaper
        counts = [int(self._arrival_rng.poisson(s.arrival_mean))
                  for s in self.scenario.slices]
        uniforms = iter(self._request_rng.random(2 * sum(counts)).tolist())
        self._request_uniforms.extend(zip(uniforms, uniforms))  # in request order
        for spec, count in zip(self.scenario.slices, counts):
            self._current_stats[spec.slice_id].arrived = count
            if count:
                self._pending_counts[spec.slice_id] += count
                self._write_pending(spec.slice_id)
            self.state.pending.extend([spec.slice_id] * count)

    # ------------------------------------------------------------- inspection

    def has_pending(self) -> bool:
        return self.state is not None and len(self.state.pending) > 0

    def current_request_slice(self) -> SliceSpec:
        if not self.has_pending():
            raise NoPendingRequestError("no request is waiting for a decision")
        return self._slice_by_id[self.state.pending[0]]

    def admission_feasible(self, slice_id: str, dc_index: int) -> bool:
        """True when the DC's remaining resources cover the slice's demand
        and the slice still has a free chain slot (read from the active
        counter, not the ledger)."""
        spec = self._slice_by_id[slice_id]
        return (self._active_counts[slice_id] < spec.chain_capacity
                and self.state.remaining[dc_index].covers(spec.demand))

    def observation(self) -> np.ndarray:
        assert self.state is not None
        return self._obs.copy()

    @property
    def observation_size(self) -> int:
        return 3 * len(self.scenario.datacenters) + len(self.scenario.slices)

    @property
    def n_actions(self) -> int:
        return 1 + len(self.scenario.datacenters)

    def episode_done(self) -> bool:
        return self._done

    # ------------------------------------------------------------------- step

    def step(self, decision: int) -> StepOutcome:
        state = self.state
        if self._done or state is None:
            raise NoPendingRequestError("episode is finished; call reset()")
        pending = state.pending
        if not pending:
            raise NoPendingRequestError("no request is waiting for a decision")
        if not isinstance(decision, (int, np.integer)):
            raise InvalidDecisionError(f"decision must be an integer, got {decision!r}")
        decision = int(decision)
        n_dcs = len(self.scenario.datacenters)
        if decision < 0 or decision > n_dcs:
            raise InvalidDecisionError(f"decision {decision} outside 0..{n_dcs}")

        slice_id = pending.popleft()
        self._pending_counts[slice_id] -= 1
        self._write_pending(slice_id)
        spec = self._slice_by_id[slice_id]
        u_power, u_life = self._request_uniforms.popleft()
        stats = self._current_stats[slice_id]

        reward = 0.0
        admitted = False
        infeasible = False
        if decision == REJECT:
            stats.rejected += 1
        else:
            dc_index = decision - 1
            rem, demand = state.remaining[dc_index], spec.demand
            # admission_feasible's test, inlined; keep the two alike
            if (self._active_counts[slice_id] < spec.chain_capacity
                    and rem.cpu >= demand.cpu and rem.memory >= demand.memory
                    and rem.storage >= demand.storage):
                lo, hi = self.scenario.datacenters[dc_index].power_range
                lifetime = _geometric_lifetime(u_life, spec.departure_prob)
                chain = Chain(
                    slice_id=slice_id,
                    dc_index=dc_index,
                    power=lo + u_power * (hi - lo),
                    depart_after=state.slot_index + lifetime - 1,
                )
                state.chains.append(chain)
                self._power += chain.power
                self._active_counts[slice_id] += 1
                state.remaining[dc_index] = rem - demand
                self._write_remaining(dc_index)
                self._slot_bonus += spec.priority
                stats.admitted += 1
                admitted = True
            else:
                stats.infeasible += 1
                infeasible = True
                reward -= self.scenario.m_penalty
                self._penalties_this_slot += self.scenario.m_penalty

        if not pending:
            reward += self._settle_slot()
            reward += self._advance_through_empty_slots()

        if self.debug:
            self._check_conservation()
        return StepOutcome(reward, admitted, infeasible, self.observation(),
                           self._done)

    # -------------------------------------------------------------- internals

    def _write_remaining(self, dc_index: int) -> None:
        """Rewrite DC dc_index's three remaining fractions in the kept
        observation."""
        rem = self.state.remaining[dc_index]
        cap = self.scenario.datacenters[dc_index].capacity
        base = 3 * dc_index
        obs = self._obs
        obs[base] = rem.cpu / cap.cpu
        obs[base + 1] = rem.memory / cap.memory
        obs[base + 2] = rem.storage / cap.storage

    def _write_pending(self, slice_id: str) -> None:
        """Rewrite the slice's pending fraction in the kept observation."""
        count = self._pending_counts[slice_id]
        self._obs[self._pending_entry[slice_id]] = (
            min(count, PENDING_CAP) / PENDING_CAP)

    def _settle_slot(self) -> float:
        """Close the current slot; returns the -cost contribution for the
        step that decided its last request (or crossed it, if it was empty)."""
        state = self.state
        power = (self._power if self._always_on_power is None
                 else self._always_on_power)
        cost = power - self.scenario.kappa * self._slot_bonus
        self.slot_log.append(SlotRecord(
            slot=state.slot_index,
            power=power,
            cost=cost,
            reward=-cost - self._penalties_this_slot,
            # every arrival is decided within its own slot
            decisions=sum(s.arrived for s in self._current_stats.values()),
            per_slice=self._current_stats,
        ))
        self._sample_departures()
        state.slot_index += 1
        if state.slot_index >= self.scenario.horizon:
            self._done = True
        else:
            self._draw_arrivals()
        return -cost

    def _advance_through_empty_slots(self) -> float:
        """Cross slots that arrived empty; their cost accrues to the caller."""
        accrued = 0.0
        while not self._done and not self.state.pending:
            accrued += self._settle_slot()
        return accrued

    def _sample_departures(self) -> None:
        state = self.state
        remaining = state.remaining
        keep: List[Chain] = []
        freed = set()
        power = 0  # the survivors' powers, summed left to right
        for chain in state.chains:
            if chain.depart_after <= state.slot_index:
                remaining[chain.dc_index] = (
                    remaining[chain.dc_index]
                    + self._slice_by_id[chain.slice_id].demand)
                freed.add(chain.dc_index)
                self._active_counts[chain.slice_id] -= 1
            else:
                keep.append(chain)
                power += chain.power
        state.chains = keep
        self._power = power
        for dc_index in freed:
            self._write_remaining(dc_index)

    def _check_conservation(self) -> None:
        state = self.state
        free = [dc.capacity for dc in self.scenario.datacenters]
        active = dict.fromkeys(self._active_counts, 0)
        power = 0  # the ledger's left-to-right sum; the kept total must match
        for chain in state.chains:
            free[chain.dc_index] = (free[chain.dc_index]
                                    - self._slice_by_id[chain.slice_id].demand)
            active[chain.slice_id] += 1
            power += chain.power
        for dc, rem, want in zip(self.scenario.datacenters, state.remaining, free):
            got, want = rem.as_tuple(), want.as_tuple()
            if any(abs(g - w) > 1e-9 for g, w in zip(got, want)):
                raise AssertionError(
                    f"resource conservation violated on DC {dc.dc_id}: {got} != {want}")
        if self._power != power:
            raise AssertionError(
                f"kept power total reads {self._power!r}, ledger sums to {power!r}")
        for slice_id, count in self._active_counts.items():
            if count != active[slice_id]:
                raise AssertionError(
                    f"active counter of slice {slice_id} reads {count}, "
                    f"ledger holds {active[slice_id]}")
        for slice_id, count in self._pending_counts.items():
            if count != state.pending.count(slice_id):
                raise AssertionError(
                    f"pending counter of slice {slice_id} reads {count}, "
                    f"deque holds {state.pending.count(slice_id)}")


def run_episodes(envs: Sequence, seeds: Sequence[int],
                 decide: Callable[[List[int], List[np.ndarray]], Sequence[int]],
                 ) -> None:
    """Reset envs[i] with seeds[i], then step every live episode in lockstep
    until all are done. decide(live, observations) returns one action per
    index in live; observations[i] is what envs[i] showed last."""
    observations = [env.reset(int(seed)) for env, seed in zip(envs, seeds)]
    live = [i for i, env in enumerate(envs) if not env.episode_done()]
    while live:
        still_live = []
        for i, action in zip(live, decide(live, observations)):
            outcome = envs[i].step(int(action))
            observations[i] = outcome.observation
            if not outcome.episode_done:
                still_live.append(i)
        live = still_live


def _geometric_lifetime(u: float, p: float) -> float:
    """Inverse-CDF geometric draw on {1, 2, ...} with success probability p.

    p = 1 pins the lifetime to a single slot; p = 0 never departs.
    """
    if p >= 1.0:
        return 1.0
    if p <= 0.0:
        return math.inf
    k = math.ceil(math.log1p(-u) / math.log1p(-p))
    return float(max(1, k))
