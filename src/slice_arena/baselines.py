"""Non-learning comparison policies: random allocation and the per-slot
myopic oracle.

The oracle minimizes the slot's settled cost (power minus the kappa-weighted
admission bonus, each admission priced at its DC's expected power draw) over
every joint assignment of the requests to {REJECT, DC 1..N}. It is myopic,
not horizon-optimal.

Requests of one slice are interchangeable, so cost and feasibility depend
only on the count vector: how many requests of each slice go to each option.
Feasibility does not depend on the order of placement, because demands are
nonnegative (a DC that covers all its placements covered each one when it
was made) and chain counts only grow. The search enumerates how each
slice's requests split over the options, pruned by chain caps and by
resources in count arithmetic with a relative slack of 1e-9. Survivors near
the best are replayed as the environment steps, one subtraction and one
added midpoint per admission in request order, so rounding decides fit and
cost exactly as it does there.

Tie rule: the lexicographically smallest minimum-cost assignment wins. For
fixed counts that puts each slice's rejects first, then its DC 1
placements, then DC 2, and so on; a slice's requests need not be adjacent.
Everything here is a pure function of its arguments.
"""
from __future__ import annotations

from collections import Counter
from functools import lru_cache
from operator import add, ge, itemgetter, le, mul, sub
from typing import Dict, List, Sequence, Tuple

from .env import ClusterState, DataCenterSpec, REJECT, SliceSpec

_SLACK = 1e-9


def random_policy_decision(state: ClusterState, slice_spec: SliceSpec, rng) -> int:
    """Uniform over {REJECT, DC 1..N}; no feasibility lookahead."""
    return int(rng.integers(0, len(state.remaining) + 1))


@lru_cache(maxsize=None)
def _splits(n_dcs: int, limit: int) -> Tuple[Tuple[int, ...], ...]:
    """Every (m_1, ..., m_N) of nonnegative counts summing to at most limit."""
    if n_dcs == 0:
        return ((),)
    return tuple((first,) + rest for first in range(limit + 1)
                 for rest in _splits(n_dcs - 1, limit - first))


def myopic_exhaustive_decision(requests: Sequence[SliceSpec], state: ClusterState,
                               kappa: float,
                               datacenters: Sequence[DataCenterSpec]) -> Tuple[int, ...]:
    """The feasible joint assignment with minimal slot cost; ties go to the
    lexicographically smallest. Requests of one slice id share one spec."""
    by_id: Dict[str, SliceSpec] = {}
    for spec in requests:
        if by_id.setdefault(spec.slice_id, spec) != spec:
            raise ValueError(f"requests of slice {spec.slice_id!r} differ in spec")
    counts = Counter(spec.slice_id for spec in requests)
    midpoints = [sum(dc.power_range) / 2.0 for dc in datacenters]
    remaining = [r.as_tuple() for r in state.remaining]
    # per DC and resource, flattened: what count arithmetic may place
    bounds = tuple(v + _SLACK * max(1.0, v) for r in remaining for v in r)
    base_power = state.total_power()

    # every count vector that passes count arithmetic, built slice by slice
    # as (cost, one split per slice so far, flattened usage)
    partial = [(base_power, (), (0.0,) * len(bounds))]
    for sid, spec in by_id.items():
        limit = min(counts[sid], spec.chain_capacity - state.active_count(sid))
        extended = []
        for split in _splits(len(midpoints), max(limit, 0)):
            usage = tuple(m * d for m in split for d in spec.demand.as_tuple())
            if not all(map(le, usage, bounds)):
                continue
            delta = (sum(map(mul, split, midpoints))
                     - kappa * spec.priority * sum(split))
            for cost, chosen, used in partial:
                total = tuple(map(add, used, usage))
                if all(map(le, total, bounds)):
                    extended.append((cost + delta, chosen + (split,), total))
        partial = extended
    partial.sort(key=itemgetter(0))

    # replayed costs differ from these by rounding, far below the tolerance
    tolerance = _SLACK * (1.0 + abs(base_power) + sum(
        max(midpoints, default=0.0) + abs(kappa) * s.priority for s in requests))
    best = None
    for approx, chosen, _ in partial:
        if best is not None and approx > best[0] + tolerance:
            break
        left = {sid: [counts[sid] - sum(split), *split]
                for sid, split in zip(by_id, chosen)}
        found = _arrange(requests, left, remaining, base_power, kappa, midpoints)
        if found is not None and (best is None or found < best):
            best = found
    return best[1]


def _arrange(requests: Sequence[SliceSpec], left: Dict[str, List[int]],
             remaining, power: float, kappa: float, midpoints: Sequence[float]):
    """(cost, assignment) for the lexicographically first arrangement of the
    counts ``left[slice_id][option]`` that fits in request order, or None.
    Only rounding makes the first path miss. A subtree's fit depends only on
    (depth, remaining, counts left), so dead subtrees are not revisited."""
    dead = set()

    def descend(i: int, remaining, power: float, bonus: float):
        if i == len(requests):
            return power - kappa * bonus, ()
        key = (i, tuple(remaining), tuple(map(tuple, left.values())))
        if key in dead:
            return None
        spec = requests[i]
        counts = left[spec.slice_id]
        for option, count in enumerate(counts):
            if not count:
                continue
            after = (remaining, power, bonus)
            if option != REJECT:
                have, demand = remaining[option - 1], spec.demand.as_tuple()
                if not all(map(ge, have, demand)):
                    continue
                placed = list(remaining)
                placed[option - 1] = tuple(map(sub, have, demand))
                after = (placed, power + midpoints[option - 1],
                         bonus + spec.priority)
            counts[option] -= 1
            found = descend(i + 1, *after)
            counts[option] += 1
            if found is not None:
                return found[0], (option,) + found[1]
        dead.add(key)
        return None

    return descend(0, remaining, power, 0.0)
