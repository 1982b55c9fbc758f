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
was made) and chain counts only grow. Each slice's splits over the DCs, of
at most as many requests as it has free chain slots, are tabulated once per
slice shape with their cost change and resource usage, cheapest first.

The search is a depth-first branch and bound that picks one split per
slice. Slices branch in the order of their cheapest split that fits alone,
the most valuable first, and each slice tries its splits cheapest first. A
combination is kept while its summed usage fits the DCs in count
arithmetic, with a relative slack of 1e-9. A branch is cut once its cost so
far, plus the cheapest split that fits alone of every slice still to
choose, exceeds the best replayed cost by more than a tolerance that
rounding stays far below.

Each leaf is replayed as the environment steps, one subtraction and one
added midpoint per admission in request order, so rounding decides fit and
cost exactly as it does there. The lexicographically first arrangement of
the leaf's counts is walked in a straight line. Only when one of its
placements misses on rounding does a search with a memo of dead subtrees
look for the first arrangement that fits.

Tie rule: the lexicographically smallest minimum-cost assignment wins. For
fixed counts that puts each slice's rejects first, then its DC 1
placements, then DC 2, and so on; a slice's requests need not be adjacent.
Everything here is a pure function of its arguments.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import chain, repeat
from operator import add, ge, itemgetter, le, mul, sub
from typing import Dict, List, Sequence, Tuple

from .env import ClusterState, DataCenterSpec, REJECT, SliceSpec

_SLACK = 1e-9


def random_policy_decision(state: ClusterState, rng) -> int:
    """Uniform over {REJECT, DC 1..N}; no feasibility lookahead."""
    return int(rng.integers(0, len(state.remaining) + 1))


@lru_cache(maxsize=None)
def _splits(n_dcs: int, limit: int) -> Tuple[Tuple[int, ...], ...]:
    """Every (m_1, ..., m_N) of nonnegative counts summing to at most limit."""
    if n_dcs == 0:
        return ((),)
    return tuple((first,) + rest for first in range(limit + 1)
                 for rest in _splits(n_dcs - 1, limit - first))


@lru_cache(maxsize=None)
def _options(n_dcs: int, limit: int, demand: Tuple[float, ...],
             midpoints: Tuple[float, ...], weight: float):
    """(delta, split, usage) for every split of at most limit requests of
    one slice, cheapest first. delta is the split's midpoint power minus
    weight (kappa x priority) per admission; usage is what it takes from
    each DC and resource, flattened."""
    table = [(sum(map(mul, split, midpoints)) - weight * sum(split), split,
              tuple(m * d for m in split for d in demand))
             for split in _splits(n_dcs, limit)]
    table.sort(key=itemgetter(0))
    return tuple(table)


def myopic_exhaustive_decision(requests: Sequence[SliceSpec], state: ClusterState,
                               kappa: float,
                               datacenters: Sequence[DataCenterSpec]) -> Tuple[int, ...]:
    """The feasible joint assignment with minimal slot cost; ties go to the
    lexicographically smallest. Requests of one slice id share one spec."""
    by_id: Dict[str, SliceSpec] = {}
    counts: Dict[str, int] = {}
    for spec in requests:
        sid = spec.slice_id
        first = by_id.setdefault(sid, spec)
        if first is not spec and first != spec:
            raise ValueError(f"requests of slice {sid!r} differ in spec")
        counts[sid] = counts.get(sid, 0) + 1
    # one pass over the ledger; sum() adds the powers in ledger order,
    # the order in which the env adds up its slot power
    active: Dict[str, int] = {}
    powers = []
    for deployed in state.chains:
        active[deployed.slice_id] = active.get(deployed.slice_id, 0) + 1
        powers.append(deployed.power)
    base_power = sum(powers)
    midpoints = tuple(sum(dc.power_range) / 2.0 for dc in datacenters)
    remaining = [r.as_tuple() for r in state.remaining]
    # per DC and resource, flattened: what count arithmetic may place
    bounds = tuple(v + _SLACK * max(1.0, v) for r in remaining for v in r)

    # (cheapest delta that fits alone, slice id, table) per slice; the
    # empty split always fits
    slices = []
    for sid, spec in by_id.items():
        table = _options(
            len(midpoints),
            max(min(counts[sid], spec.chain_capacity - active.get(sid, 0)), 0),
            spec.demand.as_tuple(), midpoints, kappa * spec.priority)
        slices.append((next(delta for delta, _, usage in table
                            if all(map(le, usage, bounds))), sid, table))
    slices.sort(key=itemgetter(0))
    # floor[k]: the least that the slices from k on can add
    floor = [0.0] * (len(slices) + 1)
    for k in range(len(slices) - 1, -1, -1):
        floor[k] = floor[k + 1] + slices[k][0]

    # replayed costs differ from count-arithmetic ones by rounding, far
    # below the tolerance
    widest, weight = max(midpoints, default=0.0), abs(kappa)
    tolerance = _SLACK * (1.0 + abs(base_power) + sum(
        counts[sid] * (widest + weight * spec.priority)
        for sid, spec in by_id.items()))
    best = None

    def descend(k: int, cost: float, chosen: tuple, used: tuple) -> None:
        nonlocal best
        if k == len(slices):
            left = {sid: [counts[sid] - sum(split), *split]
                    for (_, sid, _), split in zip(slices, chosen)}
            found = _arrange(requests, left, remaining, base_power, kappa,
                             midpoints)
            if found is not None and (best is None or found < best):
                best = found
            return
        rest = floor[k + 1]
        for delta, split, usage in slices[k][2]:
            approx = cost + delta
            if best is not None and approx + rest > best[0] + tolerance:
                break
            # once the DCs fill most splits miss, so only a fit builds a tuple
            if all(map(le, map(add, used, usage), bounds)):
                descend(k + 1, approx, chosen + (split,),
                        tuple(map(add, used, usage)))

    descend(0, base_power, (), (0.0,) * len(bounds))
    return best[1]


def _arrange(requests: Sequence[SliceSpec], left: Dict[str, List[int]],
             remaining, power: float, kappa: float, midpoints: Sequence[float]):
    """(cost, assignment) for the lexicographically first arrangement of the
    counts ``left[slice_id][option]`` that fits in request order, or None.

    That arrangement is first tried in a straight line: each slice's
    requests take its options in ascending order. Only rounding makes it
    miss; then a search runs, and since a subtree's fit depends only on
    (depth, remaining, counts left), it does not revisit dead subtrees."""
    line = {sid: chain.from_iterable(map(repeat, range(len(counts)), counts))
            for sid, counts in left.items()}
    placed = list(remaining)
    cost, bonus, assignment = power, 0.0, []
    for spec in requests:
        option = next(line[spec.slice_id])
        if option != REJECT:
            cpu, memory, storage = placed[option - 1]
            demand = spec.demand
            if not (cpu >= demand.cpu and memory >= demand.memory
                    and storage >= demand.storage):
                break
            placed[option - 1] = (cpu - demand.cpu, memory - demand.memory,
                                  storage - demand.storage)
            cost += midpoints[option - 1]
            bonus += spec.priority
        assignment.append(option)
    else:
        return cost - kappa * bonus, tuple(assignment)

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
