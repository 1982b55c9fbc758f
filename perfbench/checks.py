"""Output checks for the benchmark, computed apart from the program.

Every check here reads what the program wrote (metrics.csv, summary.csv,
checkpoint text) or what it returned, and tests a property that must hold
whatever the trained policies do: accounting identities, the reward
formula, bounds, statistical agreement with the configured arrival and
attack processes, and agreement with brute-force or textbook references.
None of them compares against numbers recorded from an earlier run.

Each check returns a list of error strings (empty when it passes); the
CSV checks return them keyed by scenario label, so a failure can be
charged to the operation that produced the rows.
"""
from __future__ import annotations

import csv
import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

METRICS_COLUMNS = ("scenario", "seed", "slot", "slice_id", "arrived",
                   "admitted", "rejected", "infeasible", "power",
                   "normalized_power", "reward", "model_index", "attacked")
# CSV floats carry six fractional digits, so each cell is off by <= 5e-7
CELL = 5e-7
SIGMAS = 5.0


@dataclass(frozen=True)
class Facts:
    """What the checks need to know about the scenario, taken from the
    loaded config: the reward constants, the slices and the DC power caps."""

    kappa: float
    m_penalty: float
    priority: Mapping[str, float]
    chain_capacity: Mapping[str, int]
    top_power: float

    @property
    def slice_ids(self) -> Tuple[str, ...]:
        return tuple(self.priority)

    @property
    def ceiling(self) -> float:
        """Power with every deployable chain at the top price."""
        return self.top_power * sum(self.chain_capacity.values())

    @classmethod
    def from_config(cls, config) -> "Facts":
        return cls(kappa=float(config.kappa),
                   m_penalty=float(config.m_penalty),
                   priority={s.slice_id: float(s.priority)
                             for s in config.slices},
                   chain_capacity={s.slice_id: int(s.chain_capacity)
                                   for s in config.slices},
                   top_power=max(float(dc.power_range[1])
                                 for dc in config.datacenters))


# ------------------------------------------------------------- reading CSVs

def read_metrics(path) -> List[dict]:
    """metrics.csv rows with typed fields; raises ValueError on a bad
    header or an unparsable cell."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != METRICS_COLUMNS:
            raise ValueError(f"metrics.csv header {header} != {METRICS_COLUMNS}")
        rows = []
        for line in reader:
            row = dict(zip(header, line))
            for key in ("seed", "slot", "arrived", "admitted", "rejected",
                        "infeasible", "model_index", "attacked"):
                row[key] = int(row[key])
            for key in ("power", "normalized_power", "reward"):
                row[key] = float(row[key])
            rows.append(row)
    return rows


def read_summary(path) -> List[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _slots(rows: Sequence[dict]) -> Dict[Tuple[str, int, int], List[dict]]:
    """Rows grouped by (scenario, seed, slot), in file order."""
    grouped: Dict[Tuple[str, int, int], List[dict]] = {}
    for row in rows:
        grouped.setdefault((row["scenario"], row["seed"], row["slot"]),
                           []).append(row)
    return grouped


def _near(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol


# ------------------------------------------------------------ per-row rules

def row_errors(rows: Sequence[dict], facts: Facts) -> Dict[str, List[str]]:
    """Accounting, reward formula, power bounds and normalization, per slot."""
    errors: Dict[str, List[str]] = defaultdict(list)
    ceiling = facts.ceiling
    for (label, seed, slot), group in _slots(rows).items():
        where = f"{label} seed {seed} slot {slot}"
        first = group[0]
        unknown = {r["slice_id"] for r in group} - set(facts.priority)
        if unknown:
            errors[label].append(f"{where}: unknown slices {sorted(unknown)}")
            continue
        for row in group:
            if min(row["arrived"], row["admitted"], row["rejected"],
                   row["infeasible"]) < 0:
                errors[label].append(f"{where}: negative count")
            if row["arrived"] != row["admitted"] + row["rejected"] + row["infeasible"]:
                errors[label].append(
                    f"{where} {row['slice_id']}: arrived {row['arrived']} != "
                    f"{row['admitted']} + {row['rejected']} + {row['infeasible']}")
            for key in ("power", "normalized_power", "reward", "model_index",
                        "attacked"):
                if row[key] != first[key]:
                    errors[label].append(f"{where}: slot-level {key} differs "
                                         "between slice rows")
        power, reward = first["power"], first["reward"]
        bonus = sum(facts.priority[r["slice_id"]] * r["admitted"]
                    for r in group)
        penalty = facts.m_penalty * sum(r["infeasible"] for r in group)
        want = -(power - facts.kappa * bonus) - penalty
        scale = abs(power) + facts.kappa * bonus + penalty
        if not _near(reward, want, 2 * CELL + 1e-12 * scale):
            errors[label].append(
                f"{where}: reward {reward} != -(power - kappa*bonus) - "
                f"m_penalty*infeasible = {want}")
        if not -CELL <= power <= ceiling + CELL:
            errors[label].append(
                f"{where}: power {power} outside [0, {ceiling}]")
        norm = first["normalized_power"]
        if not _near(norm, power / ceiling, CELL + CELL / ceiling + 1e-12):
            errors[label].append(
                f"{where}: normalized power {norm} != {power} / {ceiling}")
        if first["attacked"] < 0 or first["attacked"] > sum(
                r["arrived"] for r in group):
            errors[label].append(
                f"{where}: attacked {first['attacked']} exceeds decisions")
    return errors


# ------------------------------------------------------------ summary.csv

def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _std(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    mean = _mean(values)
    return math.sqrt(sum((v - mean) ** 2 for v in values) / (len(values) - 1))


def recompute_summary(rows: Sequence[dict], facts: Facts) -> Dict[str, Dict[str, float]]:
    """summary.csv's figures rebuilt from metrics.csv rows alone."""
    per_seed: Dict[str, Dict[int, dict]] = {}
    for (label, seed, _slot), group in _slots(rows).items():
        acc = per_seed.setdefault(label, {}).setdefault(seed, {
            "arrived": defaultdict(int), "admitted": defaultdict(int),
            "slots": 0, "power": 0.0, "reward": 0.0, "decisions": 0,
            "attacked": 0})
        acc["slots"] += 1
        acc["power"] += group[0]["power"]
        acc["reward"] += group[0]["reward"]
        acc["attacked"] += group[0]["attacked"]
        for row in group:
            acc["arrived"][row["slice_id"]] += row["arrived"]
            acc["admitted"][row["slice_id"]] += row["admitted"]
            acc["decisions"] += row["arrived"]

    def rate(num, den):
        return num / den if den else 0.0

    out: Dict[str, Dict[str, float]] = {}
    for label, seeds in per_seed.items():
        accs = [seeds[s] for s in sorted(seeds)]
        admission = [rate(sum(a["admitted"].values()), sum(a["arrived"].values()))
                     for a in accs]
        power = [a["power"] / a["slots"] / facts.ceiling for a in accs]
        reward = [a["reward"] / a["slots"] for a in accs]
        figures = {
            "seeds": float(len(accs)),
            "admission_rate_mean": _mean(admission),
            "admission_rate_std": _std(admission),
            "normalized_power_mean": _mean(power),
            "normalized_power_std": _std(power),
            "slot_reward_mean": _mean(reward),
            "slot_reward_std": _std(reward),
            "attacked_fraction_mean": _mean(
                [rate(a["attacked"], a["decisions"]) for a in accs]),
        }
        for sid in facts.slice_ids:
            figures[f"admission_rate_{sid}_mean"] = _mean(
                [rate(a["admitted"][sid], a["arrived"][sid]) for a in accs])
        out[label] = figures
    return out


def summary_errors(rows: Sequence[dict], summary: Sequence[dict],
                   facts: Facts) -> Dict[str, List[str]]:
    """Every summary.csv figure equals its recomputation from metrics.csv,
    within what six-digit rounding of both files allows."""
    errors: Dict[str, List[str]] = defaultdict(list)
    want = recompute_summary(rows, facts)
    seen = set()
    for row in summary:
        label = row.get("scenario")
        seen.add(label)
        if label not in want:
            errors[label].append(f"summary row for {label!r} has no metrics rows")
            continue
        for key, value in want[label].items():
            if key not in row:
                errors[label].append(f"summary.csv lacks column {key}")
                continue
            got = float(row[key])
            # std of rounded inputs can drift by a few cells; sums of
            # ~1e6-sized rewards carry relative float error on top
            if not _near(got, value, 4 * CELL + 1e-9 * abs(value)):
                errors[label].append(
                    f"summary {label} {key} = {got}, recomputed {value}")
    for label in want:
        if label not in seen:
            errors[label].append(f"summary.csv has no row for {label!r}")
    return errors


# ------------------------------------------------- traffic and attack rules

def arrival_errors(rows: Sequence[dict], means: Mapping[str, Mapping[str, float]],
                   ) -> Dict[str, List[str]]:
    """Mean arrivals per slice within a 5-sigma Poisson bound of the
    configured mean. `means` maps scenario label -> slice -> mean."""
    errors: Dict[str, List[str]] = defaultdict(list)
    counts: Dict[Tuple[str, str], List[int]] = defaultdict(list)
    for row in rows:
        counts[(row["scenario"], row["slice_id"])].append(row["arrived"])
    for label, by_slice in means.items():
        for sid, mean in by_slice.items():
            values = counts.get((label, sid), [])
            if not values:
                errors[label].append(f"{label}: no rows for slice {sid}")
                continue
            bound = SIGMAS * math.sqrt(mean / len(values))
            got = _mean(values)
            if abs(got - mean) > bound:
                errors[label].append(
                    f"{label} {sid}: mean arrivals {got:.4f} outside "
                    f"{mean} +- {bound:.4f} over {len(values)} slots")
    return errors


def same_traffic_errors(rows: Sequence[dict], labels: Sequence[str],
                        ) -> Dict[str, List[str]]:
    """Arrivals per (seed, slot, slice) are identical across the labels;
    a label that differs from the first is charged."""
    by_label: Dict[str, Dict[tuple, int]] = {label: {} for label in labels}
    for row in rows:
        if row["scenario"] in by_label:
            key = (row["seed"], row["slot"], row["slice_id"])
            by_label[row["scenario"]][key] = row["arrived"]
    errors: Dict[str, List[str]] = defaultdict(list)
    reference = by_label[labels[0]]
    for label in labels[1:]:
        if by_label[label] != reference:
            differing = sum(1 for k in set(reference) | set(by_label[label])
                            if reference.get(k) != by_label[label].get(k))
            errors[label].append(
                f"{label}: arrivals differ from {labels[0]} on {differing} "
                "(seed, slot, slice) cells")
    return errors


def attack_errors(rows: Sequence[dict], probability: Mapping[str, float],
                  ) -> Dict[str, List[str]]:
    """Share of forged decisions within a 5-sigma binomial bound of the
    attack probability (exactly 0 where the probability is 0)."""
    errors: Dict[str, List[str]] = defaultdict(list)
    attacked: Dict[str, int] = defaultdict(int)
    decisions: Dict[str, int] = defaultdict(int)
    for (label, _seed, _slot), group in _slots(rows).items():
        attacked[label] += group[0]["attacked"]
        decisions[label] += sum(r["arrived"] for r in group)
    for label, p in probability.items():
        n = decisions[label]
        if n == 0:
            errors[label].append(f"{label}: no decisions")
            continue
        share = attacked[label] / n
        bound = SIGMAS * math.sqrt(p * (1.0 - p) / n)
        if abs(share - p) > bound:
            errors[label].append(
                f"{label}: attacked share {share:.5f} outside {p} +- "
                f"{bound:.5f} over {n} decisions")
    return errors


def member_errors(rows: Sequence[dict], label: str, members: int,
                  ) -> Dict[str, List[str]]:
    """Each ensemble member serves a share of the served slots within a
    5-sigma binomial bound of 1/members."""
    served: Dict[int, int] = defaultdict(int)
    for (row_label, _seed, _slot), group in _slots(rows).items():
        if row_label == label and group[0]["model_index"] >= 0:
            served[group[0]["model_index"]] += 1
    n = sum(served.values())
    errors: List[str] = []
    if n == 0:
        errors.append(f"{label}: no slot names a serving member")
    elif set(served) - set(range(members)):
        errors.append(f"{label}: members {sorted(served)} outside 0..{members - 1}")
    else:
        p = 1.0 / members
        bound = SIGMAS * math.sqrt(p * (1.0 - p) / n)
        for member in range(members):
            share = served[member] / n
            if abs(share - p) > bound:
                errors.append(f"{label}: member {member} serves {share:.4f} of "
                              f"{n} slots, outside {p} +- {bound:.4f}")
    return {label: errors} if errors else {}


def infeasible_errors(rows: Sequence[dict], labels: Sequence[str],
                      ) -> Dict[str, List[str]]:
    errors: Dict[str, List[str]] = defaultdict(list)
    for row in rows:
        if row["scenario"] in labels and row["infeasible"]:
            errors[row["scenario"]].append(
                f"{row['scenario']} seed {row['seed']} slot {row['slot']}: "
                f"{row['infeasible']} infeasible attempts")
    return errors


# ------------------------------------------------------ reference oracles

@dataclass(frozen=True)
class SlotInstance:
    """One slot's decision problem, in plain numbers.

    remaining: per DC (cpu, memory, storage); demand/priority/capacity per
    request (in decision order); active: chains already deployed per
    slice; midpoint: expected power of one admission per DC; base_power:
    power of the chains already deployed.
    """

    remaining: Tuple[Tuple[float, float, float], ...]
    requests: Tuple[str, ...]
    demand: Mapping[str, Tuple[float, float, float]]
    priority: Mapping[str, float]
    capacity: Mapping[str, int]
    active: Mapping[str, int]
    midpoint: Tuple[float, ...]
    base_power: float
    kappa: float


def brute_force_cost(instance: SlotInstance, assignment: Sequence[int]):
    """Slot cost of a joint assignment (0 = reject, d = DC d), or None when
    some placement does not fit, checked cumulatively in request order."""
    remaining = [list(r) for r in instance.remaining]
    active = dict(instance.active)
    power = instance.base_power
    bonus = 0.0
    for choice, sid in zip(assignment, instance.requests):
        if choice == 0:
            continue
        dc = remaining[choice - 1]
        need = instance.demand[sid]
        if active[sid] >= instance.capacity[sid]:
            return None
        if any(have < want for have, want in zip(dc, need)):
            return None
        for k in range(3):
            dc[k] -= need[k]
        active[sid] += 1
        power += instance.midpoint[choice - 1]
        bonus += instance.priority[sid]
    return power - instance.kappa * bonus


def brute_force_optimum(instance: SlotInstance) -> Tuple[Tuple[int, ...], float]:
    """Minimum-cost assignment; ties go to the lexicographically smallest."""
    best, best_cost = None, math.inf
    choices = range(len(instance.remaining) + 1)
    for assignment in itertools.product(choices, repeat=len(instance.requests)):
        cost = brute_force_cost(instance, assignment)
        if cost is None:
            continue
        if best is None or cost < best_cost - 1e-9 * max(1.0, abs(best_cost)):
            best, best_cost = assignment, cost
    return best, best_cost


def oracle_errors(instances: Sequence[SlotInstance],
                  decisions: Sequence[Sequence[int]]) -> List[str]:
    """The program's decision on each instance equals the brute-force
    optimum, tie rule included."""
    errors = []
    for index, (instance, decision) in enumerate(zip(instances, decisions)):
        want, cost = brute_force_optimum(instance)
        got = tuple(int(c) for c in decision)
        if got != want:
            errors.append(
                f"instance {index} ({len(instance.requests)} requests): oracle "
                f"chose {got} (cost {brute_force_cost(instance, got)}), brute "
                f"force {want} (cost {cost})")
    return errors


def gae_reference(rewards, values, dones, bootstrap, discount, lam):
    """Generalized advantage estimation as the textbook backward recursion:
    A_t = d_t + discount*lam*(1 - done_t)*A_{t+1},
    d_t = r_t + discount*(1 - done_t)*V_{t+1} - V_t, V_T = bootstrap."""
    advantages = [0.0] * len(rewards)
    running = 0.0
    next_value = bootstrap
    for t in range(len(rewards) - 1, -1, -1):
        keep = 0.0 if dones[t] else 1.0
        delta = rewards[t] + discount * keep * next_value - values[t]
        running = delta + discount * lam * keep * running
        advantages[t] = running
        next_value = values[t]
    return advantages, [a + v for a, v in zip(advantages, values)]


def gae_errors(got_advantages, got_returns, rewards, values, dones, bootstrap,
               discount, lam) -> List[str]:
    want_adv, want_ret = gae_reference(rewards, values, dones, bootstrap,
                                       discount, lam)
    errors = []
    for name, got, want in (("advantage", got_advantages, want_adv),
                            ("return", got_returns, want_ret)):
        for t, (g, w) in enumerate(zip(got, want)):
            if not _near(float(g), w, 1e-9 * max(1.0, abs(w))):
                errors.append(f"GAE {name}[{t}] = {g}, reference {w}")
                break
        if len(got) != len(want):
            errors.append(f"GAE {name} length {len(got)} != {len(want)}")
    return errors


# ----------------------------------------------------------- checkpoints

def checkpoint_errors(path) -> List[str]:
    """The checkpoint text holds a layer chain and exactly that many
    finite parameters (actor and critic stacks)."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if len(lines) < 4:
        return [f"{path}: truncated"]
    try:
        dims = [int(v) for v in lines[2].split()]
        values = [float(v) for v in lines[3:] if v]
    except ValueError as exc:
        return [f"{path}: {exc}"]
    critic = dims[:-1] + [1]
    want = sum(dims[i + 1] * (dims[i] + 1) for i in range(len(dims) - 1)) \
        + sum(critic[i + 1] * (critic[i] + 1) for i in range(len(critic) - 1))
    errors = []
    if len(values) != want:
        errors.append(f"{path}: {len(values)} parameters, dims {dims} need {want}")
    bad = sum(1 for v in values if not math.isfinite(v))
    if bad:
        errors.append(f"{path}: {bad} non-finite parameters")
    return errors


def improvement_errors(label: str, trained: Sequence[float],
                       initial: Sequence[float]) -> List[str]:
    """Trained episode return beats the untrained policy's on every
    held-out seed."""
    return [f"{label}: held-out seed {i} return {t:.1f} does not beat the "
            f"initial policy's {u:.1f}"
            for i, (t, u) in enumerate(zip(trained, initial)) if not t > u]
