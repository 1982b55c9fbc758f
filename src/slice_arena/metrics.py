"""Run records, aggregate metrics, and the CSV contract.

One EpisodeRecord captures everything reportable about one seeded episode:
the true per-slot log from the environment, which model served each slot,
and how many decisions per slot the adversary forged. Aggregation reduces
records to RunMetrics; write_metrics emits the two CSV artifacts.

metrics.csv rows are per (episode, slot, slice). Admission counters are
per-slice; power, normalized power, and reward are slot-level and repeated
on each of the slot's slice rows; model_index is the serving member
(-1 for policy-free scenarios) and attacked counts the slot's forged
decision steps. Normalized power divides by the deployment's theoretical
ceiling: every deployable chain at the priciest power cap.

Files are UTF-8 with LF endings; floats carry at most six fractional
digits with trailing zeros trimmed, so identical runs produce identical
bytes.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .config import ScenarioConfig
from .env import SlotRecord

METRICS_HEADER = ("scenario", "seed", "slot", "slice_id", "arrived", "admitted",
                  "rejected", "infeasible", "power", "normalized_power",
                  "reward", "model_index", "attacked")


@dataclass
class EpisodeRecord:
    """One seeded episode of one scenario, ready for reporting."""

    scenario: str
    seed: int
    slot_log: List[SlotRecord]
    model_index: int = -1
    member_by_slot: Optional[Dict[int, int]] = None
    attacked_by_slot: Dict[int, int] = field(default_factory=dict)

    def serving_member(self, slot: int) -> int:
        if self.member_by_slot is not None and slot in self.member_by_slot:
            return self.member_by_slot[slot]
        return self.model_index


@dataclass(frozen=True)
class RunMetrics:
    """Aggregate over one or more episodes."""

    admission_rate: float
    admission_by_slice: Mapping[str, float]
    mean_power: float
    mean_normalized_power: float
    mean_slot_reward: float
    attacked_fraction: float
    arrived: int
    admitted: int
    rejected: int
    infeasible: int

    def validate(self) -> None:
        rates = [self.admission_rate, *self.admission_by_slice.values(),
                 self.mean_normalized_power, self.attacked_fraction]
        for value in rates:
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"rate {value!r} outside [0, 1]")
        if self.arrived != self.admitted + self.rejected + self.infeasible:
            raise ValueError(
                f"accounting identity violated: {self.arrived} arrived != "
                f"{self.admitted} + {self.rejected} + {self.infeasible}")


def power_scale(scenario: ScenarioConfig) -> float:
    """Theoretical power ceiling: all deployable chains at the top price."""
    top = max(hi for _, hi in (dc.power_range for dc in scenario.datacenters))
    return top * sum(s.chain_capacity for s in scenario.slices)


def aggregate(records: Sequence[EpisodeRecord],
              scenario: ScenarioConfig) -> RunMetrics:
    """Reduce episode records to one RunMetrics (rates over all slots)."""
    scale = power_scale(scenario)
    arrived = {s.slice_id: 0 for s in scenario.slices}
    admitted = dict(arrived)
    rejected = dict(arrived)
    infeasible = dict(arrived)
    power_sum = 0.0
    reward_sum = 0.0
    slots = 0
    decisions = 0
    attacked = 0
    for record in records:
        for slot_record in record.slot_log:
            slots += 1
            power_sum += slot_record.power
            reward_sum += slot_record.reward
            decisions += slot_record.decisions
            for sid, stats in slot_record.per_slice.items():
                arrived[sid] += stats.arrived
                admitted[sid] += stats.admitted
                rejected[sid] += stats.rejected
                infeasible[sid] += stats.infeasible
        attacked += sum(record.attacked_by_slot.values())

    def rate(num: int, den: int) -> float:
        return num / den if den else 0.0

    total_arrived = sum(arrived.values())
    metrics = RunMetrics(
        admission_rate=rate(sum(admitted.values()), total_arrived),
        admission_by_slice={sid: rate(admitted[sid], arrived[sid])
                            for sid in arrived},
        mean_power=power_sum / slots if slots else 0.0,
        mean_normalized_power=(power_sum / slots / scale) if slots else 0.0,
        mean_slot_reward=reward_sum / slots if slots else 0.0,
        attacked_fraction=rate(attacked, decisions),
        arrived=total_arrived,
        admitted=sum(admitted.values()),
        rejected=sum(rejected.values()),
        infeasible=sum(infeasible.values()),
    )
    metrics.validate()
    return metrics


def format_value(value) -> str:
    """CSV cell: integers plain, floats with <= 6 trimmed fractional digits."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite metric value {value!r}")
        text = f"{value:.6f}".rstrip("0").rstrip(".")
        return "0" if text in ("-0", "") else text
    return str(value)


def write_metrics(records: Sequence[EpisodeRecord], out_dir,
                  scenario: ScenarioConfig) -> Tuple[Path, Path]:
    """Write metrics.csv (per slot x slice) and summary.csv (per scenario).

    Returns the two paths. Row order is deterministic: records in the given
    order, slots ascending, slices in scenario order.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    scale = power_scale(scenario)
    slice_ids = [s.slice_id for s in scenario.slices]

    metrics_path = out / "metrics.csv"
    with open(metrics_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(METRICS_HEADER)
        for record in records:
            for slot_record in record.slot_log:
                slot = slot_record.slot
                # the slot-level cells, formatted once for all its slice rows
                slot_cells = (format_value(slot_record.power),
                              format_value(slot_record.power / scale),
                              format_value(slot_record.reward),
                              record.serving_member(slot),
                              record.attacked_by_slot.get(slot, 0))
                for sid in slice_ids:
                    stats = slot_record.per_slice.get(sid)
                    if stats is None:
                        continue
                    writer.writerow((record.scenario, record.seed, slot, sid,
                                     stats.arrived, stats.admitted,
                                     stats.rejected, stats.infeasible,
                                     *slot_cells))

    summary_path = out / "summary.csv"
    write_summary(records, summary_path, scenario)
    return metrics_path, summary_path


def _sample_std(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    mean = sum(values) / len(values)
    return math.sqrt(sum((v - mean) ** 2 for v in values) / (len(values) - 1))


def write_summary(records: Sequence[EpisodeRecord], path,
                  scenario: ScenarioConfig) -> Path:
    """One row per scenario name: mean and sample std across seeds."""
    slice_ids = [s.slice_id for s in scenario.slices]
    header = ["scenario", "seeds", "admission_rate_mean", "admission_rate_std"]
    for sid in slice_ids:
        header.append(f"admission_rate_{sid}_mean")
    header += ["normalized_power_mean", "normalized_power_std",
               "slot_reward_mean", "slot_reward_std", "attacked_fraction_mean"]

    by_scenario: Dict[str, Dict[int, List[EpisodeRecord]]] = {}
    order: List[str] = []
    for record in records:
        if record.scenario not in by_scenario:
            by_scenario[record.scenario] = {}
            order.append(record.scenario)
        by_scenario[record.scenario].setdefault(record.seed, []).append(record)

    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for name in order:
            per_seed = [aggregate(recs, scenario)
                        for _, recs in sorted(by_scenario[name].items())]
            row = [name, len(per_seed)]
            admissions = [m.admission_rate for m in per_seed]
            row += [format_value(_mean(admissions)),
                    format_value(_sample_std(admissions))]
            for sid in slice_ids:
                row.append(format_value(
                    _mean([m.admission_by_slice.get(sid, 0.0) for m in per_seed])))
            powers = [m.mean_normalized_power for m in per_seed]
            rewards = [m.mean_slot_reward for m in per_seed]
            row += [format_value(_mean(powers)), format_value(_sample_std(powers)),
                    format_value(_mean(rewards)), format_value(_sample_std(rewards)),
                    format_value(_mean([m.attacked_fraction for m in per_seed]))]
            writer.writerow(row)
    return path


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0
