"""Scenario configuration: dataclass, file format, validation.

Config files are UTF-8 text with `key = value` lines and `#` comments.
Top-of-file keys are global settings; `[datacenter <id>]` and `[slice <id>]`
sections declare the cluster and the services. Unknown keys and unknown
section kinds are hard errors so typos cannot silently fall back to
defaults.

Global keys (all optional):
    kappa           admission-vs-power design factor, default 100
    m_penalty       infeasible-placement penalty, default 1000
    horizon         slots per episode, default 200
    power_mode      "utilization" (default) or "always_on"
    seeds           "101:120" inclusive range or comma list, default 1:20;
                    seeds must be distinct and >= 0, one episode each
    arrival_sweep   comma list of per-slice arrival means, default 2,4,6,8,10,12

Per-datacenter keys (required): cpu, memory, storage, power_low, power_high.

Per-slice keys: priority, cpu, memory, storage, arrival_mean, departure_prob,
profile_arrival_rate, profile_service_rate, delay_budget are required;
chain_capacity is optional and defaults to the dimensioned VNF count of the
slice's traffic profile, tying the slot-level concurrency cap to the
large-timescale sizing step.

Every number must be finite; horizon, chain_capacity and the seeds are
ints. One table, _KEYS, lists each section kind's keys with their parsers.
Sections are read top to bottom and each section's lines in order, so the
first malformed line is the one reported.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .dimensioning import TrafficProfile, estimate_vnf_count
from .env import DataCenterSpec, ResourceVector, SliceSpec

POWER_MODES = ("utilization", "always_on")


class ConfigParseError(ValueError):
    """Malformed config text; carries the offending line number."""

    def __init__(self, path: str, line: int, message: str) -> None:
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line
        self.message = message

    def __reduce__(self):  # rebuilt from its own arguments, not from args
        return type(self), (self.path, self.line, self.message)


class ConfigValidationError(ValueError):
    """Structurally valid config with an illegal value; names the field."""

    def __init__(self, field_name: str, message: str) -> None:
        super().__init__(f"{field_name}: {message}")
        self.field_name = field_name
        self.message = message

    def __reduce__(self):  # rebuilt from its own arguments, not from args
        return type(self), (self.field_name, self.message)


@dataclass(frozen=True)
class ScenarioConfig:
    datacenters: Tuple[DataCenterSpec, ...]
    slices: Tuple[SliceSpec, ...]
    kappa: float = 100.0
    m_penalty: float = 1000.0
    horizon: int = 200
    power_mode: str = "utilization"
    seeds: Tuple[int, ...] = tuple(range(1, 21))
    arrival_sweep: Tuple[float, ...] = (2.0, 4.0, 6.0, 8.0, 10.0, 12.0)

    def __post_init__(self) -> None:
        if not self.datacenters:
            raise ConfigValidationError("datacenters", "at least one data center is required")
        if not self.slices:
            raise ConfigValidationError("slices", "at least one slice is required")
        if self.kappa <= 0.0:
            raise ConfigValidationError("kappa", f"must be positive, got {self.kappa!r}")
        if self.m_penalty <= 0.0:
            raise ConfigValidationError("m_penalty", f"must be positive, got {self.m_penalty!r}")
        if self.horizon < 1:
            raise ConfigValidationError("horizon", f"must be >= 1, got {self.horizon!r}")
        if self.power_mode not in POWER_MODES:
            raise ConfigValidationError(
                "power_mode", f"must be one of {POWER_MODES}, got {self.power_mode!r}")
        if not self.seeds:
            raise ConfigValidationError("seeds", "at least one seed is required")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigValidationError("seeds", f"a seed is repeated in {self.seeds!r}")
        if min(self.seeds) < 0:
            raise ConfigValidationError("seeds", f"seeds must be >= 0, got {min(self.seeds)!r}")
        if not self.arrival_sweep:
            raise ConfigValidationError("arrival_sweep", "at least one arrival mean is required")
        if not all(math.isfinite(a) and a > 0.0 for a in self.arrival_sweep):
            raise ConfigValidationError(
                "arrival_sweep", "arrival means must be finite and positive")
        ids = [dc.dc_id for dc in self.datacenters]
        if len(set(ids)) != len(ids):
            raise ConfigValidationError("datacenters", f"duplicate data center ids in {ids}")
        ids = [s.slice_id for s in self.slices]
        if len(set(ids)) != len(ids):
            raise ConfigValidationError("slices", f"duplicate slice ids in {ids}")


def _number(kind):
    """The parser of one finite float or int, which names the text it got."""
    def parse(raw: str):
        raw = raw.strip()
        try:
            number = kind(raw)
        except ValueError:
            raise ValueError(f"expected {kind.__name__}, got {raw!r}") from None
        if not math.isfinite(number):
            raise ValueError(f"expected a finite number, got {raw!r}")
        return number
    return parse


_FLOAT, _INT = _number(float), _number(int)


def _seeds(raw: str) -> Tuple[int, ...]:
    if ":" not in raw:
        return tuple(map(_INT, raw.split(",")))
    lo, hi = map(_INT, raw.split(":", 1))
    if hi < lo:
        raise ValueError(f"seed range {raw!r} is empty")
    return tuple(range(lo, hi + 1))


# every key of each section kind, with its parser; the global keys are
# ScenarioConfig's own fields and, with chain_capacity, the optional ones
_KEYS = {
    "global": {"kappa": _FLOAT, "m_penalty": _FLOAT, "horizon": _INT,
               "power_mode": str, "seeds": _seeds,
               "arrival_sweep": lambda raw: tuple(map(_FLOAT, raw.split(",")))},
    "datacenter": dict.fromkeys(
        ("cpu", "memory", "storage", "power_low", "power_high"), _FLOAT),
    "slice": {**dict.fromkeys(
        ("priority", "cpu", "memory", "storage", "arrival_mean", "departure_prob",
         "profile_arrival_rate", "profile_service_rate", "delay_budget"), _FLOAT),
              "chain_capacity": _INT},
}
_OPTIONAL = {*_KEYS["global"], "chain_capacity"}


@dataclass
class _Section:
    kind: str  # "global", "datacenter", "slice"
    name: str
    entries: Dict[str, Tuple[str, int]] = field(default_factory=dict)


def load_config(path: str) -> ScenarioConfig:
    """Parse and validate a scenario config file."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return parse_config(text, source=str(path))


def parse_config(text: str, source: str = "<string>") -> ScenarioConfig:
    globals_sec, *sections = _split_sections(text, source)
    settings = _values(globals_sec, source)
    datacenters: List[DataCenterSpec] = []
    slices: List[SliceSpec] = []
    for sec in sections:
        v = _values(sec, source)
        try:
            if sec.kind == "datacenter":
                datacenters.append(DataCenterSpec(
                    dc_id=sec.name,
                    capacity=ResourceVector(v["cpu"], v["memory"], v["storage"]),
                    power_range=(v["power_low"], v["power_high"])))
                continue
            profile = TrafficProfile(mean_arrival_rate=v["profile_arrival_rate"],
                                     mean_service_rate=v["profile_service_rate"],
                                     delay_budget=v["delay_budget"])
            if "chain_capacity" not in v:
                v["chain_capacity"] = estimate_vnf_count(profile).vnf_count
            slices.append(SliceSpec(
                slice_id=sec.name, priority=v["priority"],
                demand=ResourceVector(v["cpu"], v["memory"], v["storage"]),
                profile=profile, arrival_mean=v["arrival_mean"],
                departure_prob=v["departure_prob"],
                chain_capacity=v["chain_capacity"]))
        except ValueError as exc:  # the spec's own validation
            raise ConfigValidationError(f"{sec.kind} {sec.name}", str(exc)) from exc
    return ScenarioConfig(datacenters=tuple(datacenters), slices=tuple(slices),
                          **settings)


def _values(sec: _Section, source: str) -> Dict[str, object]:
    """The section's parsed values by key, walked in file order: an unknown
    key or a bad value raises at its line, then any missing required key."""
    parsers = _KEYS[sec.kind]
    values = {}
    for key, (raw, line) in sec.entries.items():
        if key not in parsers:
            raise ConfigParseError(source, line, f"unknown {sec.kind} key {key!r}")
        try:
            values[key] = parsers[key](raw)
        except ValueError as exc:
            raise ConfigParseError(source, line, str(exc)) from None
    missing = sorted(parsers.keys() - _OPTIONAL - values.keys())
    if missing:
        raise ConfigValidationError(
            f"{sec.kind} {sec.name}", f"missing required keys: {', '.join(missing)}")
    return values


def _split_sections(text: str, source: str) -> List[_Section]:
    sections = [_Section(kind="global", name="")]
    current = sections[0]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigParseError(source, lineno, f"unterminated section header {raw.strip()!r}")
            parts = line[1:-1].split()
            if len(parts) != 2 or parts[0] not in ("datacenter", "slice"):
                raise ConfigParseError(
                    source, lineno,
                    f"section header must be [datacenter <id>] or [slice <id>], got {raw.strip()!r}")
            current = _Section(kind=parts[0], name=parts[1])
            sections.append(current)
            continue
        if "=" not in line:
            raise ConfigParseError(source, lineno, f"expected key = value, got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigParseError(source, lineno, f"expected key = value, got {raw.strip()!r}")
        if key in current.entries:
            raise ConfigParseError(source, lineno, f"duplicate key {key!r}")
        current.entries[key] = (value, lineno)
    return sections
