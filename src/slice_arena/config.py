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
    seeds           "101:120" inclusive range or comma list, default 1:20
    arrival_sweep   comma list of per-slice arrival means, default 2,4,6,8,10,12

Per-datacenter keys (required): cpu, memory, storage, power_low, power_high.

Per-slice keys: priority, cpu, memory, storage, arrival_mean, departure_prob,
profile_arrival_rate, profile_service_rate, delay_budget are required;
chain_capacity is optional and defaults to the dimensioned VNF count of the
slice's traffic profile, tying the slot-level concurrency cap to the
large-timescale sizing step.
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


class ConfigValidationError(ValueError):
    """Structurally valid config with an illegal value; names the field."""

    def __init__(self, field_name: str, message: str) -> None:
        super().__init__(f"{field_name}: {message}")
        self.field_name = field_name


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


_GLOBAL_KEYS = {"kappa", "m_penalty", "horizon", "power_mode", "seeds", "arrival_sweep"}
_DC_KEYS = {"cpu", "memory", "storage", "power_low", "power_high"}
_SLICE_REQUIRED = {"priority", "cpu", "memory", "storage", "arrival_mean", "departure_prob",
                   "profile_arrival_rate", "profile_service_rate", "delay_budget"}
_SLICE_KEYS = _SLICE_REQUIRED | {"chain_capacity"}


@dataclass
class _Section:
    kind: str  # "global", "datacenter", "slice"
    name: str
    line: int
    entries: Dict[str, Tuple[str, int]] = field(default_factory=dict)


def load_config(path: str) -> ScenarioConfig:
    """Parse and validate a scenario config file."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return parse_config(text, source=str(path))


def parse_config(text: str, source: str = "<string>") -> ScenarioConfig:
    sections = _split_sections(text, source)
    globals_sec = sections[0]
    for key, (_, line) in globals_sec.entries.items():
        if key not in _GLOBAL_KEYS:
            raise ConfigParseError(source, line, f"unknown global key {key!r}")

    datacenters: List[DataCenterSpec] = []
    slices: List[SliceSpec] = []
    for sec in sections[1:]:
        if sec.kind == "datacenter":
            datacenters.append(_build_datacenter(sec, source))
        else:
            slices.append(_build_slice(sec, source))

    kwargs = {}
    if "kappa" in globals_sec.entries:
        kwargs["kappa"] = _as_float(globals_sec, "kappa", source)
    if "m_penalty" in globals_sec.entries:
        kwargs["m_penalty"] = _as_float(globals_sec, "m_penalty", source)
    if "horizon" in globals_sec.entries:
        kwargs["horizon"] = _as_int(globals_sec, "horizon", source)
    if "power_mode" in globals_sec.entries:
        kwargs["power_mode"] = globals_sec.entries["power_mode"][0]
    if "seeds" in globals_sec.entries:
        kwargs["seeds"] = _parse_seeds(*globals_sec.entries["seeds"], source)
    if "arrival_sweep" in globals_sec.entries:
        raw, line = globals_sec.entries["arrival_sweep"]
        kwargs["arrival_sweep"] = tuple(
            _parse_number(v, source, line, float) for v in raw.split(","))

    try:
        return ScenarioConfig(datacenters=tuple(datacenters), slices=tuple(slices), **kwargs)
    except ConfigValidationError:
        raise
    except ValueError as exc:
        # nested spec validation (SliceSpec / DataCenterSpec post-init)
        raise ConfigValidationError("scenario", str(exc)) from exc


def _split_sections(text: str, source: str) -> List[_Section]:
    sections = [_Section(kind="global", name="", line=0)]
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
            current = _Section(kind=parts[0], name=parts[1], line=lineno)
            sections.append(current)
            continue
        if "=" not in line:
            raise ConfigParseError(source, lineno, f"expected key = value, got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigParseError(source, lineno, f"expected key = value, got {raw.strip()!r}")
        if key in current.entries:
            raise ConfigParseError(source, lineno, f"duplicate key {key!r}")
        current.entries[key] = (value, lineno)
    return sections


def _build_datacenter(sec: _Section, source: str) -> DataCenterSpec:
    _check_keys(sec, _DC_KEYS, _DC_KEYS, source)
    try:
        return DataCenterSpec(
            dc_id=sec.name,
            capacity=ResourceVector(
                cpu=_as_float(sec, "cpu", source),
                memory=_as_float(sec, "memory", source),
                storage=_as_float(sec, "storage", source),
            ),
            power_range=(_as_float(sec, "power_low", source),
                         _as_float(sec, "power_high", source)),
        )
    except ValueError as exc:
        if isinstance(exc, (ConfigParseError, ConfigValidationError)):
            raise
        raise ConfigValidationError(f"datacenter {sec.name}", str(exc)) from exc


def _build_slice(sec: _Section, source: str) -> SliceSpec:
    _check_keys(sec, _SLICE_KEYS, _SLICE_REQUIRED, source)
    try:
        profile = TrafficProfile(
            mean_arrival_rate=_as_float(sec, "profile_arrival_rate", source),
            mean_service_rate=_as_float(sec, "profile_service_rate", source),
            delay_budget=_as_float(sec, "delay_budget", source),
        )
        if "chain_capacity" in sec.entries:
            capacity = _as_int(sec, "chain_capacity", source)
        else:
            capacity = estimate_vnf_count(profile).vnf_count
        return SliceSpec(
            slice_id=sec.name,
            priority=_as_float(sec, "priority", source),
            demand=ResourceVector(
                cpu=_as_float(sec, "cpu", source),
                memory=_as_float(sec, "memory", source),
                storage=_as_float(sec, "storage", source),
            ),
            profile=profile,
            arrival_mean=_as_float(sec, "arrival_mean", source),
            departure_prob=_as_float(sec, "departure_prob", source),
            chain_capacity=capacity,
        )
    except ValueError as exc:
        if isinstance(exc, (ConfigParseError, ConfigValidationError)):
            raise
        raise ConfigValidationError(f"slice {sec.name}", str(exc)) from exc


def _check_keys(sec: _Section, allowed: set, required: set, source: str) -> None:
    for key, (_, line) in sec.entries.items():
        if key not in allowed:
            raise ConfigParseError(source, line, f"unknown {sec.kind} key {key!r}")
    missing = sorted(required - set(sec.entries))
    if missing:
        raise ConfigValidationError(
            f"{sec.kind} {sec.name}", f"missing required keys: {', '.join(missing)}")


def _as_float(sec: _Section, key: str, source: str) -> float:
    value, line = sec.entries[key]
    return _parse_number(value, source, line, float)


def _as_int(sec: _Section, key: str, source: str) -> int:
    value, line = sec.entries[key]
    return _parse_number(value, source, line, int)


def _parse_number(value: str, source: str, line: int, kind) -> float:
    try:
        number = kind(value.strip())
    except ValueError:
        raise ConfigParseError(source, line, f"expected {kind.__name__}, got {value.strip()!r}") from None
    if not math.isfinite(number):
        raise ConfigParseError(source, line, f"expected a finite number, got {value.strip()!r}")
    return number


def _parse_seeds(raw: str, line: int, source: str) -> Tuple[int, ...]:
    raw = raw.strip()
    if ":" in raw:
        lo_s, hi_s = raw.split(":", 1)
        lo = _parse_number(lo_s, source, line, int)
        hi = _parse_number(hi_s, source, line, int)
        if hi < lo:
            raise ConfigParseError(source, line, f"seed range {raw!r} is empty")
        return tuple(range(lo, hi + 1))
    return tuple(_parse_number(v, source, line, int) for v in raw.split(","))
