"""Moving-target defense: a shuffled ensemble of admission policies.

K policies are trained independently under deliberately different
configurations (network width, minibatch size, discount, learning rate).
At serving time one member is drawn uniformly per time slot, so an attacker
who poisoned one model's training cannot know whether its target is the one
currently deciding. Clean-trained members must land within 10% of the best
member's clean admission rate (the serving set is meant to be
interchangeable); the poisoned member is exempt, since its degradation is
the point of the experiment.

Member selection is keyed by (selection_seed, global slot index), so a
serving schedule is reproducible and independent of every environment
stream. The ensemble round-trips through a plain-text manifest next to one
checkpoint file per member.

Greedy evaluation runs one episode per caller-given seed, all through
env.run_episodes. Per lockstep step it copies the live observations into
one buffer allocated per evaluation, a block of rows per serving member,
and makes one policy.greedy_actions call per block: the argmax of the
actor's logits, with no softmax. A single policy is a one-member ensemble.
It returns the records, unaggregated; every environment keeps its own
seeded streams, so they are those of running the seeds one by one.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .adversary import AttackConfig, PoisonedEnv
from .config import ScenarioConfig
from .env import SliceEnv, run_episodes
from .metrics import EpisodeRecord, aggregate
# policy_forward stays importable here: the per-layer tracer wraps it
from .policy import (MlpParameters, greedy_actions, load_checkpoint,
                     policy_forward, save_checkpoint)
from .ppo import PpoConfig, train

ENSEMBLE_MAGIC = "SLICE-ARENA-ENSEMBLE v1"

_STREAM_TARGET = 31
_DEFAULT_GATE_SEEDS = tuple(range(900_001, 900_007))


class MemberQualityError(RuntimeError):
    """A clean-trained member fell below the ensemble quality gate."""

    def __init__(self, member_index: int, admission: float, floor: float) -> None:
        self.member_index = member_index
        self.admission = admission
        self.floor = floor
        super().__init__(
            f"member {member_index} admission rate {admission:.4f} below the "
            f"quality floor {floor:.4f}")

    def __reduce__(self):  # rebuilt from its own arguments, not from args
        return type(self), (self.member_index, self.admission, self.floor)


class EnsembleManifestError(ValueError):
    """Ensemble manifest file malformed or inconsistent."""


@dataclass
class EnsembleSpec:
    """Trained members plus the serving-time selection seed.

    attacked_member is -1 for a clean-trained ensemble; otherwise it names
    the member whose training environment was poisoned.
    """

    member_configs: List[PpoConfig]
    parameters: List[MlpParameters]
    selection_seed: int = 0
    attacked_member: int = -1
    clean_admission: Tuple[float, ...] = ()
    training_attacked_steps: Tuple[int, ...] = ()

    def __len__(self) -> int:
        return len(self.member_configs)

    def validate(self) -> None:
        if len(self.member_configs) < 1:
            raise ValueError("ensemble needs at least one member")
        if len(self.parameters) != len(self.member_configs):
            raise ValueError("parameters and configs disagree on member count")
        dims = {(p.layer_dims[0], p.layer_dims[-1]) for p in self.parameters}
        if len(dims) > 1:
            raise ValueError(
                f"members disagree on observation/action dimensions: {sorted(dims)}")
        if not -1 <= self.attacked_member < len(self.member_configs):
            raise ValueError(f"attacked_member {self.attacked_member} out of range")


def _quality_gate(clean_admission: Sequence[float], attacked: int,
                  gate_ratio: float) -> Tuple[float, List[int]]:
    """The quality floor, gate_ratio times the best clean member's admission
    rate, and the clean members below it in index order; the attacked member
    is exempt."""
    gated = [i for i in range(len(clean_admission)) if i != attacked]
    if not gated:
        return 0.0, []
    floor = gate_ratio * max(clean_admission[i] for i in gated)
    return floor, [i for i in gated if clean_admission[i] < floor - 1e-12]


def check_member_quality(spec: EnsembleSpec, gate_ratio: float = 0.9) -> None:
    """Raise MemberQualityError if any clean member's measured admission rate
    falls below gate_ratio times the best clean member's."""
    if len(spec.clean_admission) != len(spec.member_configs):
        raise ValueError("spec has no recorded clean admission rates")
    floor, failing = _quality_gate(spec.clean_admission, spec.attacked_member,
                                   gate_ratio)
    if failing:
        raise MemberQualityError(failing[0], spec.clean_admission[failing[0]],
                                 floor)


def default_member_configs(base_seed: int = 0,
                           total_env_steps: int = 240_000) -> List[PpoConfig]:
    """The four xApp variants: width, minibatch, discount, and lr all vary."""
    variants = (
        dict(hidden_sizes=(64, 64), minibatch_size=64,
             discount=0.99, learning_rate=3e-4),
        dict(hidden_sizes=(128, 128), minibatch_size=64,
             discount=0.995, learning_rate=3e-4),
        dict(hidden_sizes=(64, 64), minibatch_size=128,
             discount=0.99, learning_rate=1e-4),
        dict(hidden_sizes=(128, 128), minibatch_size=128,
             discount=0.995, learning_rate=1e-4),
    )
    return [PpoConfig(seed=base_seed + i, total_env_steps=total_env_steps, **v)
            for i, v in enumerate(variants)]


def select_model(spec: EnsembleSpec, slot_index: int) -> int:
    """Uniform member choice for one slot, keyed by the selection seed and
    the slot index."""
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence((spec.selection_seed, slot_index))))
    return int(rng.integers(len(spec.member_configs)))


def _greedy_lockstep(members: Sequence[MlpParameters], scenario: ScenarioConfig,
                     seeds: Sequence[int], attack: Optional[AttackConfig],
                     name: str, serve: Optional[Callable[[int], int]] = None,
                     ) -> List[EpisodeRecord]:
    """The records of greedy episodes of all seeds in lockstep. serve maps
    a global slot index (episode index * horizon + slot) to the member
    deciding it, and the records carry model_index -1 and a member map;
    without it member 0 decides every slot and is the records' model_index."""
    envs = [SliceEnv(scenario) for _ in seeds]
    wrapped = [PoisonedEnv(env, attack) if attack is not None else env
               for env in envs]
    member_maps: List[Dict[int, int]] = [{} for _ in seeds]
    # one row per episode, as wide as the env's observation, so that
    # greedy_actions checks each member's input width against it
    batch = np.empty((len(seeds), envs[0].observation_size if envs else 0))

    def act(member: int, group: List[int], obs) -> List[int]:
        for row, i in enumerate(group):
            batch[row] = obs[i]
        return greedy_actions(members[member], batch[:len(group)])

    def decide(live, obs):
        if serve is None:  # one group: member 0 over every live env
            return act(0, live, obs)
        groups: Dict[int, List[int]] = {}
        for i in live:
            by_slot, slot = member_maps[i], envs[i].state.slot_index
            if slot not in by_slot:
                by_slot[slot] = serve(i * scenario.horizon + slot)
            groups.setdefault(by_slot[slot], []).append(i)
        actions = {}
        for member, group in groups.items():
            actions.update(zip(group, act(member, group, obs)))
        return [actions[i] for i in live]

    run_episodes(wrapped, seeds, decide)
    return [EpisodeRecord(
        scenario=name, seed=int(seed), slot_log=list(env.slot_log),
        model_index=0 if serve is None else -1,
        member_by_slot=member_map if serve is not None else None,
        attacked_by_slot=dict(w.attacked_by_slot) if attack is not None else {})
        for seed, env, w, member_map in zip(seeds, envs, wrapped, member_maps)]


def evaluate_policy(params: MlpParameters, scenario: ScenarioConfig,
                    seeds: Sequence[int], attack: Optional[AttackConfig] = None,
                    name: str = "eval") -> List[EpisodeRecord]:
    """The records of one greedy episode of params per seed, attacked when
    attack is given.

    The records always come from the true environment; the adversary only
    corrupts what the policy sees.
    """
    return _greedy_lockstep([params], scenario, seeds, attack, name)


def evaluate_under_attack(spec: EnsembleSpec, scenario: ScenarioConfig,
                          attack: AttackConfig, seeds: Sequence[int],
                          name: str = "ppo-mtd", first_episode: int = 0,
                          ) -> List[EpisodeRecord]:
    """Serve the ensemble under the adversary and return the records: per
    slot one member is drawn and acts greedily on the (possibly forged)
    observation.

    One episode runs per seed. The per-slot member map is keyed by a global
    slot counter so longer evaluations extend, not repeat, the serving
    schedule. The episode of seeds[i] is episode first_episode + i of that
    schedule, so a run split into parts serves each part as the whole run
    would.
    """
    spec.validate()
    offset = first_episode * scenario.horizon
    return _greedy_lockstep(spec.parameters, scenario, seeds, attack, name,
                            serve=lambda slot: select_model(spec, offset + slot))


def train_ensemble(scenario: ScenarioConfig, member_configs: Sequence[PpoConfig],
                   attack: Optional[AttackConfig] = None, selection_seed: int = 0,
                   gate_ratio: float = 0.9,
                   gate_seeds: Sequence[int] = _DEFAULT_GATE_SEEDS,
                   max_retrain_rounds: int = 3) -> EnsembleSpec:
    """Train every member independently; with an adversary, poison exactly
    one member's training environment (chosen uniformly by the selection
    seed). Clean members must pass the quality gate; a member that misses
    it is retrained on a fresh seed, up to max_retrain_rounds times, before
    the gate failure is raised."""
    configs = list(member_configs)
    if not configs:
        raise ValueError("ensemble needs at least one member config")
    attacked = -1
    if attack is not None:
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence((selection_seed, _STREAM_TARGET))))
        attacked = int(rng.integers(len(configs)))

    def train_member(index: int, config: PpoConfig):
        if index == attacked:
            # train calls its factory once, so this one wrapper counts
            # every attacked step
            wrapper = PoisonedEnv(SliceEnv(scenario), attack)
            result = train(lambda: wrapper, config)
            poisoned = wrapper.lifetime_attacked
        else:
            result = train(lambda: SliceEnv(scenario), config)
            poisoned = 0
        metrics = aggregate(evaluate_policy(result.params, scenario,
                                            gate_seeds), scenario)
        return result.params, poisoned, metrics.admission_rate

    parameters: List[MlpParameters] = []
    attacked_steps: List[int] = []
    clean_admission: List[float] = []
    for index, config in enumerate(configs):
        params, poisoned, rate = train_member(index, config)
        parameters.append(params)
        attacked_steps.append(poisoned)
        clean_admission.append(rate)

    # the floor follows the best surviving member, so re-check every round;
    # retrain seeds stay collision-free (originals occupy base..base+K-1)
    count = len(configs)
    for round_index in range(1, max_retrain_rounds + 1):
        _, failing = _quality_gate(clean_admission, attacked, gate_ratio)
        if not failing:
            break
        for index in failing:
            config = dataclasses.replace(
                configs[index], seed=configs[index].seed + count * round_index)
            params, poisoned, rate = train_member(index, config)
            if rate > clean_admission[index]:
                configs[index] = config
                parameters[index] = params
                attacked_steps[index] = poisoned
                clean_admission[index] = rate

    spec = EnsembleSpec(
        member_configs=configs,
        parameters=parameters,
        selection_seed=selection_seed,
        attacked_member=attacked,
        clean_admission=tuple(clean_admission),
        training_attacked_steps=tuple(attacked_steps),
    )
    spec.validate()
    check_member_quality(spec, gate_ratio)
    return spec


# ------------------------------------------------------------------ manifest

def _encode_config(config: PpoConfig) -> str:
    parts = []
    for f in dataclasses.fields(PpoConfig):
        value = getattr(config, f.name)
        if f.name == "hidden_sizes":
            value = "x".join(str(h) for h in value)
        elif isinstance(value, float):
            value = repr(value)
        parts.append(f"{f.name}={value}")
    return ";".join(parts)


def _decode_config(text: str) -> PpoConfig:
    """Parse _encode_config's text; each field takes the type of its
    PpoConfig default."""
    defaults = {f.name: f.default for f in dataclasses.fields(PpoConfig)}
    kwargs = {}
    for part in text.split(";"):
        name, sep, raw = part.partition("=")
        if not sep:
            raise EnsembleManifestError(f"bad config fragment {part!r}")
        if name not in defaults:
            raise EnsembleManifestError(f"unknown config field {name!r}")
        try:
            if isinstance(defaults[name], tuple):
                kwargs[name] = tuple(int(h) for h in raw.split("x"))
            else:
                kwargs[name] = type(defaults[name])(raw)
        except ValueError:
            raise EnsembleManifestError(
                f"bad value {raw!r} for config field {name!r}") from None
    try:
        return PpoConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise EnsembleManifestError(f"invalid member config: {exc}") from exc


def save_ensemble(spec: EnsembleSpec, directory) -> Path:
    """Write member checkpoints and the manifest; returns the manifest path."""
    spec.validate()
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    lines = [ENSEMBLE_MAGIC, str(len(spec))]
    for index, (config, params) in enumerate(zip(spec.member_configs,
                                                 spec.parameters)):
        filename = f"member_{index}.ckpt"
        save_checkpoint(params, str(out / filename))
        flag = 1 if index == spec.attacked_member else 0
        lines.append(f"{filename}\t{_encode_config(config)}\t{flag}")
    manifest = out / "manifest.txt"
    with open(manifest, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return manifest


def load_ensemble(path, selection_seed: int = 0) -> EnsembleSpec:
    """Read a manifest (or the directory holding manifest.txt) back."""
    manifest = Path(path)
    if manifest.is_dir():
        manifest = manifest / "manifest.txt"
    if not manifest.is_file():
        raise EnsembleManifestError(f"no ensemble manifest at {manifest}")
    lines = manifest.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != ENSEMBLE_MAGIC:
        raise EnsembleManifestError(f"{manifest}: bad magic line")
    try:
        count = int(lines[1])
    except (IndexError, ValueError):
        raise EnsembleManifestError(f"{manifest}: bad member count") from None
    member_lines = [line for line in lines[2:] if line]
    if len(member_lines) != count:
        raise EnsembleManifestError(
            f"{manifest}: {len(member_lines)} member lines, header says {count}")

    configs = []
    parameters = []
    attacked = -1
    for index, line in enumerate(member_lines):
        fields = line.split("\t")
        if len(fields) != 3:
            raise EnsembleManifestError(
                f"{manifest}: member line {index} has {len(fields)} fields")
        rel_path, config_id, flag = fields
        if flag not in ("0", "1"):
            raise EnsembleManifestError(
                f"{manifest}: member line {index} attacked flag {flag!r}")
        if flag == "1":
            if attacked != -1:
                raise EnsembleManifestError(
                    f"{manifest}: more than one attacked member")
            attacked = index
        checkpoint = manifest.parent / rel_path
        if not checkpoint.is_file():
            raise EnsembleManifestError(f"missing checkpoint {checkpoint}")
        configs.append(_decode_config(config_id))
        parameters.append(load_checkpoint(str(checkpoint)))

    spec = EnsembleSpec(member_configs=configs, parameters=parameters,
                        selection_seed=selection_seed, attacked_member=attacked)
    spec.validate()
    return spec
