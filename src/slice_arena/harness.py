"""Experiment harness: the five evaluation scenarios over one config.

Scenario names:

* ``optimal``      exhaustive myopic placement (expected-power oracle)
* ``ppo-clean``    the trained admission policy, greedy, honest telemetry
* ``ppo-attacked`` a policy trained and evaluated under observation/reward
                   forgery
* ``ppo-mtd``      the shuffled ensemble serving under the same attack
* ``random``       uniform random decisions

All scenarios at one sweep point replay identical traffic (the environment
streams depend only on the episode seed), so differences in the metrics are
attributable to the policy alone. Training artifacts live in a directory
managed here: ``model.ckpt`` (clean), ``attacked_model.ckpt`` (poisoned
training), and ``ensemble/`` (manifest plus member checkpoints).

One dispatch, ``_runners``, reads what each named scenario needs once and
returns its runner; ``run_scenario``, ``compare`` and ``sweep`` aggregate
each run's records once. When a second core is free, the poisoned twin
trains in a forked worker beside the clean model, and a run's second half
of seeds runs in one; the checkpoints, records and CSVs are the same bytes
as in one process.
"""
from __future__ import annotations

import dataclasses
import functools
import os
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .adversary import AttackConfig, PoisonedEnv
from .baselines import myopic_exhaustive_decision, random_policy_decision
from .config import ScenarioConfig
from .ensemble import (default_member_configs, evaluate_policy,
                       evaluate_under_attack, load_ensemble, save_ensemble,
                       train_ensemble)
from .env import SliceEnv, run_episodes
from .metrics import EpisodeRecord, RunMetrics, aggregate, write_metrics
from .policy import load_checkpoint, save_checkpoint
from .ppo import PpoConfig, train

SCENARIO_NAMES = ("optimal", "ppo-clean", "ppo-attacked", "ppo-mtd", "random")

MODEL_CHECKPOINT = "model.ckpt"
ATTACKED_CHECKPOINT = "attacked_model.ckpt"
ENSEMBLE_DIRNAME = "ensemble"

_STREAM_RANDOM_POLICY = 41


class MissingCheckpointError(FileNotFoundError):
    """A ppo-* scenario was requested before its artifacts were trained."""


@dataclass
class ScenarioResult:
    name: str
    aggregate: RunMetrics
    records: List[EpisodeRecord]


# ---------------------------------------------------------- worker processes

def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _can_fork() -> bool:
    """Whether a job can run in a forked worker beside this process: two
    CPUs are usable, the platform can fork, and this process is not
    daemonic (daemonic processes may not have children)."""
    if _usable_cpus() < 2:
        return False
    # imported here, so that processes that never fork do not pay for it
    import multiprocessing
    return ("fork" in multiprocessing.get_all_start_methods()
            and not multiprocessing.current_process().daemon)


class _WorkerTraceback(Exception):
    """The traceback of an exception raised in a worker process."""


def _serve(sender, job) -> None:
    """A forked worker's body: run job() and send back (None, its result),
    or the exception it raised with its traceback text."""
    import traceback
    with sender:
        try:
            result = job()
        except BaseException as exc:
            sender.send((exc, traceback.format_exc()))
        else:
            sender.send((None, result))


def _beside(job, own, what: str):
    """Run job() in one forked worker process while this process runs own();
    returns (own(), job()). Call only when _can_fork() holds.

    An exception from job() is raised here as itself, with the worker's
    traceback as its cause; one from own() stops the worker. The worker's
    answer is received before the worker is joined, so a large answer cannot
    fill the pipe and block both, and the worker is joined on every path.
    what names the job in the error raised when the worker dies unanswered.
    """
    import multiprocessing
    # fork, not spawn: the worker starts with every module already loaded
    # (a spawned one would import numpy and this package again on every
    # call) and needs no pickled job, and no thread is started here before
    # the fork
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    with receiver:
        worker = context.Process(target=_serve, args=(sender, job))
        worker.start()
        sender.close()
        try:
            mine = own()
            try:
                error, answer = receiver.recv()
            except EOFError:  # the worker died without answering
                worker.join()
                error = RuntimeError(f"the worker {what} died with exit code "
                                     f"{worker.exitcode}")
                answer = "the worker sent no traceback"
        except BaseException:
            worker.terminate()  # stop the worker, so the error surfaces now
            raise
        finally:
            worker.join()
    if error is not None:
        raise error from _WorkerTraceback(answer)
    return mine, answer


# ----------------------------------------------------------------- training

def _train_and_save(scenario: ScenarioConfig, config: PpoConfig,
                    attack: Optional[AttackConfig], path: Path) -> None:
    """Train one model, poisoned when attack is given, and write its
    checkpoint; a pure function of its arguments."""
    def make_env():
        env = SliceEnv(scenario)
        return env if attack is None else PoisonedEnv(env, attack)

    save_checkpoint(train(make_env, config).params, str(path))


def train_single_models(scenario: ScenarioConfig, artifacts,
                        seed: int = 0, total_env_steps: int = 200_000,
                        attack: Optional[AttackConfig] = None,
                        ) -> Tuple[Path, Path]:
    """Train the clean serving model and its poisoned twin; returns the two
    checkpoint paths.

    When a second CPU is usable and the platform can fork, the twin trains
    in one forked worker process while this process trains the clean model;
    otherwise they train one after the other. Either way the checkpoints
    are the same bytes. An exception from either job is raised here as
    itself, and no worker outlives the call.
    """
    out = Path(artifacts)
    out.mkdir(parents=True, exist_ok=True)
    attack = attack if attack is not None else AttackConfig(seed=seed)
    config = PpoConfig(seed=seed, total_env_steps=total_env_steps)
    clean_path, attacked_path = out / MODEL_CHECKPOINT, out / ATTACKED_CHECKPOINT
    clean = functools.partial(_train_and_save, scenario, config, None,
                              clean_path)
    twin = functools.partial(_train_and_save, scenario, config, attack,
                             attacked_path)
    if _can_fork():
        _beside(twin, clean, f"training {attacked_path}")
    else:
        clean()
        twin()
    return clean_path, attacked_path


def train_defense_ensemble(scenario: ScenarioConfig, artifacts,
                           seed: int = 0, total_env_steps: int = 240_000,
                           attack: Optional[AttackConfig] = None,
                           selection_seed: int = 0,
                           gate_ratio: float = 0.9) -> Path:
    """Train the ensemble (one member poisoned) and write its manifest."""
    attack = attack if attack is not None else AttackConfig(seed=seed)
    spec = train_ensemble(scenario,
                          default_member_configs(seed, total_env_steps),
                          attack=attack, selection_seed=selection_seed,
                          gate_ratio=gate_ratio)
    return save_ensemble(spec, Path(artifacts) / ENSEMBLE_DIRNAME)


def _artifact(artifacts, relative: str, command: str) -> str:
    """artifacts/relative, which command writes; it must exist."""
    if artifacts is None:
        raise MissingCheckpointError(
            f"scenario needs {relative} but no artifacts directory was given")
    path = Path(artifacts) / relative
    if not path.is_file():
        raise MissingCheckpointError(
            f"no trained artifact at {path}; {command} first")
    return str(path)


# ------------------------------------------------------------ policy-free runs

def run_random(scenario: ScenarioConfig, seeds: Sequence[int],
               label: str = "random") -> List[EpisodeRecord]:
    envs = [SliceEnv(scenario) for _ in seeds]
    rngs = [np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        (int(seed), _STREAM_RANDOM_POLICY)))) for seed in seeds]
    run_episodes(envs, seeds, lambda live, _: [random_policy_decision(
        envs[i].state, envs[i].current_request_slice(), rngs[i]) for i in live])
    return [EpisodeRecord(scenario=label, seed=int(seed),
                          slot_log=list(env.slot_log))
            for seed, env in zip(seeds, envs)]


def run_optimal(scenario: ScenarioConfig, seeds: Sequence[int],
                label: str = "optimal") -> List[EpisodeRecord]:
    """Myopic exhaustive placement: per slot, the assignment minimizing
    expected power minus priority bonus, planned once for all of the slot's
    requests."""
    by_id = {s.slice_id: s for s in scenario.slices}
    envs = [SliceEnv(scenario) for _ in seeds]
    plans = [deque() for _ in seeds]

    def decide(live, _):
        for i in live:
            if not plans[i]:
                state = envs[i].state
                plans[i].extend(myopic_exhaustive_decision(
                    [by_id[sid] for sid in state.pending], state,
                    scenario.kappa, scenario.datacenters))
        return [plans[i].popleft() for i in live]

    run_episodes(envs, seeds, decide)
    return [EpisodeRecord(scenario=label, seed=int(seed),
                          slot_log=list(env.slot_log))
            for seed, env in zip(seeds, envs)]


# -------------------------------------------------------------- the scenarios

def _runner(name: str, artifacts, selection_seed: int) -> Callable:
    """How scenario name runs, with the checkpoint or ensemble it needs read
    now. The runner looks its evaluator up in this module when it runs."""
    if name == "random":
        def run(config, seeds, first_episode, attack, label):
            return run_random(config, seeds, label)
    elif name == "optimal":
        def run(config, seeds, first_episode, attack, label):
            return run_optimal(config, seeds, label)
    elif name == "ppo-clean":
        clean = load_checkpoint(_artifact(artifacts, MODEL_CHECKPOINT, "train"))

        def run(config, seeds, first_episode, attack, label):
            return evaluate_policy(clean, config, seeds, name=label)
    elif name == "ppo-attacked":
        twin = load_checkpoint(
            _artifact(artifacts, ATTACKED_CHECKPOINT, "train"))

        def run(config, seeds, first_episode, attack, label):
            return evaluate_policy(twin, config, seeds, attack, label)
    else:  # ppo-mtd
        manifest = _artifact(artifacts, f"{ENSEMBLE_DIRNAME}/manifest.txt",
                             "train-ensemble")
        spec = load_ensemble(manifest, selection_seed=selection_seed)

        def run(config, seeds, first_episode, attack, label):
            return evaluate_under_attack(spec, config, attack, seeds, label,
                                         first_episode)
    return run


def _runners(names: Sequence[str], artifacts,
             selection_seed: int) -> Dict[str, Callable]:
    """One runner per scenario name: runner(config, seeds, first_episode,
    attack, label) returns the records of seeds, episodes first_episode,
    first_episode + 1, ... of the run. Every name is checked before each
    checkpoint or ensemble is read, once, here, before any fork."""
    if not names:
        raise ValueError(f"no scenario given; expected one or more of "
                         f"{', '.join(SCENARIO_NAMES)}")
    for name in names:
        if name not in SCENARIO_NAMES:
            raise ValueError(f"unknown scenario {name!r}; expected one of "
                             f"{', '.join(SCENARIO_NAMES)}")
    return {name: _runner(name, artifacts, selection_seed)
            for name in dict.fromkeys(names)}


def _run_loaded(name: str, runner: Callable, config: ScenarioConfig,
                seeds: Optional[Sequence[int]], attack: Optional[AttackConfig],
                label: Optional[str]) -> ScenarioResult:
    """run_scenario with its runner made: run it on seeds, on two
    processes when it can, and aggregate the records once."""
    seeds = tuple(int(s) for s in (config.seeds if seeds is None else seeds))
    run = functools.partial(
        runner, config,
        attack=attack if attack is not None else AttackConfig(),
        label=name if label is None else label)
    if len(seeds) >= 2 and _can_fork():
        half = len(seeds) // 2
        records, rest = _beside(
            functools.partial(run, seeds[half:], half),
            functools.partial(run, seeds[:half], 0),
            f"running {name} on seeds {seeds[half:]}")
        records += rest
    else:
        records = run(seeds, 0)
    return ScenarioResult(name=name, aggregate=aggregate(records, config),
                          records=records)


def run_scenario(name: str, config: ScenarioConfig,
                 seeds: Optional[Sequence[int]] = None, artifacts=None,
                 attack: Optional[AttackConfig] = None,
                 selection_seed: int = 0,
                 label: Optional[str] = None) -> ScenarioResult:
    """Execute one named scenario end-to-end and aggregate its metrics.

    Checkpoints load here, before any fork. When a second CPU is usable, the
    platform can fork and there are two or more seeds, a forked worker runs
    the second half of the seeds beside this process. An episode's streams
    are keyed by its seed and its index in the run, so the records are the
    same either way. An exception from either half is raised here as
    itself, and no worker outlives the call.
    """
    runner = _runners((name,), artifacts, selection_seed)[name]
    return _run_loaded(name, runner, config, seeds, attack, label)


def with_arrival_mean(config: ScenarioConfig, arrival_mean: float,
                      ) -> ScenarioConfig:
    """The same scenario with every slice's arrival mean replaced."""
    slices = tuple(dataclasses.replace(s, arrival_mean=float(arrival_mean))
                   for s in config.slices)
    return dataclasses.replace(config, slices=slices)


@dataclass
class SweepPoint:
    scenario: str
    arrival_mean: float
    result: ScenarioResult


def sweep(config: ScenarioConfig, scenarios: Sequence[str] = SCENARIO_NAMES,
          seeds: Optional[Sequence[int]] = None, artifacts=None,
          attack: Optional[AttackConfig] = None,
          selection_seed: int = 0) -> List[SweepPoint]:
    """Rerun scenarios across the arrival means of config.arrival_sweep,
    reusing trained checkpoints: each is read once, before the first point.
    An empty or unknown scenario name raises ValueError before any read.

    Every scenario at one arrival value replays the same seeds. Records are
    labeled ``name@a<arrival>`` so the summary carries one row per
    (scenario, arrival) pair.
    """
    runners = _runners(scenarios, artifacts, selection_seed)
    points = []
    for arrival in config.arrival_sweep:
        point_config = with_arrival_mean(config, arrival)
        for name in scenarios:
            result = _run_loaded(name, runners[name], point_config, seeds,
                                 attack, f"{name}@a{arrival:g}")
            points.append(SweepPoint(scenario=name,
                                     arrival_mean=float(arrival),
                                     result=result))
    return points


def compare(config: ScenarioConfig, artifacts,
            seeds: Optional[Sequence[int]] = None,
            attack: Optional[AttackConfig] = None,
            selection_seed: int = 0) -> List[ScenarioResult]:
    """All five scenarios on identical seeds, in canonical order; each
    checkpoint is read once, before the first scenario runs."""
    runners = _runners(SCENARIO_NAMES, artifacts, selection_seed)
    return [_run_loaded(name, runner, config, seeds, attack, None)
            for name, runner in runners.items()]


def compare_table(results: Sequence[ScenarioResult]) -> str:
    """Plain-text comparison. Admission ratios are relative to the optimal
    scenario's overall admission rate; they are reported for inspection, not
    asserted anywhere."""
    optimal = next((r for r in results if r.name == "optimal"), None)
    baseline = optimal.aggregate.admission_rate if optimal else 0.0
    header = (f"{'scenario':<14} {'admission':>9} {'vs-optimal':>10} "
              f"{'norm-power':>10} {'slot-reward':>12} {'attacked':>9}")
    lines = [header, "-" * len(header)]
    for result in results:
        m = result.aggregate
        ratio = m.admission_rate / baseline if baseline > 0 else float("nan")
        lines.append(f"{result.name:<14} {m.admission_rate:>9.4f} "
                     f"{ratio:>10.4f} {m.mean_normalized_power:>10.4f} "
                     f"{m.mean_slot_reward:>12.2f} "
                     f"{m.attacked_fraction:>9.4f}")
    return "\n".join(lines)


def write_results(results: Sequence[ScenarioResult], out_dir,
                  config: ScenarioConfig) -> Tuple[Path, Path]:
    """Concatenate all records and emit metrics.csv + summary.csv."""
    records: List[EpisodeRecord] = []
    for result in results:
        records.extend(result.records)
    return write_metrics(records, out_dir, config)
