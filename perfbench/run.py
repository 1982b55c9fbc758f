#!/usr/bin/env python3
"""slice-arena benchmark: run one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload {train,evaluate} --seed N \
        --seconds S --trace {0,1}

Run from the repository root. The program is imported from ./src, never
from an installed copy. A workload repeats identical rounds of operations
(one trained model or one scenario run each) until about
--seconds of timed work is done; the inputs of a round come from --seed
alone. The first round's outputs are checked in full by checks.py; every
later round must reproduce them byte for byte.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end ones
(setup_s, wall_s, decisions_per_s, peak_rss_mb); with --trace 1 they are
the per-layer ones from tracing.py, taken on every second round, plus the
tracing overhead. Diagnostics go to standard error. See README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import checks
import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
INPUTS = HERE / "inputs"
RUNS = HERE / "runs"

WORKLOADS = ("train", "evaluate")
SCENARIOS = ("optimal", "ppo-clean", "ppo-attacked", "ppo-mtd", "random")

TRAIN_STEPS = 20_480          # per model; ten PPO updates of 2,048 steps
HELD_OUT_EPISODES = 2         # sampled episodes per model in the train check
EVAL_EPISODES = 8             # per scenario, 200 slots each
ORACLE_INSTANCES = 16         # brute-forced slot instances, <= 9 requests
ATTACK_PROBABILITY = 0.25
SETUP_SAMPLES = 9


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program source, no inputs)."""


def load_program():
    """Import slice_arena from this checkout's src/ and nowhere else."""
    package_dir = SRC / "slice_arena"
    if not (package_dir / "__init__.py").is_file():
        raise BenchError(f"no program source at {package_dir}")
    sys.path.insert(0, str(SRC))
    import slice_arena
    if Path(slice_arena.__file__).resolve().parent != package_dir.resolve():
        raise BenchError(f"imported slice_arena from {slice_arena.__file__}, "
                         f"not from {package_dir}")
    return slice_arena


def setup(sa, workload: str):
    """Everything before the timed region: the config, and for evaluate the
    two checkpoints and the ensemble."""
    config = sa.config.load_config(sa.paper_config_path())
    if workload == "evaluate":
        for name in ("model.ckpt", "attacked_model.ckpt"):
            sa.policy.load_checkpoint(str(INPUTS / name))
        sa.ensemble.load_ensemble(INPUTS / "ensemble")
    return config


def setup_seconds(workload: str) -> float:
    """Median set-up time over fresh interpreters; each one times its own
    imports and loads, so interpreter start-up is not counted."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             workload], capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def csv_digests(out: Path) -> dict:
    """Per scenario label, a digest of its metrics.csv and summary.csv rows."""
    parts: dict = {}
    for name in ("metrics.csv", "summary.csv"):
        lines = (out / name).read_text(encoding="utf-8").splitlines()[1:]
        for line in lines:
            parts.setdefault(line.split(",", 1)[0], []).append(line)
    return {label: hashlib.sha256("\n".join(rows).encode()).hexdigest()
            for label, rows in parts.items()}


# ------------------------------------------------------------- workloads

class Workload:
    """One round of operations, its checks and its output digest.

    labels names the round's operations. run() returns the admission
    decisions the round made and the labels whose operation raised.
    """

    labels: tuple = ()

    def __init__(self, sa, config, seed: int) -> None:
        self.sa = sa
        self.config = config
        self.rng = random.Random(f"{type(self).__name__}/{seed}")

    def run(self, out: Path):
        raise NotImplementedError

    def check(self, out: Path) -> dict:
        """Errors per label for the round just written to out."""
        raise NotImplementedError

    def digest(self, out: Path) -> dict:
        raise NotImplementedError

    def run_checks(self) -> list:
        """Checks of the program that do not belong to one operation."""
        return []


class Train(Workload):
    """harness.train_single_models: the clean model and its poisoned twin."""

    labels = ("clean", "attacked")
    files = {"clean": "model.ckpt", "attacked": "attacked_model.ckpt"}

    def __init__(self, sa, config, seed: int) -> None:
        super().__init__(sa, config, seed)
        self.train_seed = self.rng.randrange(2 ** 31)
        self.held_out = self.rng.sample(range(1, 2 ** 31), HELD_OUT_EPISODES)

    def run(self, out: Path):
        attack = self.sa.adversary.AttackConfig(
            attack_probability=ATTACK_PROBABILITY, seed=self.train_seed)
        self.sa.harness.train_single_models(
            self.config, out, seed=self.train_seed,
            total_env_steps=TRAIN_STEPS, attack=attack)
        return 2 * TRAIN_STEPS, ()

    def _episode_return(self, params, seed: int) -> float:
        """Return of one sampled episode in the true environment."""
        sa = self.sa
        import numpy as np
        env = sa.env.SliceEnv(self.config)
        rng = np.random.Generator(np.random.PCG64(seed))
        obs = env.reset(seed)
        total = 0.0
        while not env.episode_done():
            action, _ = sa.policy.sample_action(
                sa.policy.policy_forward(params, obs), rng)
            outcome = env.step(action)
            total += outcome.reward
            obs = outcome.observation
        return total

    def check(self, out: Path) -> dict:
        sa = self.sa
        errors = {}
        env = sa.env.SliceEnv(self.config)
        initial = sa.policy.init_parameters(
            env.observation_size, env.n_actions,
            hidden=sa.ppo.PpoConfig().hidden_sizes, seed=self.train_seed)
        initial_returns = [self._episode_return(initial, s) for s in self.held_out]
        for label in self.labels:
            path = out / self.files[label]
            found = checks.checkpoint_errors(path)
            if not found:
                params = sa.policy.load_checkpoint(str(path))
                trained = [self._episode_return(params, s) for s in self.held_out]
                print(f"{label}: held-out returns {trained} against initial "
                      f"{initial_returns}", file=sys.stderr)
                found = checks.improvement_errors(label, trained, initial_returns)
            if found:
                errors[label] = found
        return errors

    def digest(self, out: Path) -> dict:
        return {label: file_digest(out / name) for label, name in self.files.items()}

    def run_checks(self) -> list:
        import numpy as np
        rng = np.random.default_rng(self.rng.randrange(2 ** 31))
        steps = self.sa.ppo.PpoConfig().steps_per_update
        rewards = rng.normal(0.0, 1e5, steps)
        values = rng.normal(0.0, 1e4, steps)
        dones = rng.random(steps) < 0.01
        bootstrap = float(rng.normal(0.0, 1e4))
        traj = self.sa.ppo.Trajectory(
            observations=np.zeros((steps, 1)), actions=np.zeros(steps, dtype=np.int64),
            log_probs=np.full(steps, -1.0), values=values, rewards=rewards,
            dones=dones, bootstrap_value=bootstrap)
        errors = []
        for discount, lam in ((0.99, 0.95), (0.995, 1.0), (1.0, 0.0)):
            advantages, returns = self.sa.ppo.compute_advantages(traj, discount, lam)
            errors += checks.gae_errors(advantages, returns, rewards.tolist(),
                                        values.tolist(), dones.tolist(),
                                        bootstrap, discount, lam)
        return errors


class CsvWorkload(Workload):
    """A workload whose round ends in harness.write_results."""

    def digest(self, out: Path) -> dict:
        return csv_digests(out)

    def common_errors(self, out: Path, means: dict, attack: dict):
        facts = checks.Facts.from_config(self.config)
        rows = checks.read_metrics(out / "metrics.csv")
        summary = checks.read_summary(out / "summary.csv")
        found = [checks.row_errors(rows, facts),
                 checks.summary_errors(rows, summary, facts),
                 checks.arrival_errors(rows, means),
                 checks.attack_errors(rows, attack)]
        return rows, found


def decisions_of(results) -> int:
    """Admission decisions in the scenario results' slot logs."""
    return sum(slot.decisions for result in results
               for record in result.records for slot in record.slot_log)


def merge(found) -> dict:
    errors: dict = {}
    for part in found:
        for label, messages in part.items():
            if messages:
                errors.setdefault(label, []).extend(messages)
    return errors


class Evaluate(CsvWorkload):
    """harness.run_scenario for all five scenarios, as `slice-arena compare`
    runs them, on full-budget checkpoints; then harness.write_results."""

    labels = SCENARIOS

    def __init__(self, sa, config, seed: int) -> None:
        super().__init__(sa, config, seed)
        self.seeds = tuple(self.rng.sample(range(1, 2 ** 31), EVAL_EPISODES))
        self.attack = sa.adversary.AttackConfig(
            attack_probability=ATTACK_PROBABILITY, seed=self.rng.randrange(2 ** 31))
        self.selection_seed = self.rng.randrange(2 ** 31)
        self.instance_seed = self.rng.randrange(2 ** 31)
        self.members = len(sa.ensemble.load_ensemble(INPUTS / "ensemble"))

    def run(self, out: Path):
        harness = self.sa.harness
        results, raised = [], []
        for name in self.labels:
            try:
                results.append(harness.run_scenario(
                    name, self.config, seeds=self.seeds, artifacts=INPUTS,
                    attack=self.attack, selection_seed=self.selection_seed))
            except Exception:
                traceback.print_exc()
                raised.append(name)
        harness.write_results(results, out, self.config)
        return decisions_of(results), tuple(raised)

    def check(self, out: Path) -> dict:
        means = {label: {s.slice_id: s.arrival_mean for s in self.config.slices}
                 for label in self.labels}
        attack = {label: (ATTACK_PROBABILITY if label in ("ppo-attacked", "ppo-mtd")
                          else 0.0) for label in self.labels}
        rows, found = self.common_errors(out, means, attack)
        present = [label for label in self.labels
                   if any(row["scenario"] == label for row in rows)]
        if present:
            found.append(checks.same_traffic_errors(rows, present))
        found.append(checks.member_errors(rows, "ppo-mtd", self.members))
        found.append(checks.infeasible_errors(rows, ("optimal",)))
        return merge(found)

    def run_checks(self) -> list:
        return checks.oracle_errors(*slot_instances(
            self.sa, self.config, self.instance_seed, ORACLE_INSTANCES))


def slot_instances(sa, config, seed: int, count: int):
    """Slot decision problems met in random-policy episodes, cut to at most
    nine requests, each with myopic_exhaustive_decision's answer."""
    rng = random.Random(seed)
    by_id = {s.slice_id: s for s in config.slices}
    env = sa.env.SliceEnv(config)
    instances, decisions = [], []
    while len(instances) < count:
        env.reset(rng.randrange(2 ** 31))
        warm_slots = rng.randrange(40)
        while not env.episode_done() and env.state.slot_index < warm_slots:
            env.step(rng.randrange(env.n_actions))
        if env.episode_done():
            continue
        state = env.state
        pending = list(state.pending)
        requests = [by_id[sid] for sid in pending[:rng.randint(1, min(9, len(pending)))]]
        decisions.append(sa.baselines.myopic_exhaustive_decision(
            requests, state, config.kappa, config.datacenters))
        instances.append(checks.SlotInstance(
            remaining=tuple(r.as_tuple() for r in state.remaining),
            requests=tuple(s.slice_id for s in requests),
            demand={s.slice_id: s.demand.as_tuple() for s in config.slices},
            priority={s.slice_id: s.priority for s in config.slices},
            capacity={s.slice_id: s.chain_capacity for s in config.slices},
            active={s.slice_id: sum(1 for c in state.chains
                                    if c.slice_id == s.slice_id)
                    for s in config.slices},
            midpoint=tuple(sum(dc.power_range) / 2.0 for dc in config.datacenters),
            base_power=sum(c.power for c in state.chains),
            kappa=config.kappa))
    return instances, decisions


WORKLOAD_CLASSES = {"train": Train, "evaluate": Evaluate}


# ------------------------------------------------------------- measuring

def measure(workload: Workload, seconds: float, tracer, out: Path) -> dict:
    """Run whole rounds until about `seconds` of timed work is done. With a
    tracer, every second round is traced and at least two rounds run."""
    walls, rates, traced_walls = [], [], []
    failed, rounds = 0, 0
    first_errors, first_digest = None, None
    while True:
        traced = tracer is not None and rounds % 2 == 1
        start = perf_counter()
        try:
            with tracer if traced else contextlib.nullcontext():
                decisions, raised = workload.run(out)
        except Exception:
            traceback.print_exc()
            decisions, raised = 0, workload.labels
        wall = perf_counter() - start
        rounds += 1
        (traced_walls if traced else walls).append(wall)
        if not traced:
            rates.append(decisions / wall)

        if first_errors is None:
            try:
                first_errors = workload.check(out)
                first_digest = workload.digest(out)
            except Exception:
                traceback.print_exc()
                first_errors = {label: ["check raised"] for label in workload.labels}
                first_digest = {}
            for label, messages in first_errors.items():
                for message in messages[:5]:
                    print(f"check failed: {message}", file=sys.stderr)
            bad = set(first_errors) | set(raised)
        else:
            try:
                digest = workload.digest(out)
            except Exception:
                traceback.print_exc()
                digest = {}
            bad = set(raised) | {label for label in workload.labels
                                 if label in first_errors
                                 or digest.get(label) != first_digest.get(label)}
        failed += len(bad & set(workload.labels))
        print(f"round {rounds}{' traced' if traced else ''}: {wall:.3f} s, "
              f"{decisions} decisions, failed {sorted(bad)}", file=sys.stderr)

        elapsed = sum(walls) + sum(traced_walls)
        if elapsed + elapsed / rounds / 2 >= seconds and \
                (tracer is None or traced_walls):
            break
    return {"rounds": rounds, "failed": failed, "walls": walls, "rates": rates,
            "traced_walls": traced_walls, "check_errors": first_errors}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=WORKLOADS,
                        help="time one set-up and print its seconds (internal)")
    args = parser.parse_args(argv)

    if args.setup_probe:
        start = perf_counter()
        setup(load_program(), args.setup_probe)
        print(perf_counter() - start)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    sa = load_program()
    if args.workload == "evaluate":
        for name in ("model.ckpt", "attacked_model.ckpt", "ensemble/manifest.txt"):
            if not (INPUTS / name).is_file():
                raise BenchError(f"missing input {INPUTS / name}; see README.md")

    tracer = tracing.Tracer(sa) if args.trace else None
    out = RUNS / f"{args.workload}-{os.getpid()}"
    try:
        with tracer if tracer is not None else contextlib.nullcontext():
            config = setup(sa, args.workload)
        workload = WORKLOAD_CLASSES[args.workload](sa, config, args.seed)
        out.mkdir(parents=True, exist_ok=True)
        result = measure(workload, args.seconds, tracer, out)
        run_errors = workload.run_checks()
    finally:
        shutil.rmtree(out, ignore_errors=True)
    for message in run_errors:
        print(f"check failed: {message}", file=sys.stderr)

    if tracer is None:
        metrics = {
            "setup_s": (setup_seconds(args.workload), "s"),
            # the slowest round: the shared 2-vCPU VM the bounds were set on
            # runs mostly at one contended speed, with faster spells of
            # seconds to minutes, and across ten-run sets the slowest round
            # spread less than the median, mean or fastest round (README.md,
            # "Where the spread comes from")
            "wall_s": (max(result["walls"]), "s"),
            "decisions_per_s": (min(result["rates"]), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
    else:
        overhead = statistics.median(result["traced_walls"]) - \
            statistics.median(result["walls"])
        metrics = tracer.metrics(len(result["traced_walls"]), SCENARIOS, overhead)
    print(json.dumps({
        # a failed operation is counted in `failed`; `correct` speaks of the
        # rest and of the run-level checks
        "correct": not run_errors,
        "attempted": result["rounds"] * len(workload.labels),
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
