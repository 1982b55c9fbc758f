import csv
import dataclasses
import multiprocessing
import os
import time

import pytest

from slice_arena import ensemble, harness, ppo
from slice_arena.adversary import AttackConfig, PoisonedEnv
from slice_arena.config import ConfigValidationError
from slice_arena.env import SliceEnv
from slice_arena.policy import save_checkpoint
from slice_arena.harness import (ATTACKED_CHECKPOINT, MODEL_CHECKPOINT,
                                 SCENARIO_NAMES, MissingCheckpointError,
                                 compare, compare_table, run_scenario, sweep,
                                 train_defense_ensemble, train_single_models,
                                 with_arrival_mean, write_results)

from conftest import make_dc, make_scenario, make_slice
from oracles import optimal_episodes_reference, random_episodes_reference


@pytest.fixture(scope="module")
def small_cfg():
    return make_scenario(
        datacenters=(make_dc("dc1"), make_dc("dc2")),
        slices=(make_slice("s1", priority=2.0, demand=(2.0, 7.0, 30.0),
                           arrival_mean=6.0, departure_prob=0.3),
                make_slice("s2", priority=3.0, demand=(3.0, 5.0, 50.0),
                           arrival_mean=6.0, departure_prob=0.3)),
        kappa=1000.0, m_penalty=150_000.0, horizon=40)


@pytest.fixture(scope="module")
def artifacts(small_cfg, tmp_path_factory):
    out = tmp_path_factory.mktemp("artifacts")
    train_single_models(small_cfg, out, seed=0, total_env_steps=4096)
    train_defense_ensemble(small_cfg, out, seed=0, total_env_steps=2048,
                           gate_ratio=0.0)
    return out


SEEDS = (11, 12, 13)


class JobFailed(RuntimeError):
    """Raised by a stubbed training job; must reach the caller as itself."""


@pytest.fixture
def two_cpus(monkeypatch):
    """Take the worker-process path even on a one-CPU machine."""
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)


class TestTrainSingleModels:
    def test_checkpoints_match_in_process_training(self, small_cfg, two_cpus,
                                                   tmp_path):
        paths = train_single_models(small_cfg, tmp_path / "worker", seed=0,
                                    total_env_steps=4096)
        assert multiprocessing.active_children() == []
        config = ppo.PpoConfig(seed=0, total_env_steps=4096)
        attack = AttackConfig(seed=0)
        factories = (lambda: SliceEnv(small_cfg),
                     lambda: PoisonedEnv(SliceEnv(small_cfg), attack))
        for path, factory in zip(paths, factories):
            direct = tmp_path / path.name
            save_checkpoint(ppo.train(factory, config).params, str(direct))
            assert path.read_bytes() == direct.read_bytes()

    @pytest.mark.parametrize("reason", ["one cpu", "no fork"])
    def test_serial_fallback_writes_the_same_bytes(self, small_cfg, artifacts,
                                                   tmp_path, monkeypatch,
                                                   reason):
        if reason == "one cpu":
            monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
        else:
            monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
            monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                                lambda: ["spawn"])

        def no_worker(*args, **kwargs):
            raise AssertionError("the serial path started a worker")

        monkeypatch.setattr(multiprocessing, "get_context", no_worker)
        for path in train_single_models(small_cfg, tmp_path, seed=0,
                                        total_env_steps=4096):
            assert path.read_bytes() == (artifacts / path.name).read_bytes()

    def test_config_error_surfaces_and_no_worker_remains(self, small_cfg,
                                                         two_cpus, tmp_path):
        with pytest.raises(ValueError, match="steps_per_update"):
            train_single_models(small_cfg, tmp_path, total_env_steps=1024)
        assert multiprocessing.active_children() == []

    def test_twin_failure_keeps_its_type(self, small_cfg, two_cpus, tmp_path,
                                         monkeypatch):
        def broken_forger(env, attack):
            raise JobFailed("forger down")

        monkeypatch.setattr(harness, "PoisonedEnv", broken_forger)
        with pytest.raises(JobFailed, match="forger down"):
            train_single_models(small_cfg, tmp_path, total_env_steps=2048)
        assert (tmp_path / MODEL_CHECKPOINT).is_file()
        assert multiprocessing.active_children() == []

    def test_dead_worker_is_reported(self, small_cfg, two_cpus, tmp_path,
                                     monkeypatch):
        parent = os.getpid()

        def train(factory, config):
            if os.getpid() != parent:
                os._exit(3)
            return ppo.train(factory, config)

        monkeypatch.setattr(harness, "train", train)
        with pytest.raises(RuntimeError, match="died with exit code 3"):
            train_single_models(small_cfg, tmp_path, total_env_steps=2048)
        assert multiprocessing.active_children() == []

    def test_clean_failure_stops_the_running_twin(self, small_cfg, two_cpus,
                                                  tmp_path, monkeypatch):
        parent = os.getpid()

        def train(factory, config):
            if os.getpid() == parent:
                raise JobFailed("clean job failed")
            time.sleep(60)

        monkeypatch.setattr(harness, "train", train)
        start = time.perf_counter()
        with pytest.raises(JobFailed, match="clean job failed"):
            train_single_models(small_cfg, tmp_path, total_env_steps=2048)
        assert time.perf_counter() - start < 30
        assert multiprocessing.active_children() == []


class TestSplitEpisodes:
    """run_scenario on two processes: a forked worker runs the second half
    of the seeds."""

    @pytest.fixture
    def forks(self, two_cpus, monkeypatch):
        """The number of jobs run beside this process."""
        calls = []
        beside = harness._beside

        def counting(job, own, what):
            calls.append(what)
            return beside(job, own, what)

        monkeypatch.setattr(harness, "_beside", counting)
        return calls

    @pytest.mark.parametrize("count", [1, 2, 3, 8])
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_records_match_one_process(self, small_cfg, artifacts, forks,
                                       monkeypatch, name, count):
        seeds = tuple(range(21, 21 + count))
        attack = AttackConfig(attack_probability=0.25, seed=5)
        split = run_scenario(name, small_cfg, seeds=seeds, artifacts=artifacts,
                             attack=attack, selection_seed=3)
        assert multiprocessing.active_children() == []
        assert len(forks) == (count >= 2)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
        serial = run_scenario(name, small_cfg, seeds=seeds, artifacts=artifacts,
                              attack=attack, selection_seed=3)
        assert len(forks) == (count >= 2)
        assert [r.seed for r in split.records] == list(seeds)
        for a, b in zip(split.records, serial.records, strict=True):
            assert a.slot_log == b.slot_log
            assert a.member_by_slot == b.member_by_slot
            assert a.attacked_by_slot == b.attacked_by_slot
            assert a == b
        assert split.aggregate == serial.aggregate

    @pytest.mark.parametrize("error", [JobFailed("worker half failed"),
                                       ConfigValidationError("kappa", "bad")])
    def test_worker_error_keeps_its_type(self, small_cfg, forks, monkeypatch,
                                         error):
        parent, run_random = os.getpid(), harness.run_random

        def failing(config, seeds, label):
            if os.getpid() != parent:
                raise error
            return run_random(config, seeds, label)

        monkeypatch.setattr(harness, "run_random", failing)
        with pytest.raises(type(error), match=str(error)) as raised:
            run_scenario("random", small_cfg, seeds=SEEDS)
        assert isinstance(raised.value.__cause__, harness._WorkerTraceback)
        assert forks and multiprocessing.active_children() == []

    def test_caller_error_stops_the_worker(self, small_cfg, forks,
                                           monkeypatch):
        parent = os.getpid()

        def failing(config, seeds, label):
            if os.getpid() == parent:
                raise JobFailed("caller half failed")
            time.sleep(60)

        monkeypatch.setattr(harness, "run_random", failing)
        start = time.perf_counter()
        with pytest.raises(JobFailed, match="caller half failed"):
            run_scenario("random", small_cfg, seeds=SEEDS)
        assert time.perf_counter() - start < 30
        assert forks and multiprocessing.active_children() == []

    def test_daemonic_caller_runs_serially(self, small_cfg, forks):
        context = multiprocessing.get_context("fork")
        receiver, sender = context.Pipe(duplex=False)

        def caller():
            try:
                result = run_scenario("random", small_cfg, seeds=SEEDS)
                sender.send((forks, result.records))
            except BaseException as exc:
                sender.send((forks, exc))

        daemon = context.Process(target=caller, daemon=True)
        daemon.start()
        sender.close()
        with receiver:
            assert receiver.poll(120), "the daemonic caller sent nothing"
            started, records = receiver.recv()
        daemon.join(60)
        assert not daemon.is_alive()
        if isinstance(records, BaseException):
            raise records
        assert started == []
        assert records == harness.run_random(small_cfg, SEEDS, "random")


class TestPolicyFreeScenarios:
    def test_random_admission_strictly_inside_unit_interval(self, small_cfg):
        result = run_scenario("random", small_cfg, seeds=SEEDS)
        assert 0.0 < result.aggregate.admission_rate < 1.0

    def test_identical_traffic_across_scenarios(self, small_cfg):
        random = run_scenario("random", small_cfg, seeds=SEEDS)
        optimal = run_scenario("optimal", small_cfg, seeds=SEEDS)
        for a, b in zip(random.records, optimal.records):
            assert a.seed == b.seed
            arrived_a = [(s.slot, {k: v.arrived for k, v in s.per_slice.items()})
                         for s in a.slot_log]
            arrived_b = [(s.slot, {k: v.arrived for k, v in s.per_slice.items()})
                         for s in b.slot_log]
            assert arrived_a == arrived_b

    def test_exhaustive_beats_random_on_shared_traffic(self, small_cfg):
        random = run_scenario("random", small_cfg, seeds=SEEDS)
        optimal = run_scenario("optimal", small_cfg, seeds=SEEDS)
        assert optimal.aggregate.admission_rate >= \
            random.aggregate.admission_rate
        assert optimal.aggregate.mean_slot_reward > \
            random.aggregate.mean_slot_reward

    def test_optimal_plans_each_slot_whole(self, paper_cfg, monkeypatch):
        # at the paper's load most slots hold 10 or more requests
        calls = []
        oracle = harness.myopic_exhaustive_decision

        def recording(requests, state, kappa, datacenters):
            calls.append((len(requests), len(state.pending)))
            return oracle(requests, state, kappa, datacenters)

        monkeypatch.setattr(harness, "myopic_exhaustive_decision", recording)
        record, = harness.run_optimal(paper_cfg, [paper_cfg.seeds[0]])
        decided = [slot.decisions for slot in record.slot_log if slot.decisions]
        assert [pending for _, pending in calls] == decided
        assert all(planned == pending for planned, pending in calls)
        assert max(decided) >= 10

    @pytest.mark.parametrize("arrival_mean", [6.0, 0.0])
    @pytest.mark.parametrize("name, reference", [
        ("random", random_episodes_reference),
        ("optimal", optimal_episodes_reference)])
    def test_matches_per_seed_reference(self, small_cfg, arrival_mean, name,
                                        reference, monkeypatch):
        config = with_arrival_mean(small_cfg, arrival_mean)
        seeds = (1, 2, 3, 4)
        expected = reference(config, seeds)
        if arrival_mean == 0.0:  # nothing to decide: no decision is asked for
            def never(*args):
                raise AssertionError("decision requested with nothing pending")
            monkeypatch.setattr(harness, "random_policy_decision", never)
            monkeypatch.setattr(harness, "myopic_exhaustive_decision", never)
        result = run_scenario(name, config, seeds=seeds)
        assert [r.slot_log for r in result.records] == expected

    def test_unknown_scenario_rejected(self, small_cfg):
        with pytest.raises(ValueError, match="unknown scenario"):
            run_scenario("greedy", small_cfg, seeds=SEEDS)


class TestArtifactHandling:
    def test_both_checkpoints_written(self, artifacts):
        assert (artifacts / MODEL_CHECKPOINT).is_file()
        assert (artifacts / ATTACKED_CHECKPOINT).is_file()
        assert (artifacts / "ensemble" / "manifest.txt").is_file()

    @pytest.mark.parametrize("name", ["ppo-clean", "ppo-attacked", "ppo-mtd"])
    def test_missing_artifacts_raise(self, small_cfg, tmp_path, name):
        with pytest.raises(MissingCheckpointError):
            run_scenario(name, small_cfg, seeds=SEEDS, artifacts=None)
        with pytest.raises(MissingCheckpointError):
            run_scenario(name, small_cfg, seeds=SEEDS,
                         artifacts=tmp_path / "empty")


class TestPolicyScenarios:
    def test_clean_policy_sees_no_attacks(self, small_cfg, artifacts):
        result = run_scenario("ppo-clean", small_cfg, seeds=SEEDS,
                              artifacts=artifacts)
        assert result.aggregate.attacked_fraction == 0.0
        assert all(r.model_index == 0 for r in result.records)

    def test_attacked_policy_reports_forged_fraction(self, small_cfg,
                                                     artifacts):
        attack = AttackConfig(attack_probability=0.25, seed=0)
        result = run_scenario("ppo-attacked", small_cfg, seeds=SEEDS,
                              artifacts=artifacts, attack=attack)
        assert result.aggregate.attacked_fraction == \
            pytest.approx(0.25, abs=0.05)

    def test_mtd_rows_carry_member_indices(self, small_cfg, artifacts,
                                           tmp_path):
        result = run_scenario("ppo-mtd", small_cfg, seeds=SEEDS,
                              artifacts=artifacts)
        metrics_path, _ = write_results([result], tmp_path, small_cfg)
        members = {int(r["model_index"])
                   for r in csv.DictReader(metrics_path.open())}
        assert members <= {-1, 0, 1, 2, 3}
        assert len(members - {-1}) >= 2

    def test_mtd_selection_seed_changes_schedule(self, small_cfg, artifacts):
        a = run_scenario("ppo-mtd", small_cfg, seeds=SEEDS,
                         artifacts=artifacts, selection_seed=0)
        b = run_scenario("ppo-mtd", small_cfg, seeds=SEEDS,
                         artifacts=artifacts, selection_seed=1)
        assert a.records[0].member_by_slot != b.records[0].member_by_slot


class TestCsvContracts:
    def test_reruns_are_byte_identical(self, small_cfg, artifacts, tmp_path):
        for sub in ("a", "b"):
            result = run_scenario("ppo-attacked", small_cfg, seeds=SEEDS,
                                  artifacts=artifacts)
            write_results([result], tmp_path / sub, small_cfg)
        assert (tmp_path / "a" / "metrics.csv").read_bytes() == \
               (tmp_path / "b" / "metrics.csv").read_bytes()
        assert (tmp_path / "a" / "summary.csv").read_bytes() == \
               (tmp_path / "b" / "summary.csv").read_bytes()

    def test_accounting_identity_per_slice(self, small_cfg, tmp_path):
        result = run_scenario("random", small_cfg, seeds=SEEDS)
        metrics_path, _ = write_results([result], tmp_path, small_cfg)
        totals = {}
        for row in csv.DictReader(metrics_path.open()):
            t = totals.setdefault(row["slice_id"], [0, 0, 0, 0])
            t[0] += int(row["arrived"])
            t[1] += int(row["admitted"])
            t[2] += int(row["rejected"])
            t[3] += int(row["infeasible"])
        assert set(totals) == {"s1", "s2"}
        for arrived, admitted, rejected, infeasible in totals.values():
            assert arrived == admitted + rejected + infeasible

    def test_normalized_power_within_unit_interval(self, small_cfg, tmp_path):
        result = run_scenario("random", small_cfg, seeds=SEEDS)
        metrics_path, _ = write_results([result], tmp_path, small_cfg)
        for row in csv.DictReader(metrics_path.open()):
            assert 0.0 <= float(row["normalized_power"]) <= 1.0


class TestSweep:
    def test_single_point_matches_run_scenario(self, small_cfg):
        points = sweep(dataclasses.replace(small_cfg, arrival_sweep=(6.0,)),
                       scenarios=("random",), seeds=SEEDS)
        assert len(points) == 1
        direct = run_scenario("random", small_cfg, seeds=SEEDS)
        assert points[0].result.aggregate == direct.aggregate

    def test_labels_carry_arrival(self, small_cfg):
        points = sweep(dataclasses.replace(small_cfg, arrival_sweep=(2.0, 6.0)),
                       scenarios=("random",), seeds=SEEDS[:1])
        labels = [p.result.records[0].scenario for p in points]
        assert labels == ["random@a2", "random@a6"]

    def test_optimal_monotone_in_arrival(self, small_cfg):
        # power saturates from arrival 6 on; three seeds cannot resolve the
        # rise from 6 to 12 from seed noise, ten can
        points = sweep(dataclasses.replace(small_cfg,
                                           arrival_sweep=(2.0, 6.0, 12.0)),
                       scenarios=("optimal",), seeds=tuple(range(11, 21)))
        admissions = [p.result.aggregate.admission_rate for p in points]
        powers = [p.result.aggregate.mean_normalized_power for p in points]
        assert admissions == sorted(admissions, reverse=True)
        assert powers == sorted(powers)

    def test_summary_has_one_row_per_point(self, small_cfg, tmp_path):
        points = sweep(dataclasses.replace(small_cfg, arrival_sweep=(2.0, 6.0)),
                       scenarios=("random", "optimal"), seeds=SEEDS[:1])
        _, summary_path = write_results([p.result for p in points],
                                        tmp_path, small_cfg)
        rows = list(csv.DictReader(summary_path.open()))
        assert [r["scenario"] for r in rows] == \
            ["random@a2", "optimal@a2", "random@a6", "optimal@a6"]

    def test_with_arrival_mean_replaces_every_slice(self, small_cfg):
        swapped = with_arrival_mean(small_cfg, 3.5)
        assert all(s.arrival_mean == 3.5 for s in swapped.slices)
        assert swapped.kappa == small_cfg.kappa
        assert with_arrival_mean(small_cfg, 6.0) == small_cfg

    def test_invalid_arrival_rejected(self, small_cfg):
        with pytest.raises(ValueError):
            with_arrival_mean(small_cfg, -1.0)


class TestCheckpointLoads:
    @pytest.fixture
    def loads(self, monkeypatch):
        """The paths every load_checkpoint call of harness and ensemble read."""
        paths = []

        def counting(load):
            def load_recorded(path):
                paths.append(path)
                return load(path)
            return load_recorded

        for module in (harness, ensemble):
            monkeypatch.setattr(module, "load_checkpoint",
                                counting(module.load_checkpoint))
        return paths

    @pytest.mark.parametrize("call", ["sweep", "compare"])
    def test_each_checkpoint_read_once(self, small_cfg, artifacts, loads,
                                       call):
        config = dataclasses.replace(small_cfg, arrival_sweep=(2.0, 4.0, 6.0))
        if call == "sweep":
            runs = len(sweep(config, seeds=SEEDS[:2], artifacts=artifacts))
        else:
            runs = len(compare(config, artifacts, seeds=SEEDS[:2]))
        assert runs == (3 if call == "sweep" else 1) * len(SCENARIO_NAMES)
        # the clean model, its twin and the four ensemble members
        assert len(loads) == len(set(loads)) == 6

    def test_sweep_rejects_unknown_scenario_before_running(self, small_cfg,
                                                           monkeypatch):
        def never(*args):
            raise AssertionError("a scenario ran")

        monkeypatch.setattr(harness, "run_random", never)
        with pytest.raises(ValueError, match="unknown scenario"):
            sweep(small_cfg, scenarios=("random", "greedy"), seeds=SEEDS)
        # the names are checked before the first checkpoint is looked for
        with pytest.raises(ValueError, match="unknown scenario"):
            sweep(small_cfg, scenarios=("ppo-clean", "greedy"), seeds=SEEDS,
                  artifacts=None)

    def test_sweep_rejects_repeated_scenario_before_running(self, small_cfg,
                                                             monkeypatch):
        def never(*args):
            raise AssertionError("a scenario ran")

        monkeypatch.setattr(harness, "run_random", never)
        with pytest.raises(ValueError, match="'random' is named twice"):
            sweep(small_cfg, scenarios=("random", "random"), seeds=SEEDS)
        # checked before the first checkpoint is looked for
        with pytest.raises(ValueError, match="'ppo-clean' is named twice"):
            sweep(small_cfg, scenarios=("ppo-clean", "random", "ppo-clean"),
                  seeds=SEEDS, artifacts=None)

    @pytest.mark.parametrize("arrivals", [(2.0, 2.0), (2.0, 2.0000001)])
    def test_sweep_rejects_colliding_labels_before_running(
            self, small_cfg, monkeypatch, arrivals):
        def never(*args):
            raise AssertionError("a scenario ran")

        monkeypatch.setattr(harness, "run_random", never)
        config = dataclasses.replace(small_cfg, arrival_sweep=(6.0,) + arrivals)
        with pytest.raises(ValueError, match="share the sweep label a2"):
            sweep(config, scenarios=("random",), seeds=SEEDS)
        # checked before the first checkpoint is looked for
        with pytest.raises(ValueError, match="share the sweep label a2"):
            sweep(config, scenarios=("ppo-clean",), seeds=SEEDS,
                  artifacts=None)

    @pytest.mark.parametrize("seeds", [(11, 11, 12), (11, -1), ()])
    def test_bad_seeds_rejected_before_running(self, small_cfg, artifacts,
                                               monkeypatch, seeds):
        def never(*args):
            raise AssertionError("a scenario ran")

        monkeypatch.setattr(harness, "run_random", never)
        monkeypatch.setattr(harness, "run_optimal", never)
        for call in (lambda: run_scenario("random", small_cfg, seeds=seeds),
                     lambda: sweep(small_cfg, ("random",), seeds=seeds),
                     lambda: compare(small_cfg, artifacts, seeds=seeds)):
            with pytest.raises(ConfigValidationError) as err:
                call()
            assert err.value.field_name == "seeds"

    def test_sweep_rejects_empty_scenario_list(self, small_cfg):
        with pytest.raises(ValueError, match="no scenario"):
            sweep(small_cfg, scenarios=(), seeds=SEEDS)


class TestAggregates:
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_one_aggregate_per_run(self, small_cfg, artifacts, monkeypatch,
                                   name):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
        calls = []

        def counting(aggregate):
            def aggregate_recorded(records, config):
                calls.append(len(records))
                return aggregate(records, config)
            return aggregate_recorded

        for module in (harness, ensemble):
            monkeypatch.setattr(module, "aggregate",
                                counting(module.aggregate))
        run_scenario(name, small_cfg, seeds=SEEDS, artifacts=artifacts)
        assert calls == [len(SEEDS)]


class TestCompare:
    def test_all_five_scenarios_in_order(self, small_cfg, artifacts):
        results = compare(small_cfg, artifacts, seeds=SEEDS[:2])
        assert [r.name for r in results] == list(SCENARIO_NAMES)
        table = compare_table(results)
        for name in SCENARIO_NAMES:
            assert name in table
        optimal_line = next(line for line in table.splitlines()
                            if line.startswith("optimal"))
        assert "1.0000" in optimal_line
