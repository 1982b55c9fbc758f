import dataclasses

import numpy as np
import pytest

from slice_arena.adversary import AttackConfig, PoisonedEnv
from slice_arena.ensemble import (ENSEMBLE_MAGIC, EnsembleManifestError,
                                  EnsembleSpec, MemberQualityError,
                                  _decode_config, _encode_config,
                                  check_member_quality, default_member_configs,
                                  evaluate_policy, evaluate_under_attack,
                                  load_ensemble, save_ensemble, select_model,
                                  train_ensemble)
from slice_arena.env import SliceEnv
from slice_arena.metrics import aggregate
from slice_arena.policy import (DimensionMismatchError, init_parameters,
                                load_checkpoint, save_checkpoint)
from slice_arena.ppo import PpoConfig, train

from conftest import make_scenario, make_slice
from oracles import greedy_episodes_reference


def dummy_spec(members=4, selection_seed=0, **kwargs):
    return EnsembleSpec(
        member_configs=default_member_configs()[:members],
        parameters=[init_parameters(4, 3, hidden=(4,), seed=i)
                    for i in range(members)],
        selection_seed=selection_seed,
        **kwargs)


@pytest.fixture(scope="module")
def serving_sequence():
    spec = dummy_spec()
    return np.array([select_model(spec, t) for t in range(40_000)])


@pytest.fixture(scope="module")
def tiny_scenario():
    return make_scenario(slices=(make_slice(arrival_mean=2.0),), horizon=25)


def tiny_configs(count):
    return [PpoConfig(steps_per_update=128, total_env_steps=256,
                      minibatch_size=32, hidden_sizes=(8,), seed=i)
            for i in range(count)]


@pytest.fixture(scope="module")
def attacked_ensemble(tiny_scenario):
    return train_ensemble(
        tiny_scenario, tiny_configs(2),
        attack=AttackConfig(attack_probability=0.5, seed=3),
        selection_seed=11, gate_ratio=0.0, gate_seeds=(1,))


class TestSelection:
    def test_members_served_uniformly(self, serving_sequence):
        freq = np.bincount(serving_sequence, minlength=4) / len(serving_sequence)
        assert np.all(np.abs(freq - 0.25) <= 0.02)

    def test_chi_square_statistic(self, serving_sequence):
        counts = np.bincount(serving_sequence, minlength=4)
        expected = len(serving_sequence) / 4
        stat = float(((counts - expected) ** 2 / expected).sum())
        # chi-square critical value, 3 dof, p = 0.001
        assert stat < 16.27

    def test_no_lag_one_correlation(self, serving_sequence):
        x = serving_sequence.astype(float)
        rho = float(np.corrcoef(x[:-1], x[1:])[0, 1])
        assert abs(rho) < 0.02

    def test_single_member_always_zero(self):
        spec = dummy_spec(members=1)
        assert all(select_model(spec, t) == 0 for t in range(100))

    def test_deterministic_per_seed_and_slot(self):
        a = dummy_spec(selection_seed=7)
        b = dummy_spec(selection_seed=7)
        assert [select_model(a, t) for t in range(50)] == \
               [select_model(b, t) for t in range(50)]

    def test_selection_seed_changes_schedule(self):
        a = dummy_spec(selection_seed=0)
        b = dummy_spec(selection_seed=1)
        assert [select_model(a, t) for t in range(200)] != \
               [select_model(b, t) for t in range(200)]


class TestSpecValidation:
    def test_member_count_mismatch(self):
        spec = dummy_spec()
        spec.parameters = spec.parameters[:3]
        with pytest.raises(ValueError, match="member count"):
            spec.validate()

    def test_dimension_mismatch(self):
        spec = dummy_spec()
        spec.parameters[2] = init_parameters(5, 3, hidden=(4,), seed=2)
        with pytest.raises(ValueError, match="dimensions"):
            spec.validate()

    def test_attacked_member_range(self):
        spec = dummy_spec(attacked_member=4)
        with pytest.raises(ValueError, match="attacked_member"):
            spec.validate()

    def test_empty_ensemble(self):
        spec = dummy_spec()
        spec.member_configs = []
        spec.parameters = []
        with pytest.raises(ValueError, match="at least one"):
            spec.validate()


class TestQualityGate:
    def test_weak_member_flagged_with_index(self):
        spec = dummy_spec(members=3)
        spec.clean_admission = (0.4, 0.2, 0.41)
        with pytest.raises(MemberQualityError) as err:
            check_member_quality(spec, gate_ratio=0.9)
        assert err.value.member_index == 1

    def test_attacked_member_exempt(self):
        spec = dummy_spec(members=2, attacked_member=1)
        spec.clean_admission = (0.4, 0.05)
        check_member_quality(spec, gate_ratio=0.9)

    def test_boundary_inclusive(self):
        spec = dummy_spec(members=2)
        spec.clean_admission = (0.4, 0.36)
        check_member_quality(spec, gate_ratio=0.9)
        spec.clean_admission = (0.4, 0.3599)
        with pytest.raises(MemberQualityError):
            check_member_quality(spec, gate_ratio=0.9)

    def test_requires_recorded_rates(self):
        with pytest.raises(ValueError, match="clean admission"):
            check_member_quality(dummy_spec())

    def test_all_members_attacked_passes(self):
        spec = dummy_spec(members=1, attacked_member=0)
        spec.clean_admission = (0.01,)
        check_member_quality(spec)


class TestDefaultConfigs:
    def test_four_distinct_variants(self):
        configs = default_member_configs(base_seed=10)
        assert len(configs) == 4
        assert len({(c.hidden_sizes, c.minibatch_size, c.discount,
                     c.learning_rate) for c in configs}) == 4
        assert [c.seed for c in configs] == [10, 11, 12, 13]

    def test_config_id_round_trip(self):
        off_default = PpoConfig(
            clip_range=0.3, discount=0.97, gae_lambda=0.9, steps_per_update=512,
            epochs_per_update=4, minibatch_size=32, learning_rate=1e-3,
            value_loss_coeff=0.25, entropy_coeff=0.0, total_env_steps=4096,
            seed=17, hidden_sizes=(32, 16, 8))
        assert all(getattr(off_default, f.name) != f.default
                   for f in dataclasses.fields(PpoConfig))
        for config in [*default_member_configs(base_seed=3), off_default]:
            assert _decode_config(_encode_config(config)) == config


class TestManifest:
    def test_round_trip(self, tmp_path):
        spec = dummy_spec(members=3, attacked_member=2)
        save_ensemble(spec, tmp_path)
        loaded = load_ensemble(tmp_path, selection_seed=9)
        assert loaded.member_configs == spec.member_configs
        assert loaded.attacked_member == 2
        assert loaded.selection_seed == 9
        for got, want in zip(loaded.parameters, spec.parameters):
            for a, b in zip(got.arrays(), want.arrays()):
                assert np.array_equal(a, b)

    def test_loads_from_manifest_path(self, tmp_path):
        manifest = save_ensemble(dummy_spec(members=2), tmp_path)
        assert manifest.name == "manifest.txt"
        loaded = load_ensemble(manifest)
        assert len(loaded) == 2
        assert loaded.attacked_member == -1

    def test_resave_byte_identical(self, tmp_path):
        spec = dummy_spec(members=2, attacked_member=0)
        first = save_ensemble(spec, tmp_path / "a")
        second = save_ensemble(load_ensemble(tmp_path / "a"), tmp_path / "b")
        assert first.read_bytes() == second.read_bytes()
        for i in range(2):
            assert (tmp_path / "a" / f"member_{i}.ckpt").read_bytes() == \
                   (tmp_path / "b" / f"member_{i}.ckpt").read_bytes()

    def test_magic_line_first(self, tmp_path):
        manifest = save_ensemble(dummy_spec(members=2), tmp_path)
        lines = manifest.read_text().splitlines()
        assert lines[0] == ENSEMBLE_MAGIC
        assert lines[1] == "2"
        assert len(lines) == 4

    def test_missing_directory(self, tmp_path):
        with pytest.raises(EnsembleManifestError, match="no ensemble manifest"):
            load_ensemble(tmp_path / "nope")

    def test_bad_magic(self, tmp_path):
        manifest = save_ensemble(dummy_spec(members=2), tmp_path)
        body = manifest.read_text().replace(ENSEMBLE_MAGIC, "SOMETHING v9")
        manifest.write_text(body)
        with pytest.raises(EnsembleManifestError, match="magic"):
            load_ensemble(tmp_path)

    def test_member_count_mismatch(self, tmp_path):
        manifest = save_ensemble(dummy_spec(members=2), tmp_path)
        lines = manifest.read_text().splitlines()
        lines[1] = "3"
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(EnsembleManifestError, match="member lines"):
            load_ensemble(tmp_path)

    def test_bad_attacked_flag(self, tmp_path):
        manifest = save_ensemble(dummy_spec(members=2), tmp_path)
        body = manifest.read_text().replace("\t0\n", "\t2\n", 1)
        manifest.write_text(body)
        with pytest.raises(EnsembleManifestError, match="attacked flag"):
            load_ensemble(tmp_path)

    def test_two_attacked_members_rejected(self, tmp_path):
        manifest = save_ensemble(dummy_spec(members=2, attacked_member=1),
                                 tmp_path)
        body = manifest.read_text().replace("\t0\n", "\t1\n")
        manifest.write_text(body)
        with pytest.raises(EnsembleManifestError, match="more than one"):
            load_ensemble(tmp_path)

    def test_unknown_config_field(self, tmp_path):
        manifest = save_ensemble(dummy_spec(members=2), tmp_path)
        body = manifest.read_text().replace("clip_range=", "clip_rage=")
        manifest.write_text(body)
        with pytest.raises(EnsembleManifestError, match="unknown config field"):
            load_ensemble(tmp_path)

    @pytest.mark.parametrize("field_name, good, bad", [
        ("seed", ";seed=0;", ";seed=abc;"),
        ("clip_range", "clip_range=0.2;", "clip_range=wide;"),
        ("hidden_sizes", "hidden_sizes=64x64", "hidden_sizes=64xq"),
    ])
    def test_malformed_config_value_names_field(self, tmp_path, field_name,
                                                good, bad):
        manifest = save_ensemble(dummy_spec(members=2), tmp_path)
        body = manifest.read_text()
        assert good in body
        manifest.write_text(body.replace(good, bad, 1))
        with pytest.raises(EnsembleManifestError,
                           match=f"config field '{field_name}'"):
            load_ensemble(tmp_path)

    def test_config_fragment_without_equals(self, tmp_path):
        manifest = save_ensemble(dummy_spec(members=2), tmp_path)
        body = manifest.read_text().replace("clip_range=0.2", "clip_range")
        manifest.write_text(body)
        with pytest.raises(EnsembleManifestError, match="fragment"):
            load_ensemble(tmp_path)

    def test_missing_checkpoint_file(self, tmp_path):
        save_ensemble(dummy_spec(members=2), tmp_path)
        (tmp_path / "member_1.ckpt").unlink()
        with pytest.raises(EnsembleManifestError, match="missing checkpoint"):
            load_ensemble(tmp_path)


class TestEvaluation:
    def identical_member_spec(self, scenario, members=2):
        from slice_arena.env import SliceEnv
        env = SliceEnv(scenario)
        params = init_parameters(env.observation_size, env.n_actions,
                                 hidden=(8,), seed=1)
        return params, EnsembleSpec(
            member_configs=default_member_configs()[:members],
            parameters=[params.copy() for _ in range(members)],
            selection_seed=4)

    def test_identical_members_match_single_model(self, tiny_scenario):
        params, spec = self.identical_member_spec(tiny_scenario)
        attack = AttackConfig(attack_probability=0.3, seed=9)
        single_records = evaluate_policy(params, tiny_scenario, seeds=(5, 6),
                                         attack=attack, name="ppo-mtd")
        mtd_records = evaluate_under_attack(spec, tiny_scenario, attack,
                                            seeds=(5, 6))
        single = aggregate(single_records, tiny_scenario)
        mtd = aggregate(mtd_records, tiny_scenario)
        assert mtd == single
        for got, want in zip(mtd_records, single_records):
            assert got.attacked_by_slot == want.attacked_by_slot
            assert [s.reward for s in got.slot_log] == \
                   [s.reward for s in want.slot_log]

    def test_clean_evaluation_reports_no_attacks(self, tiny_scenario):
        params, _ = self.identical_member_spec(tiny_scenario)
        records = evaluate_policy(params, tiny_scenario, seeds=(3,))
        metrics = aggregate(records, tiny_scenario)
        assert metrics.attacked_fraction == 0.0
        assert records[0].attacked_by_slot == {}
        assert records[0].model_index == 0

    def test_member_map_uses_global_slot_offset(self, tiny_scenario):
        _, spec = self.identical_member_spec(tiny_scenario, members=4)
        attack = AttackConfig(attack_probability=0.0, seed=0)
        records = evaluate_under_attack(spec, tiny_scenario, attack,
                                        seeds=(5, 5))
        first, second = records
        assert all(0 <= s < tiny_scenario.horizon
                   for s in first.member_by_slot)
        # same env seed, but the global slot counter keeps advancing, so the
        # serving schedule differs between episodes
        assert first.member_by_slot != second.member_by_slot
        for slot, member in first.member_by_slot.items():
            assert member == select_model(spec, slot)
        offset = tiny_scenario.horizon
        for slot, member in second.member_by_slot.items():
            assert member == select_model(spec, offset + slot)


class TestLockstep:
    """The lockstep driver against the per-seed batch-1 reference loop."""

    # episodes of 45, 50, 55 and 54 decisions: environments leave the
    # lockstep batch at different steps
    SEEDS = (1, 2, 3, 4)

    def varied_members(self, scenario, count):
        """Members whose greedy choice depends on the observation, each in
        its own way (admit-heavy, reject-heavy, mixed)."""
        from slice_arena.env import SliceEnv
        env = SliceEnv(scenario)
        members = []
        for i in range(count):
            params = init_parameters(env.observation_size, env.n_actions,
                                     hidden=(8,), seed=i)
            rng = np.random.default_rng(i)
            w, b = params.actor[0]
            w[...] = rng.normal(0, 4, w.shape)
            b[...] = rng.normal(0, 2, b.shape)
            w, b = params.actor[-1]
            w[...] = rng.normal(0, 2, w.shape)
            members.append(params)
        return members

    def assert_matches(self, records, reference):
        decisions = [sum(s.decisions for s in r.slot_log) for r in records]
        assert len(set(decisions)) == len(decisions)
        assert len(records) == len(reference)
        for record, (slot_log, attacked, member_by_slot) in zip(records,
                                                                 reference):
            assert record.slot_log == slot_log
            assert record.attacked_by_slot == attacked
            assert record.member_by_slot == member_by_slot
            if member_by_slot is not None:
                assert list(record.member_by_slot) == list(member_by_slot)

    def count_greedy_actions(self, monkeypatch):
        import slice_arena.ensemble as ensemble
        rows = []
        original = ensemble.greedy_actions

        def counting(params, observations):
            rows.append(len(observations))
            return original(params, observations)

        monkeypatch.setattr(ensemble, "greedy_actions", counting)
        return rows

    def test_clean_policy_matches_reference(self, tiny_scenario):
        params = self.varied_members(tiny_scenario, 1)[0]
        records = evaluate_policy(params, tiny_scenario, self.SEEDS)
        self.assert_matches(records, greedy_episodes_reference(
            [params], tiny_scenario, self.SEEDS))

    def test_attacked_policy_matches_reference(self, tiny_scenario):
        params = self.varied_members(tiny_scenario, 3)[2]
        attack = AttackConfig(attack_probability=0.5, seed=9)
        records = evaluate_policy(params, tiny_scenario, self.SEEDS,
                                  attack=attack)
        assert any(r.attacked_by_slot for r in records)
        self.assert_matches(records, greedy_episodes_reference(
            [params], tiny_scenario, self.SEEDS, attack=attack))

    def test_ensemble_matches_reference(self, tiny_scenario):
        members = self.varied_members(tiny_scenario, 4)
        spec = EnsembleSpec(member_configs=default_member_configs(),
                            parameters=members, selection_seed=4)
        attack = AttackConfig(attack_probability=0.3, seed=2)
        records = evaluate_under_attack(spec, tiny_scenario, attack,
                                        seeds=self.SEEDS)
        reference = greedy_episodes_reference(
            members, tiny_scenario, self.SEEDS, attack=attack,
            serve=lambda slot: select_model(spec, slot))
        assert {m for r in records for m in r.member_by_slot.values()} == \
            {0, 1, 2, 3}
        self.assert_matches(records, reference)

    def test_one_batched_forward_per_step(self, tiny_scenario, monkeypatch):
        params = self.varied_members(tiny_scenario, 1)[0]
        rows = self.count_greedy_actions(monkeypatch)
        records = evaluate_policy(params, tiny_scenario, self.SEEDS)
        decisions = [sum(s.decisions for s in r.slot_log) for r in records]
        # one call per lockstep step, over the environments still live
        assert len(rows) == max(decisions)
        assert rows == [sum(d > step for d in decisions)
                        for step in range(max(decisions))]

    def test_one_batched_forward_per_member_per_step(self, tiny_scenario,
                                                     monkeypatch):
        members = self.varied_members(tiny_scenario, 4)
        spec = EnsembleSpec(member_configs=default_member_configs(),
                            parameters=members, selection_seed=4)
        attack = AttackConfig(attack_probability=0.3, seed=2)
        rows = self.count_greedy_actions(monkeypatch)
        records = evaluate_under_attack(spec, tiny_scenario, attack,
                                        seeds=self.SEEDS)
        # the member deciding each step of each episode, in step order
        serving = [[r.member_by_slot[s.slot] for s in r.slot_log
                    for _ in range(s.decisions)] for r in records]
        present = [len({seq[step] for seq in serving if step < len(seq)})
                   for step in range(max(len(seq) for seq in serving))]
        assert len(rows) <= sum(present)
        assert sum(rows) == sum(len(seq) for seq in serving)

    def test_mismatched_checkpoint_raises(self, tiny_scenario, tmp_path):
        from slice_arena.env import SliceEnv
        env = SliceEnv(tiny_scenario)
        path = str(tmp_path / "wide.ckpt")
        save_checkpoint(init_parameters(env.observation_size + 1, env.n_actions,
                                        hidden=(8,)), path)
        with pytest.raises(DimensionMismatchError):
            evaluate_policy(load_checkpoint(path), tiny_scenario, self.SEEDS)

    def test_non_finite_observation_raises(self, tiny_scenario, monkeypatch):
        import slice_arena.ensemble as ensemble
        from slice_arena.env import SliceEnv

        class NanAtSlotTwo(SliceEnv):
            def observation(self):
                obs = super().observation()
                if self.state.slot_index == 2:
                    obs[-1] = np.nan
                return obs

        monkeypatch.setattr(ensemble, "SliceEnv", NanAtSlotTwo)
        params = self.varied_members(tiny_scenario, 1)[0]
        with pytest.raises(DimensionMismatchError, match="non-finite"):
            evaluate_policy(params, tiny_scenario, self.SEEDS)

    def test_no_seeds_no_records(self, tiny_scenario):
        members = self.varied_members(tiny_scenario, 2)
        spec = EnsembleSpec(member_configs=default_member_configs()[:2],
                            parameters=members)
        assert evaluate_policy(members[0], tiny_scenario, seeds=[]) == []
        assert evaluate_under_attack(spec, tiny_scenario, AttackConfig(),
                                     seeds=[]) == []


class TestTrainEnsemble:
    def test_exactly_one_member_trains_under_attack(self, attacked_ensemble):
        spec = attacked_ensemble
        assert 0 <= spec.attacked_member < 2
        for index, steps in enumerate(spec.training_attacked_steps):
            if index == spec.attacked_member:
                assert steps > 0
            else:
                assert steps == 0

    def test_attacked_steps_match_a_direct_run(self, attacked_ensemble,
                                              tiny_scenario):
        spec = attacked_ensemble
        wrapper = PoisonedEnv(SliceEnv(tiny_scenario),
                              AttackConfig(attack_probability=0.5, seed=3))
        train(lambda: wrapper, spec.member_configs[spec.attacked_member])
        assert wrapper.lifetime_attacked > 0
        assert (spec.training_attacked_steps[spec.attacked_member]
                == wrapper.lifetime_attacked)

    def test_clean_admission_recorded(self, attacked_ensemble):
        assert len(attacked_ensemble.clean_admission) == 2
        assert all(0.0 <= a <= 1.0 for a in attacked_ensemble.clean_admission)

    def test_round_trips_through_manifest(self, attacked_ensemble, tmp_path):
        save_ensemble(attacked_ensemble, tmp_path)
        loaded = load_ensemble(tmp_path, selection_seed=11)
        assert loaded.attacked_member == attacked_ensemble.attacked_member
        assert loaded.member_configs == attacked_ensemble.member_configs

    def test_clean_ensemble_has_no_attacked_member(self, tiny_scenario):
        spec = train_ensemble(tiny_scenario, tiny_configs(1),
                              gate_seeds=(1,))
        assert spec.attacked_member == -1
        assert spec.training_attacked_steps == (0,)

    def test_rejects_empty_member_list(self, tiny_scenario):
        with pytest.raises(ValueError, match="at least one"):
            train_ensemble(tiny_scenario, [])


class TestRetraining:
    """Gate-failure retraining, with training and evaluation stubbed so the
    rate sequence is exact."""

    def _stub(self, monkeypatch, rates):
        from types import SimpleNamespace

        calls = {"train": 0}
        queue = list(rates)
        params = init_parameters(4, 3, hidden=(4,), seed=0)

        def fake_train(env_factory, config, initial_params=None):
            calls["train"] += 1
            return SimpleNamespace(params=params)

        def fake_evaluate(p, scenario, seeds, **kwargs):
            return []

        def fake_aggregate(records, scenario):
            return SimpleNamespace(admission_rate=queue.pop(0))

        monkeypatch.setattr("slice_arena.ensemble.train", fake_train)
        monkeypatch.setattr("slice_arena.ensemble.evaluate_policy",
                            fake_evaluate)
        monkeypatch.setattr("slice_arena.ensemble.aggregate", fake_aggregate)
        return calls

    def test_failing_member_retrained_on_fresh_seed(self, tiny_scenario,
                                                    monkeypatch):
        calls = self._stub(monkeypatch, [0.9, 0.3, 0.85])
        spec = train_ensemble(tiny_scenario, tiny_configs(2))
        assert calls["train"] == 3
        assert spec.clean_admission == (0.9, 0.85)
        # member 1 retrained once: seed 1 + count 2 * round 1
        assert [c.seed for c in spec.member_configs] == [0, 3]

    def test_worse_retrain_attempt_is_discarded(self, tiny_scenario,
                                                monkeypatch):
        # rounds: 0.2 discarded, 0.4 kept, 0.85 kept and passes
        calls = self._stub(monkeypatch, [0.9, 0.3, 0.2, 0.4, 0.85])
        spec = train_ensemble(tiny_scenario, tiny_configs(2))
        assert calls["train"] == 5
        assert spec.clean_admission == (0.9, 0.85)
        # discarded round 1 left the seed at 1, round 2 bumped it to 1+4,
        # round 3 to 5+6
        assert [c.seed for c in spec.member_configs] == [0, 11]

    def test_gate_raises_after_retries_exhausted(self, tiny_scenario,
                                                 monkeypatch):
        calls = self._stub(monkeypatch, [0.9, 0.3, 0.35, 0.4, 0.45])
        with pytest.raises(MemberQualityError) as err:
            train_ensemble(tiny_scenario, tiny_configs(2))
        assert calls["train"] == 5
        assert err.value.member_index == 1
        assert err.value.admission == pytest.approx(0.45)

    def test_zero_rounds_disables_retraining(self, tiny_scenario, monkeypatch):
        calls = self._stub(monkeypatch, [0.9, 0.3])
        with pytest.raises(MemberQualityError):
            train_ensemble(tiny_scenario, tiny_configs(2),
                           max_retrain_rounds=0)
        assert calls["train"] == 2
