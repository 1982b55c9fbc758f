"""The per-layer tracer of the benchmark (perfbench/tracing.py) wraps module
attributes of slice_arena by name. A refactor that removes or renames one
of them breaks `perfbench/run.py --trace 1`; these tests catch it here."""
import dataclasses
import sys
from pathlib import Path

import slice_arena

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402


def resolve(module_name, attr):
    owner = getattr(slice_arena, module_name)
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
    return getattr(owner, attr)


def test_every_span_resolves_and_is_restored():
    before = [resolve(module, attr) for module, attr, _ in tracing.SPANS]
    with tracing.Tracer(slice_arena):
        during = [resolve(module, attr) for module, attr, _ in tracing.SPANS]
    after = [resolve(module, attr) for module, attr, _ in tracing.SPANS]
    assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))


def test_traced_evaluation_counts_steps(paper_cfg):
    env = slice_arena.SliceEnv(paper_cfg)
    params = slice_arena.init_parameters(env.observation_size, env.n_actions,
                                         hidden=(4,), seed=0)
    with tracing.Tracer(slice_arena) as tracer:
        records = slice_arena.evaluate_policy(params, paper_cfg, (1, 2))
    decisions = sum(s.decisions for r in records for s in r.slot_log)
    assert tracer.calls["env.step"] == decisions
    assert tracer.calls["metrics.aggregate"] == 0


def test_traced_attacked_evaluation_counts_every_forgery(paper_cfg):
    # PoisonedEnv must forge through its adversary instance, so that the
    # adversary.forge span sees one call per forged decision
    env = slice_arena.SliceEnv(paper_cfg)
    params = slice_arena.init_parameters(env.observation_size, env.n_actions,
                                         hidden=(4,), seed=0)
    attack = slice_arena.AttackConfig(attack_probability=0.25, seed=3)
    with tracing.Tracer(slice_arena) as tracer:
        records = slice_arena.evaluate_policy(params, paper_cfg, (1, 2),
                                              attack=attack)
    forged = sum(sum(r.attacked_by_slot.values()) for r in records)
    assert forged > 100
    assert tracer.calls["adversary.forge"] == forged


def test_traced_baselines_count_every_decision(paper_cfg, monkeypatch):
    # the runners must look the baselines up when they run, not bind them
    # at import (say, as a default argument), or the tracer never sees a call;
    # on one process, since a forked worker's calls are not counted here
    monkeypatch.setattr(slice_arena.harness, "_usable_cpus", lambda: 1)
    config = dataclasses.replace(paper_cfg, horizon=20)
    with tracing.Tracer(slice_arena) as tracer:
        random = slice_arena.run_scenario("random", config, seeds=(1, 2))
        optimal = slice_arena.run_scenario("optimal", config, seeds=(1, 2))
    decisions = sum(s.decisions for r in random.records for s in r.slot_log)
    decided_slots = sum(1 for r in optimal.records for s in r.slot_log
                        if s.decisions)
    assert tracer.calls["baselines.random_decision"] == decisions
    assert tracer.calls["baselines.oracle_call"] == decided_slots


def test_traced_training_counts_every_layer(monkeypatch):
    # ppo.train must look up act, policy_forward, forward_batch,
    # backward_batch and compute_advantages when it runs; a bound or inlined
    # callee would zero that layer's per-layer metric without failing
    # anything else. The rollout steps the actor alone (act), so the batch-1
    # policy_forward span sees only the bootstrap values.
    from conftest import make_scenario, make_slice

    scenario = make_scenario(slices=(make_slice(arrival_mean=2.0),), horizon=25)
    dones = []

    class RecordingEnv(slice_arena.SliceEnv):
        def step(self, action):
            outcome = super().step(action)
            dones.append(outcome.episode_done)
            return outcome

    updates, steps, minibatch, epochs = 2, 64, 16, 2
    config = slice_arena.PpoConfig(steps_per_update=steps,
                                   total_env_steps=updates * steps,
                                   minibatch_size=minibatch,
                                   epochs_per_update=epochs, hidden_sizes=(8,))
    actor_steps = []
    real_act = slice_arena.ppo.act

    def counted_act(*args):
        actor_steps.append(args)
        return real_act(*args)

    monkeypatch.setattr(slice_arena.ppo, "act", counted_act)
    with tracing.Tracer(slice_arena) as tracer:
        slice_arena.ppo.train(lambda: RecordingEnv(scenario), config)
    minibatches = updates * epochs * (steps // minibatch)
    bootstraps = sum(not dones[(u + 1) * steps - 1] for u in range(updates))
    assert len(dones) == updates * steps
    assert tracer.calls["env.step"] == updates * steps
    assert len(actor_steps) == updates * steps
    assert tracer.calls["policy.forward1"] == bootstraps
    assert tracer.calls["policy.forward_batch"] == minibatches
    assert tracer.calls["policy.backward"] == minibatches
    assert tracer.calls["policy.adam"] == minibatches
    assert tracer.calls["ppo.gae"] == updates
    assert tracer.calls["ppo.update"] == updates


def test_traced_train_single_models_records_the_parent(tmp_path, monkeypatch):
    # the twin trains in a worker process, whose spans the parent never sees;
    # the clean model's training in the parent must still be recorded
    from conftest import make_scenario, make_slice

    scenario = make_scenario(slices=(make_slice(arrival_mean=2.0),), horizon=25)
    monkeypatch.setattr(slice_arena.harness, "_usable_cpus", lambda: 2)
    steps = slice_arena.PpoConfig().steps_per_update
    with tracing.Tracer(slice_arena) as tracer:
        slice_arena.train_single_models(scenario, tmp_path,
                                        total_env_steps=steps)
    assert tracer.calls["ppo.train"] == 1
    assert tracer.calls["ppo.update"] == 1
    assert tracer.calls["env.step"] == steps
    assert tracer.calls["policy.save_checkpoint"] == 1
