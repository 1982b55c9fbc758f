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
        _, records = slice_arena.evaluate_policy(params, paper_cfg, (1, 2))
    decisions = sum(s.decisions for r in records for s in r.slot_log)
    assert tracer.calls["env.step"] == decisions
    assert tracer.calls["metrics.aggregate"] == 1


def test_traced_baselines_count_every_decision(paper_cfg):
    # the runners must look the baselines up when they run, not bind them
    # at import (say, as a default argument), or the tracer never sees a call
    config = dataclasses.replace(paper_cfg, horizon=20)
    with tracing.Tracer(slice_arena) as tracer:
        random = slice_arena.run_scenario("random", config, seeds=(1, 2))
        optimal = slice_arena.run_scenario("optimal", config, seeds=(1, 2))
    decisions = sum(s.decisions for r in random.records for s in r.slot_log)
    decided_slots = sum(1 for r in optimal.records for s in r.slot_log
                        if s.decisions)
    assert tracer.calls["baselines.random_decision"] == decisions
    assert tracer.calls["baselines.oracle_call"] == decided_slots
