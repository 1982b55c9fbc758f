"""Each output check passes on genuine program output and rejects a
deliberately corrupted copy of it.

    python3 -m pytest perfbench/test_checks.py     # or
    python3 perfbench/test_checks.py

The genuine output is a short run (3 seeds x 30 slots) of every scenario
on the paper config, using the committed full-budget checkpoints.
"""
from __future__ import annotations

import copy
import dataclasses
import functools
import math
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402

SEEDS = (11, 12, 13)
MEMBERS = 4


@functools.lru_cache(maxsize=None)
def genuine():
    """(facts, config, metrics rows, summary rows) of a short compare run."""
    sa = run.load_program()
    config = dataclasses.replace(run.setup(sa, "evaluate"), horizon=30)
    attack = sa.adversary.AttackConfig(attack_probability=run.ATTACK_PROBABILITY,
                                       seed=5)
    results = [sa.harness.run_scenario(name, config, seeds=SEEDS,
                                       artifacts=run.INPUTS, attack=attack)
               for name in run.SCENARIOS]
    with tempfile.TemporaryDirectory() as tmp:
        sa.harness.write_results(results, tmp, config)
        rows = checks.read_metrics(Path(tmp) / "metrics.csv")
        summary = checks.read_summary(Path(tmp) / "summary.csv")
    return checks.Facts.from_config(config), config, rows, summary


def fresh():
    facts, config, rows, summary = genuine()
    return facts, config, copy.deepcopy(rows), copy.deepcopy(summary)


def means(config):
    return {name: {s.slice_id: s.arrival_mean for s in config.slices}
            for name in run.SCENARIOS}


ATTACK = {"optimal": 0.0, "ppo-clean": 0.0, "ppo-attacked": 0.25,
          "ppo-mtd": 0.25, "random": 0.0}


def rows_of(rows, label):
    return [row for row in rows if row["scenario"] == label]


def test_genuine_output_passes():
    facts, config, rows, summary = fresh()
    assert not checks.row_errors(rows, facts)
    assert not checks.summary_errors(rows, summary, facts)
    assert not checks.arrival_errors(rows, means(config))
    assert not checks.same_traffic_errors(rows, run.SCENARIOS)
    assert not checks.attack_errors(rows, ATTACK)
    assert not checks.member_errors(rows, "ppo-mtd", MEMBERS)
    assert not checks.infeasible_errors(rows, ["optimal"])


def test_reward_off_by_one_penalty():
    facts, _, rows, _ = fresh()
    target = rows_of(rows, "ppo-clean")[:2]  # both slice rows of one slot
    for row in target:
        row["reward"] -= facts.m_penalty
    assert "ppo-clean" in checks.row_errors(rows, facts)


def test_accounting_identity():
    facts, _, rows, _ = fresh()
    rows_of(rows, "random")[0]["admitted"] += 1
    assert "random" in checks.row_errors(rows, facts)


def test_power_above_ceiling():
    facts, _, rows, _ = fresh()
    for row in rows_of(rows, "optimal")[:2]:
        excess = facts.ceiling * 1.5 - row["power"]
        row["power"] += excess
        row["normalized_power"] = row["power"] / facts.ceiling
        row["reward"] -= excess
    errors = checks.row_errors(rows, facts)["optimal"]
    assert any("outside [0" in message for message in errors)


def test_normalized_power():
    facts, _, rows, _ = fresh()
    for row in rows_of(rows, "ppo-mtd")[:2]:
        row["normalized_power"] += 1e-3
    assert "ppo-mtd" in checks.row_errors(rows, facts)


def test_summary_recomputation():
    facts, _, rows, summary = fresh()
    summary[1]["slot_reward_mean"] = str(float(summary[1]["slot_reward_mean"]) + 1.0)
    assert summary[1]["scenario"] in checks.summary_errors(rows, summary, facts)


def test_same_traffic():
    _, _, rows, _ = fresh()
    row = rows_of(rows, "ppo-attacked")[0]
    row["arrived"] += 1
    row["rejected"] += 1
    assert "ppo-attacked" in checks.same_traffic_errors(rows, run.SCENARIOS)


def test_arrival_mean():
    _, config, rows, _ = fresh()
    for row in rows:
        row["arrived"] += 2
        row["rejected"] += 2
    assert checks.arrival_errors(rows, means(config))


def test_attacked_share():
    _, _, rows, _ = fresh()
    for row in rows_of(rows, "ppo-attacked"):
        row["attacked"] = 0
    rows_of(rows, "ppo-clean")[0]["attacked"] = 1
    errors = checks.attack_errors(rows, ATTACK)
    assert "ppo-attacked" in errors and "ppo-clean" in errors


def test_member_share():
    _, _, rows, _ = fresh()
    for row in rows_of(rows, "ppo-mtd"):
        if row["model_index"] >= 0:
            row["model_index"] = 0
    assert checks.member_errors(rows, "ppo-mtd", MEMBERS)


def test_oracle_infeasible_attempt():
    _, _, rows, _ = fresh()
    row = next(r for r in rows_of(rows, "optimal") if r["rejected"])
    row["rejected"] -= 1
    row["infeasible"] += 1
    assert "optimal" in checks.infeasible_errors(rows, ["optimal"])


def test_oracle_against_brute_force():
    sa = run.load_program()
    config = run.setup(sa, "train")
    instances, decisions = run.slot_instances(sa, config, seed=3, count=8)
    assert not checks.oracle_errors(instances, decisions)
    # the mirrored assignment (DC 1 <-> DC 2) is never the lexicographically
    # smallest optimum once it places anything on DC 1
    mirrored = [tuple({1: 2, 2: 1}.get(c, c) for c in d) for d in decisions]
    assert any(1 in d for d in decisions)
    assert checks.oracle_errors(instances, mirrored)


def test_gae_reference():
    rewards = [1.0, -2.0, 3.0, 0.5, 4.0]
    values = [0.1, 0.2, -0.3, 0.4, 0.0]
    dones = [False, True, False, False, True]
    adv, ret = checks.gae_reference(rewards, values, dones, 7.0, 0.9, 0.8)
    assert not checks.gae_errors(adv, ret, rewards, values, dones, 7.0, 0.9, 0.8)
    # ignoring episode ends must be caught
    wrong, wrong_ret = checks.gae_reference(rewards, values, [False] * 5, 7.0, 0.9, 0.8)
    assert checks.gae_errors(wrong, wrong_ret, rewards, values, dones, 7.0, 0.9, 0.8)


def test_checkpoint_finite():
    source = run.INPUTS / "model.ckpt"
    assert not checks.checkpoint_errors(source)
    lines = source.read_text(encoding="utf-8").splitlines()
    with tempfile.TemporaryDirectory() as tmp:
        bad = Path(tmp) / "bad.ckpt"
        bad.write_text("\n".join(lines[:10] + ["nan"] + lines[11:]) + "\n",
                       encoding="utf-8")
        assert checks.checkpoint_errors(bad)
        bad.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        assert checks.checkpoint_errors(bad)


def test_improvement_over_initial_policy():
    assert not checks.improvement_errors("clean", [1e5, -3.0], [-1e8, -4.0])
    assert checks.improvement_errors("clean", [1e5, -4.0], [-1e8, -4.0])
    assert checks.improvement_errors("clean", [math.nan], [-1e8])


def test_repeated_round_digest():
    config = genuine()[1]
    sa = run.load_program()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        result = sa.harness.run_scenario("random", config, seeds=SEEDS)
        sa.harness.write_results([result], out, config)
        first = run.csv_digests(out)
        text = (out / "metrics.csv").read_text(encoding="utf-8")
        (out / "metrics.csv").write_text(text.replace(",0,", ",1,", 1),
                                         encoding="utf-8")
        assert run.csv_digests(out)["random"] != first["random"]


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"ok   {name}")
        except AssertionError:
            failed += 1
            print(f"FAIL {name}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    sys.exit(1 if failed else 0)
