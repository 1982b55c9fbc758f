#!/usr/bin/env python3
"""Check that a git revision and the working tree write identical outputs.

    python3 scripts/identity_check.py REV

Unpacks ``git archive REV`` into a temporary directory, then runs eleven
probes on that tree and on the working tree:

* ``compare``: all five scenarios on the bundled paper.cfg (20 seeds, attack
  and selection seed 0, as ``slice-arena compare`` runs them) with the
  checkpoints in the working tree's perfbench/inputs, for both trees; the
  SHA-256 of metrics.csv and summary.csv;
* ``sweep``: ``sweep`` over all five scenarios on paper.cfg with
  ``arrival_sweep`` (2, 6), the config's first 5 seeds, the same checkpoints
  and attack and selection seed 0; the SHA-256 of metrics.csv and
  summary.csv;
* ``optimal-cap``: ``optimal`` alone on paper.cfg with every slice's
  ``chain_capacity`` at 20, where the data centers bind before the caps,
  on the config's first 5 seeds; the SHA-256 of metrics.csv;
* ``train``: ``train_single_models`` at seed 3 and 6,144 steps per model;
  the SHA-256 of both checkpoints;
* ``ensemble``: ``train_ensemble`` on paper.cfg with
  ``default_member_configs(3, 2048)`` and the attack at seed 3, then
  ``save_ensemble``; the SHA-256 of the manifest and of every member
  checkpoint, and the spec's ``clean_admission``, ``attacked_member`` and
  ``training_attacked_steps`` (the poisoned member's attacked steps,
  counted by ``PoisonedEnv``), which the manifest does not store;
* ``overprovision``: ``overprovision_power_ratio`` on
  ``overprovision_study_scenario(paper.cfg)`` at M = 10 and 12; the value;
* ``checkpoint-io``: every checkpoint in the working tree's perfbench/inputs
  (the two single models with ``load_checkpoint``/``save_checkpoint``, the
  ensemble with ``load_ensemble``/``save_ensemble``) loaded and saved again;
  the SHA-256 of every written file;
* ``config``: the ``repr`` of paper.cfg's ``ScenarioConfig``, and for each
  of twelve malformed copies of paper.cfg, one per error the loader raises,
  the exception's type and message.

Where a second CPU is usable and the platform can fork, the first four
probes take the two-process paths: ``run_scenario`` runs the second half of
its seeds in a worker process (10 of compare's 20 seeds; 3 of the 5 of
sweep and optimal-cap, an odd split), and the poisoned twin trains in one.
So they also hold those paths to the bytes of the revision's, and each
fails if a worker process outlives the call.

``compare-1cpu``, ``sweep-1cpu`` and ``train-1cpu`` run the compare, sweep
and train probes again on one CPU: the child pins itself to one usable CPU with
``os.sched_setaffinity`` (where that call exists) before it imports
slice_arena, and fails unless ``harness._can_fork()`` is then False. They
hold the one-process paths to the revision's one-process bytes, so a single
run checks both paths.

Each probe runs in a fresh interpreter that imports slice_arena from that
tree's src/ only. The probes run one after another and each is waited for,
so no process outlives the script. Prints every result, then a verdict line;
exits 0 only when every probe reported results and every result is
``same``, 1 when any differs, 2 when a probe fails or reports nothing.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import io
import json
import multiprocessing
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INPUTS = ROOT / "perfbench" / "inputs"
ONE_CPU = "-1cpu"
CAPPED_CHAINS = 20
ENSEMBLE_SEED = 3
PROBES = ("compare", "sweep", "optimal-cap", "train", "ensemble",
          "overprovision", "checkpoint-io", "config", "compare" + ONE_CPU,
          "sweep" + ONE_CPU, "train" + ONE_CPU)
# paper.cfg with its first `old` made `new`: one text per loader error
MALFORMED = {
    "unknown-global-key": ("kappa = 1000", "kappa = 1000\nbogus = 1"),
    "unknown-datacenter-key": ("power_high = 200", "power_high = 200\nrack = 3"),
    "unknown-slice-key": ("delay_budget = 1.07", "delay_budget = 1.07\nrack = 9"),
    "bad-section-header": ("[datacenter dc2]", "[warehouse dc2]"),
    "missing-equals": ("horizon = 200", "horizon 200"),
    "duplicate-key": ("cpu = 32", "cpu = 32\ncpu = 16"),
    "duplicate-id": ("[slice s2]", "[slice s1]"),
    "non-number": ("memory = 50", "memory = lots"),
    "non-finite": ("m_penalty = 150000", "m_penalty = inf"),
    "empty-seed-range": ("seeds = 101:120", "seeds = 120:101"),
    "missing-required-key": ("priority = 3\n", ""),
    "out-of-range": ("departure_prob = 0.3", "departure_prob = 1.3"),
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def no_worker_left(call: str) -> None:
    if multiprocessing.active_children():
        raise RuntimeError(f"a worker process outlived {call}")


def probe(name: str, tree: Path, scratch: Path) -> dict:
    """Run one probe in this interpreter on slice_arena from tree/src."""
    one_cpu = name.endswith(ONE_CPU)
    if one_cpu:
        name = name[:-len(ONE_CPU)]
        if hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    src = (tree / "src").resolve()
    sys.path.insert(0, str(src))
    import slice_arena as sa
    if Path(sa.__file__).resolve().parent != src / "slice_arena":
        raise RuntimeError(f"imported slice_arena from {sa.__file__}, not {src}")
    if one_cpu and sa.harness._can_fork():
        raise RuntimeError(f"the one-CPU pass of {name} could still fork")
    tag = name + (ONE_CPU if one_cpu else "")
    config = sa.load_config(sa.paper_config_path())
    if name == "compare":
        results = sa.compare(config, artifacts=INPUTS,
                             attack=sa.AttackConfig(seed=0), selection_seed=0)
        no_worker_left("compare")
        paths = sa.write_results(results, scratch / "compare", config)
        return {f"{tag}/{Path(p).name}": sha256(Path(p)) for p in paths}
    if name == "sweep":
        swept = dataclasses.replace(config, arrival_sweep=(2.0, 6.0))
        points = sa.sweep(swept, seeds=config.seeds[:5], artifacts=INPUTS,
                          attack=sa.AttackConfig(seed=0), selection_seed=0)
        no_worker_left("sweep")
        paths = sa.write_results([p.result for p in points], scratch / "sweep", swept)
        return {f"{tag}/{Path(p).name}": sha256(Path(p)) for p in paths}
    if name == "optimal-cap":
        capped = dataclasses.replace(config, slices=tuple(
            dataclasses.replace(s, chain_capacity=CAPPED_CHAINS)
            for s in config.slices))
        result = sa.harness.run_scenario("optimal", capped, seeds=config.seeds[:5])
        no_worker_left("run_scenario")
        metrics, _ = sa.write_results([result], scratch / "optimal-cap", capped)
        return {f"{tag}/{metrics.name}": sha256(metrics)}
    if name == "train":
        paths = sa.train_single_models(config, scratch / "train", seed=3,
                                       total_env_steps=6_144)
        no_worker_left("train_single_models")
        return {f"{tag}/{Path(p).name}": sha256(Path(p)) for p in paths}
    if name == "ensemble":
        spec = sa.train_ensemble(
            config, sa.default_member_configs(ENSEMBLE_SEED, 2_048),
            attack=sa.AttackConfig(seed=ENSEMBLE_SEED))
        no_worker_left("train_ensemble")
        manifest = sa.save_ensemble(spec, scratch / "ensemble")
        written = [manifest] + [manifest.parent / f"member_{i}.ckpt"
                                for i in range(len(spec))]
        found = {f"ensemble/{p.name}": sha256(p) for p in written}
        for field in ("clean_admission", "attacked_member",
                      "training_attacked_steps"):
            found[f"ensemble/{field}"] = repr(getattr(spec, field))
        return found
    if name == "checkpoint-io":
        out = scratch / "checkpoint-io"
        out.mkdir()
        written = [out / "ensemble" / "manifest.txt"]
        for model in ("model.ckpt", "attacked_model.ckpt"):
            sa.save_checkpoint(sa.load_checkpoint(str(INPUTS / model)), str(out / model))
            written.append(out / model)
        spec = sa.load_ensemble(INPUTS / "ensemble")
        sa.save_ensemble(spec, out / "ensemble")
        written += [out / "ensemble" / f"member_{i}.ckpt" for i in range(len(spec))]
        return {f"checkpoint-io/{p.relative_to(out)}": sha256(p) for p in written}
    if name == "config":
        text = Path(sa.paper_config_path()).read_text(encoding="utf-8")
        found = {"config/paper.cfg": repr(config)}
        for case, (old, new) in MALFORMED.items():
            try:
                found[f"config/{case}"] = repr(sa.parse_config(
                    text.replace(old, new, 1), "paper.cfg"))
            except ValueError as err:
                found[f"config/{case}"] = f"{type(err).__name__}: {err}"
        return found
    study = sa.overprovision_study_scenario(config)
    base = sa.estimate_vnf_count(study.slices[0].profile)
    return {f"overprovision/M={m}": repr(sa.overprovision_power_ratio(base, m, study))
            for m in (10, 12)}


def run_probe(name: str, tree: Path) -> dict:
    """Run one probe in a child interpreter and wait for it."""
    with tempfile.TemporaryDirectory(prefix="identity-probe-") as scratch:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe", name,
             str(tree), scratch],
            capture_output=True, text=True, cwd=scratch)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"probe {name} failed on {tree}")
    return json.loads(done.stdout.splitlines()[-1])


def unpack(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, **safe)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", nargs="?", help="git revision to compare against")
    parser.add_argument("--probe", nargs=3, metavar=("NAME", "TREE", "SCRATCH"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        name, tree, scratch = args.probe
        print(json.dumps(probe(name, Path(tree), Path(scratch))))
        return 0
    if not args.rev:
        parser.error("give a git revision")

    differ, compared = False, 0
    with tempfile.TemporaryDirectory(prefix="identity-rev-") as rev_tree:
        try:
            unpack(args.rev, Path(rev_tree))
        except subprocess.CalledProcessError as err:
            sys.stderr.write(err.stderr.decode(errors="replace"))
            return 2
        for name in PROBES:
            try:
                theirs = run_probe(name, Path(rev_tree))
                ours = run_probe(name, ROOT)
            except RuntimeError as err:
                print(f"error: {err}", file=sys.stderr)
                return 2
            if not theirs or not ours:
                print(f"error: probe {name} reported no results", file=sys.stderr)
                return 2
            compared += 1
            for key in sorted(set(theirs) | set(ours)):
                a, b = theirs.get(key), ours.get(key)
                if a == b:
                    print(f"same       {key}  {a}")
                else:
                    differ = True
                    print(f"DIFFERENT  {key}  {args.rev}: {a}  working tree: {b}")
    print(f"{'DIFFERENT' if differ else 'all same'}: {compared} of "
          f"{len(PROBES)} probes compared")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
