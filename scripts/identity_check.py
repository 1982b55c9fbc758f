#!/usr/bin/env python3
"""Check that a git revision and the working tree write identical outputs.

    python3 scripts/identity_check.py REV

Unpacks ``git archive REV`` into a temporary directory, then runs five
probes on that tree and on the working tree:

* ``compare``: all five scenarios on the bundled paper.cfg (20 seeds, attack
  and selection seed 0, as ``slice-arena compare`` runs them) with the
  checkpoints in the working tree's perfbench/inputs, for both trees; the
  SHA-256 of metrics.csv and summary.csv;
* ``sweep``: ``sweep`` over all five scenarios on paper.cfg with
  ``arrival_sweep`` (2, 6), the config's first 5 seeds, the same checkpoints
  and attack and selection seed 0; the SHA-256 of metrics.csv and
  summary.csv;
* ``train``: ``train_single_models`` at seed 3 and 6,144 steps per model;
  the SHA-256 of both checkpoints. Where a second CPU is usable and the
  platform can fork, this takes the two-process path (the poisoned twin
  trains in a worker process), so the probe also holds that path to the
  bytes of the revision's; it fails if a worker process outlives the call;
* ``overprovision``: ``overprovision_power_ratio`` on
  ``overprovision_study_scenario(paper.cfg)`` at M = 10 and 12; the value;
* ``checkpoint-io``: every checkpoint in the working tree's perfbench/inputs
  (the two single models with ``load_checkpoint``/``save_checkpoint``, the
  ensemble with ``load_ensemble``/``save_ensemble``) loaded and saved again;
  the SHA-256 of every written file.

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
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INPUTS = ROOT / "perfbench" / "inputs"
PROBES = ("compare", "sweep", "train", "overprovision", "checkpoint-io")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def probe(name: str, tree: Path, scratch: Path) -> dict:
    """Run one probe in this interpreter on slice_arena from tree/src."""
    src = (tree / "src").resolve()
    sys.path.insert(0, str(src))
    import slice_arena as sa
    if Path(sa.__file__).resolve().parent != src / "slice_arena":
        raise RuntimeError(f"imported slice_arena from {sa.__file__}, not {src}")
    config = sa.load_config(sa.paper_config_path())
    if name == "compare":
        results = sa.compare(config, artifacts=INPUTS,
                             attack=sa.AttackConfig(seed=0), selection_seed=0)
        paths = sa.write_results(results, scratch / "compare", config)
        return {f"compare/{Path(p).name}": sha256(Path(p)) for p in paths}
    if name == "sweep":
        swept = dataclasses.replace(config, arrival_sweep=(2.0, 6.0))
        points = sa.sweep(swept, seeds=config.seeds[:5], artifacts=INPUTS,
                          attack=sa.AttackConfig(seed=0), selection_seed=0)
        paths = sa.write_results([p.result for p in points], scratch / "sweep", swept)
        return {f"sweep/{Path(p).name}": sha256(Path(p)) for p in paths}
    if name == "train":
        paths = sa.train_single_models(config, scratch / "train", seed=3,
                                       total_env_steps=6_144)
        if multiprocessing.active_children():
            raise RuntimeError("a training worker outlived train_single_models")
        return {f"train/{Path(p).name}": sha256(Path(p)) for p in paths}
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
