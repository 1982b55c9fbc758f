#!/usr/bin/env python3
"""Rebuild the evaluate workload's inputs from this checkout's program.

    python3 perfbench/make_inputs.py [--out perfbench/inputs]

Runs `slice-arena train` (clean and attacked models, 200k steps each) and
`slice-arena train-ensemble` (four members, 240k steps each), both at
their defaults with seed 0 on the bundled paper.cfg, then writes
SHA256SUMS next to them. README.md quotes those sums; when they differ
from a rebuild at a later commit, the committed inputs are stale.
Takes about ten minutes on two cores.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FILES = ("model.ckpt", "attacked_model.ckpt", "ensemble/manifest.txt",
         "ensemble/member_0.ckpt", "ensemble/member_1.ckpt",
         "ensemble/member_2.ckpt", "ensemble/member_3.ckpt")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(HERE / "inputs"))
    args = parser.parse_args(argv)
    out = Path(args.out).resolve()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for command in ("train", "train-ensemble"):
        subprocess.run([sys.executable, "-m", "slice_arena.cli", command,
                        "--seed", "0", "--out", str(out)],
                       cwd=ROOT, env=env, check=True)
    lines = [f"{hashlib.sha256((out / name).read_bytes()).hexdigest()}  {name}"
             for name in FILES]
    (out / "SHA256SUMS").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
