#!/usr/bin/env python3
"""Store the outputs that ``run.py`` checks each run against.

    python3 perfbench/make_reference.py --seeds 0 --stride 1 --commit HEAD
    python3 perfbench/make_reference.py --seeds 1-20 --stride 16 --commit <rev>

Runs every workload once per seed through ``gimbal.cli.main`` with
``--threads 1`` and writes ``reference/<workload>-seed<seed>.npz``: the
compared columns (coefficients or predictions, branch codes, ill-posed flags)
of every ``stride``-th target, keyed ``<table>/<column>``, plus the commit
they came from under ``meta/``. With ``--commit`` the package source is taken
from that commit by ``git archive`` (run it inside a git clone); without it,
from this checkout's ``src``. Run one commit per process.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import shutil
import subprocess
import sys
import tarfile
from pathlib import Path

import numpy as np

from workloads import ROOT, SRC, WORKLOADS, import_gimbal

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
WORK_DIR = ROOT / ".perfbench_work" / "make_reference"


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def checkout_src(commit, dest):
    """Extract ``src`` at ``commit`` into dest; returns (src dir, full hash)."""
    full = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{commit}^{{commit}}"],
                          check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", full, "src"],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src", full


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0 or 1-20 or 0,3,5-7")
    parser.add_argument("--stride", type=int, default=1)
    parser.add_argument("--commit", default=None)
    args = parser.parse_args()

    shutil.rmtree(WORK_DIR, ignore_errors=True)
    WORK_DIR.mkdir(parents=True)
    try:
        if args.commit is None:
            src, commit = SRC, "working-tree"
        else:
            src, commit = checkout_src(args.commit, WORK_DIR / "checkout")
        gimbal = import_gimbal(src)
        REFERENCE_DIR.mkdir(exist_ok=True)
        for name in WORKLOADS:
            for seed in parse_seeds(args.seeds):
                workload = WORKLOADS[name](gimbal, seed)
                inputs, outdir = WORK_DIR / "inputs", WORK_DIR / "out"
                for d in (inputs, outdir):
                    shutil.rmtree(d, ignore_errors=True)
                    d.mkdir()
                workload.setup(inputs)
                with contextlib.redirect_stdout(io.StringIO()):
                    code = gimbal.cli.main(workload.argv(outdir, 1))
                if code != 0:
                    raise SystemExit(f"{name} seed {seed}: gimbal exited {code}")
                arrays = {"meta/commit": np.array(commit), "meta/stride": np.array(args.stride)}
                for table, columns in workload.tables(outdir).items():
                    keep = columns["index"] % args.stride == 0
                    for column, values in columns.items():
                        arrays[f"{table}/{column}"] = values[keep]
                path = REFERENCE_DIR / f"{name}-seed{seed}.npz"
                np.savez_compressed(path, **arrays)
                print(f"{path.relative_to(ROOT)}  commit {commit[:12]}  stride {args.stride}")
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
