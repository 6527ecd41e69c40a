#!/usr/bin/env python3
"""Benchmark of the ``gimbal`` CLI on three seeded workloads.

    python3 perfbench/run.py --workload fit_large --seed 0 --seconds 25 --trace 0

One run makes the workload's inputs from ``--seed``, then calls the real CLI
entry point ``gimbal.cli.main([...])`` in this one process, single-threaded
(``--threads 1``), back to back until ``--seconds`` have passed, and checks
every call's output files (see ``check``). Workloads are described in
``workloads.py`` and in ``BENCHMARK.json``.

``--trace 0`` reports the end-to-end metrics: median wall time of a call,
local fits per second, set-up time (median of several fresh processes that
import the package and write the seeded inputs), peak resident memory, an
accuracy figure against the simulator's truth, and the share of targets whose
output was correct. Times are scaled to a reference host speed sampled while
they are measured (``speed.py``). Every call's raw wall time is kept in the
result file, and a run whose first call is much slower than the later ones is
flagged (see ``WARM_RATIO``).

``--trace 1`` reports per-layer self times and counts instead. It alternates
untraced and traced calls (``tracer.py``) so the tracing overhead is measured,
and makes one untraced ``--threads 2`` call for ``engine.threads2_speedup``.

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. The full result, with run
metadata and per-call wall times, is written to
``.perfbench_out/<workload>-seed<seed>-trace<0|1>.json``; a traced run also
writes its spans there as CSV.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one single-threaded process: keep BLAS from starting its own thread pool
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import speed  # noqa: E402
from tracer import CALL_SITES, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    ROOT, SRC, WORKLOADS, compare, import_gimbal, structural_faults,
)

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"
# set-ups timed before the calls, and as many again after them: the host's
# speed drifts over seconds, so the two halves bracket the measured window
SETUP_REPEATS = 5
# A one-shot CLI user only ever pays for a first call. When it is this much
# slower than the median of the later calls, something kept across calls
# (a cache) is speeding up wall_s, and the run says so.
WARM_RATIO = 1.5
# estimate_rmse of a run whose output could not be read: worse than any real one
UNSCORED_RMSE = 1e9


def reference_path(workload, seed):
    return REFERENCE_DIR / f"{workload}-seed{seed}.npz"


def load_reference(workload, seed):
    """{table: {column: array}} stored for this seed, or None."""
    path = reference_path(workload, seed)
    if not path.is_file():
        return None
    ref = {}
    with np.load(path) as data:
        for key in data.files:
            table, column = key.split("/")
            ref.setdefault(table, {})[column] = data[key]
    return ref


def run_metadata(gimbal):
    def git_commit():
        try:
            top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        lines = top.stdout.split()
        if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
            return None
        return lines[1]

    def cpu_model():
        try:
            for line in Path("/proc/cpuinfo").read_text().splitlines():
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or None

    def caches():
        out = {}
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            try:
                level = (index / "level").read_text().strip()
                kind = (index / "type").read_text().strip()
                out[f"L{level}_{kind}"] = (index / "size").read_text().strip()
            except OSError:
                continue
        return out

    digest = hashlib.sha256()
    for path in sorted((SRC / "gimbal").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())

    from importlib.metadata import PackageNotFoundError, version

    try:
        scipy_version = version("scipy")
    except PackageNotFoundError:
        scipy_version = None
    return {
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "caches": caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "gimbal": getattr(gimbal, "__version__", None),
        "backend": gimbal.active_backend(),
    }


def measure_setup(name, seed, workdir):
    """Seconds from starting a fresh interpreter to inputs written, SETUP_REPEATS times.

    Returns (seconds, host speed factor) pairs. The factor comes from kernel
    bursts just before and just after the child.
    """
    times = []
    for k in range(SETUP_REPEATS):
        outdir = workdir / f"setup{k}"
        outdir.mkdir()
        samples = speed.burst()
        start = time.perf_counter()
        # no timeout: with one, the wait polls and rounds the time up to its sleep step
        subprocess.run([sys.executable, str(HERE / "workloads.py"), name, str(seed), str(outdir)],
                       check=True)
        seconds = time.perf_counter() - start
        samples += speed.burst()
        times.append((seconds, speed.scale(samples, speed.REFERENCE_BURST_S)))
        shutil.rmtree(outdir)
    return times


def call_cli(gimbal, argv, outdir, sample):
    """One ``gimbal.cli.main`` call on an empty output directory.

    Returns (wall seconds, exit code, kernel samples). With ``sample`` the
    host's speed is sampled during the call (``speed.sampling``); otherwise
    the samples are empty. The CLI's own printing is captured.
    """
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    sink = io.StringIO()
    with (speed.sampling() if sample else contextlib.nullcontext([])) as samples, \
            contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            code = gimbal.cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        wall = time.perf_counter() - start
    return wall, code, samples


class Checker:
    """Counts, per call, the targets whose output is missing or wrong.

    Every call must exit 0 and write output byte-identical to the first
    call's, because reruns on the same inputs are byte-identical, serial or
    threaded. The first call's output is checked in full: every row present
    and in order, estimates present exactly when not ill-posed, and, when a
    reference is stored for this seed, coefficients within COEF_TOL and
    branch codes and ill-posed flags equal to it.
    """

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference
        self.digest = None
        self.first_failed = 0
        self.estimate_rmse = None
        self.notes = {}  # problem -> number of calls that had it

    def _note(self, text):
        self.notes[text] = self.notes.get(text, 0) + 1

    def check(self, code, outdir):
        targets = self.workload.targets
        if code != 0:
            self._note(f"exit code {code}")
            return targets
        digest = hashlib.sha256()
        for path in sorted(outdir.iterdir()):
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
        digest = digest.hexdigest()
        if self.digest is not None:
            if digest != self.digest:
                self._note("output differs from the first call's")
                return targets
            return self.first_failed
        self.digest = digest
        try:
            tables = self.workload.tables(outdir)
            self.estimate_rmse = self.workload.estimate_rmse(outdir, tables)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            self._note(f"unreadable output: {exc!r}")
            self.first_failed = targets
            return targets
        bad = 0
        for table, n_rows in self.workload.expected_rows().items():
            faults = structural_faults(tables[table], n_rows)
            if self.reference is not None:
                faults |= compare(tables[table], self.reference[table])
            bad += len(faults)
        if bad:
            self._note(f"{bad} output rows wrong")
        self.first_failed = bad
        return bad


def layer_metrics(times, counts, fallback_codes):
    """Per-layer metrics of one traced call from span self times and counts."""
    def secs(name):
        return times.get(name, (0.0, 0))[0]

    def calls(name):
        return times.get(name, (0.0, 0))[1]

    uniform, underflow = fallback_codes
    knn_s, knn_calls = secs("neighborhood.knn"), calls("neighborhood.knn")
    return {
        "neighborhood.knn_s": (knn_s, "s"),
        "neighborhood.knn_calls": (knn_calls, "count"),
        "neighborhood.knn_us": (1e6 * knn_s / knn_calls if knn_calls else 0.0, "us"),
        "diagnostics.moran_s": (secs("diagnostics.local_moran"), "s"),
        "diagnostics.moran_knn_s": (secs("diagnostics.knn"), "s"),
        "diagnostics.mask_s": (secs("diagnostics.reliability_mask"), "s"),
        "kernels.weight_map_s": (secs("kernels.weight_map"), "s"),
        "kernels.weight_map_calls": (calls("kernels.weight_map"), "count"),
        "kernels.recompute_max": (counts.get("kernels.recompute_max", 0), "count"),
        "kernels.fallback_uniform": (counts.get(f"kernels.fallback_code_{uniform}", 0), "count"),
        "kernels.fallback_underflow": (counts.get(f"kernels.fallback_code_{underflow}", 0), "count"),
        "solver.solve_s": (secs("solver.solve_local"), "s"),
        "solver.cond_wls2_s": (secs("solver.cond_wls2"), "s"),
        "solver.ill_posed": (counts.get("solver.ill_posed", 0), "count"),
        "geo.tangent_s": (secs("geo.tangent_displacements"), "s"),
        "engine.self_s": (sum(secs(n) for n in times if n.startswith("engine.")), "s"),
        "engine.targets": (counts.get("engine.targets", 0), "count"),
        "cli.read_s": (secs("cli.read_dataset"), "s"),
        "cli.write_s": (secs("cli.write_records_csv"), "s"),
        "cli.self_s": (secs("cli.main"), "s"),
        "experiments.summarize_s": (secs("experiments.summarize"), "s"),
        "simgen.generate_s": (secs("simgen.generate"), "s"),
    }


def median_metrics(samples):
    """Median of each metric over several calls' {name: (value, unit)}."""
    return {name: (statistics.median(s[name][0] for s in samples), unit)
            for name, (_, unit) in samples[0].items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    gimbal = import_gimbal()
    modules = {m: importlib.import_module(m) for m in {site[0] for site in CALL_SITES}}
    workload = WORKLOADS[args.workload](gimbal, args.seed)
    reference = load_reference(args.workload, args.seed)
    checker = Checker(workload, reference)
    meta = run_metadata(gimbal)

    weights = getattr(gimbal, "weights", None)
    fallback_codes = (getattr(weights, "FALLBACK_UNIFORM", 1),
                      getattr(weights, "FALLBACK_UNDERFLOW", 2))
    tracer = Tracer(modules) if args.trace else None
    setup_times, walls, traced_walls, layer_samples, trace_counts = [], [], [], [], []
    # untraced runs: each call's wall time at the reference host speed
    scaled_walls = []
    attempted = failed = 0
    threads2_wall = None

    def timed_call(threads, sample=False):
        nonlocal attempted, failed
        wall, code, samples = call_cli(gimbal, workload.argv(outdir, threads), outdir, sample)
        failed += checker.check(code, outdir)
        attempted += workload.targets
        if sample:
            # the samples ran inside the call, but their time is not the program's
            program_s = wall - sum(samples)
            samples = samples or [speed.kernel()]  # a call shorter than one period
            scaled_walls.append(program_s * speed.scale(samples, speed.REFERENCE_CALL_S))
        return wall

    workdir = WORK_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    outdir = workdir / "out"
    try:
        (workdir / "inputs").mkdir()
        if tracer is None:
            setup_times += measure_setup(args.workload, args.seed, workdir)
            workload.setup(workdir / "inputs")
        else:
            tracer.install()
            try:
                workload.setup(workdir / "inputs")
            finally:
                tracer.uninstall()
            setup_generate = tracer.self_times(0, tracer.mark()).get("simgen.generate", (0.0, 0))
            tracer.take_counts()

        start = time.perf_counter()
        while True:
            walls.append(timed_call(1, sample=tracer is None))
            if tracer is not None:
                if threads2_wall is None:
                    threads2_wall = timed_call(2)
                begin = tracer.mark()
                tracer.install()
                try:
                    traced_walls.append(timed_call(1))
                finally:
                    tracer.uninstall()
                times = tracer.self_times(begin, tracer.mark())
                # inputs simulated during set-up count towards simgen.generate
                gen_s, gen_calls = times.get("simgen.generate", (0.0, 0))
                times["simgen.generate"] = (gen_s + setup_generate[0], gen_calls + setup_generate[1])
                trace_counts.append(tracer.take_counts())
                layer_samples.append(layer_metrics(times, trace_counts[-1], fallback_codes))
            if time.perf_counter() - start >= args.seconds:
                break
        if tracer is None:
            setup_times += measure_setup(args.workload, args.seed, workdir)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    raw_wall_s = statistics.median(walls)
    first_call_ratio = walls[0] / statistics.median(walls[1:]) if len(walls) > 1 else None
    warm_flag = first_call_ratio is not None and first_call_ratio > WARM_RATIO
    if args.trace:
        metrics = median_metrics(layer_samples)
        metrics["engine.threads2_speedup"] = (raw_wall_s / threads2_wall, "ratio")
        metrics["trace.overhead_s"] = (statistics.median(traced_walls) - raw_wall_s, "s")
    else:
        wall_s = statistics.median(scaled_walls)
        metrics = {
            "wall_s": (wall_s, "s"),
            "targets_per_s": (workload.targets / wall_s, "1/s"),
            "setup_s": (statistics.median(t * f for t, f in setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "estimate_rmse": (checker.estimate_rmse if checker.estimate_rmse is not None
                              else UNSCORED_RMSE, "1"),
            "ok_frac": (1.0 - failed / attempted, "ratio"),
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "metadata": meta,
        "reference": reference_path(args.workload, args.seed).name if reference else None,
        "check_notes": checker.notes,
        "failed_frac": failed / attempted,
        "setup_times_s": [t for t, _ in setup_times],
        "setup_speed_factors": [f for _, f in setup_times],
        "walls_s": walls, "scaled_walls_s": scaled_walls, "first_call_ratio": first_call_ratio, "warm_flag": warm_flag,
        "traced_walls_s": traced_walls, "threads2_wall_s": threads2_wall,
        "absent_call_sites": tracer.absent if tracer is not None else [],
        "trace_counts": trace_counts,
        "result": result,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(detail, indent=2) + "\n")
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}.spans.csv")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"calls={len(walls)} raw_wall_s={raw_wall_s:.4g} first_wall_s={walls[0]:.4g} "
          f"reference={'yes' if reference else 'none'} "
          f"backend={meta['backend']} commit={meta['git_commit'] or meta['src_sha256'][:12]}")
    for note, calls in checker.notes.items():
        print(f"  check: {note} ({calls} calls)")
    if warm_flag:
        print(f"  warning: first call {first_call_ratio:.2f}x the later calls' median wall time; "
              "is something cached across calls?")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:.6g} {unit}")
    print(f"  {'failed_frac':28s} {failed / attempted:.6g} ratio")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
