#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --seeds 1-10 --trace 0
    python3 perfbench/sweep.py --seeds 0 --trace 0,1 --out perfbench/baseline/BENCH_x.json

Runs ``run.py`` for ``run_seconds`` from ``BENCHMARK.json`` once per
(workload, trace mode, seed), one run at a time, over every workload. It
prints for every metric its median, first and third quartile over the runs
(``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median. For an end-to-end metric the spread
is compared with a third of the bound in ``BENCHMARK.json``. Runs that
``run.py`` flagged for a slow first call are listed. ``--out`` writes
every run's result, the summaries and one run's metadata as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from make_reference import parse_seeds
from workloads import ROOT, WORKLOADS

HERE = Path(__file__).resolve().parent


def summarize(values):
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / abs(median) if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "n": len(values)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 0,3,5-7")
    parser.add_argument("--trace", default="0", help="0, 1 or 0,1")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs, summaries, metadata = [], {}, None
    all_correct = True
    for workload in WORKLOADS:
        for trace in (int(t) for t in args.trace.split(",")):
            values = {}
            for seed in parse_seeds(args.seeds):
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                    capture_output=True, text=True, cwd=ROOT, timeout=900)
                if proc.returncode != 0:
                    sys.stderr.write(proc.stdout + proc.stderr)
                    raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                detail = json.loads((ROOT / ".perfbench_out" /
                                     f"{workload}-seed{seed}-trace{trace}.json").read_text())
                metadata = metadata or detail["metadata"]
                all_correct &= result["correct"]
                runs.append({"workload": workload, "seed": seed, "trace": trace,
                             "result": result, "walls_s": detail["walls_s"],
                             "scaled_walls_s": detail["scaled_walls_s"],
                             "warm_flag": detail["warm_flag"]})
                for name, m in result["metrics"].items():
                    values.setdefault(name, ([], m["unit"]))[0].append(m["value"])
                print(f"{workload} trace={trace} seed={seed} correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}", flush=True)
            table = {}
            for name, (vals, unit) in values.items():
                table[name] = dict(summarize(vals), unit=unit)
            summaries[f"{workload}/trace{trace}"] = table

    for key, table in summaries.items():
        print(f"\n{key}")
        for name, s in table.items():
            flag = ""
            if name in bounds and s["spread"] > bounds[name] / 3:
                flag = f"  spread above a third of bound {bounds[name]}"
            print(f"  {name:28s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} {s['unit']}{flag}")
    for run in runs:
        if run["warm_flag"]:
            print(f"\nflagged: {run['workload']} seed {run['seed']} trace {run['trace']}: "
                  f"first call much slower than the rest, walls {run['walls_s']}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(
            {"seconds": seconds, "seeds": args.seeds, "metadata": metadata,
             "summaries": summaries, "runs": runs}, indent=1) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
