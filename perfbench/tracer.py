"""Span tracer installed from outside the package.

The package's modules bind their collaborators with ``from ... import``, so a
function is wrapped at the name its caller looks it up under (for example
``gimbal.engine.knn`` rather than ``gimbal.neighborhood.knn``); the same
function reached through two names becomes two layers. While installed, each
call records (id, parent id, name, start ns, end ns) in memory; ``write``
dumps them when the run ends. A name that a later version of the package no
longer has is reported as absent instead of failing the run.

Only single-threaded calls may be traced: the parent of a span is the span
open on the one shared stack.
"""

from __future__ import annotations

import csv
import functools
import time
from collections import defaultdict

# (module, attribute, span name). Spans named engine.* are the orchestration
# whose self time is reported as engine.self_s.
CALL_SITES = (
    ("gimbal.cli", "main", "cli.main"),
    ("gimbal.cli", "read_dataset", "cli.read_dataset"),
    ("gimbal.cli", "write_records_csv", "cli.write_records_csv"),
    ("gimbal.cli", "local_moran", "diagnostics.local_moran"),
    ("gimbal.cli", "reliability_mask", "diagnostics.reliability_mask"),
    ("gimbal.cli", "fit_all", "engine.fit_all"),
    ("gimbal.cli", "predict_at", "engine.predict_at"),
    ("gimbal.cli", "residual_knn_correct", "engine.residual_knn_correct"),
    ("gimbal.cli", "generate", "simgen.generate"),
    ("gimbal.experiments", "fit_all", "engine.fit_all"),
    ("gimbal.experiments", "summarize", "experiments.summarize"),
    ("gimbal.experiments", "generate", "simgen.generate"),
    ("gimbal.simgen", "generate", "simgen.generate"),
    ("gimbal.engine", "knn", "neighborhood.knn"),
    ("gimbal.engine", "tangent_displacements", "geo.tangent_displacements"),
    ("gimbal.engine", "solve_local", "solver.solve_local"),
    ("gimbal.engine", "cond_wls2", "solver.cond_wls2"),
    ("gimbal.kernels", "weight_map", "kernels.weight_map"),
    ("gimbal.diagnostics", "knn", "diagnostics.knn"),
)

# positions in the tuple kernels.weight_map returns
_FALLBACK_CODE = 12
_N_RECOMPUTE = 13


class Tracer:
    def __init__(self, modules):
        """modules: {dotted name: imported module} for every CALL_SITES module."""
        self.spans = []
        self._stack = []
        self._patches = []
        self.absent = []
        self.counts = defaultdict(int)
        inspect = {
            "engine.fit_all": self._count_records,
            "engine.predict_at": self._count_prediction,
            "kernels.weight_map": self._inspect_weight_map,
            "solver.solve_local": self._inspect_solve,
        }
        for module_name, attr, span in CALL_SITES:
            module = modules.get(module_name)
            original = getattr(module, attr, None) if module is not None else None
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._patches.append(
                (module, attr, original, self._wrap(original, span, inspect.get(span))))

    def install(self):
        for module, attr, _, traced in self._patches:
            setattr(module, attr, traced)

    def uninstall(self):
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def _wrap(self, fn, name, on_result):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, name, start, end)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    # -- counts read from return values ------------------------------------

    def _count_records(self, records):
        self.counts["engine.targets"] += len(records)

    def _count_prediction(self, result):
        self.counts["engine.targets"] += 1

    def _inspect_weight_map(self, raw):
        try:
            code = int(raw[_FALLBACK_CODE])
            recompute = int(raw[_N_RECOMPUTE])
        except (TypeError, IndexError, ValueError):
            self.counts["kernels.unreadable"] += 1
            return
        self.counts[f"kernels.fallback_code_{code}"] += 1
        self.counts["kernels.recompute_max"] = max(self.counts["kernels.recompute_max"], recompute)

    def _inspect_solve(self, fit):
        well_posed = getattr(fit, "well_posed", None)
        if well_posed is None:
            self.counts["solver.unreadable"] += 1
        elif not well_posed:
            self.counts["solver.ill_posed"] += 1

    # -- aggregation -------------------------------------------------------

    def mark(self):
        """A position in the span list; pass two marks to self_times."""
        return len(self.spans)

    def self_times(self, begin, end):
        """{span name: (total self seconds, calls)} over spans[begin:end].

        A span's self time is its duration minus its direct children's.
        Spans run one at a time, so children never overlap.
        """
        window = self.spans[begin:end]
        child_ns = defaultdict(int)
        for _, parent, _, start, stop in window:
            if parent >= begin:
                child_ns[parent] += stop - start
        totals = defaultdict(lambda: [0, 0])
        for sid, _, name, start, stop in window:
            entry = totals[name]
            entry[0] += stop - start - child_ns[sid]
            entry[1] += 1
        return {name: (ns / 1e9, calls) for name, (ns, calls) in totals.items()}

    def take_counts(self):
        """Counts read from return values since the last call, then reset them.

        A ``*.unreadable`` count means a return value no longer has the
        expected shape, so the layer's branch counts are missing.
        """
        out = dict(self.counts)
        self.counts.clear()
        return out

    def write(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "parent", "name", "start_ns", "end_ns"])
            writer.writerows(self.spans)
