"""In-memory spans around the public functions of each mmscatter module.

`instrument` replaces module attributes with timing wrappers from outside
the package and `restore` puts the originals back, so an untraced replay
runs the unmodified code. Every span records its name, start, end and the
id of the span it ran inside.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from collections import defaultdict

import numpy as np

import mmscatter.cli as cli
import mmscatter.fitting as fitting
import mmscatter.lobes as lobes
import mmscatter.raytrace as raytrace
from mmscatter.lobes import LobeModel, LobeParams

CALL_SPAN = "cli.call"
PROBE_SPAN = "probe"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, parent id, name, start ns, end ns]
        # counters per root span name, so that probe work is kept apart
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._root = ""
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.alphas: tuple[int, ...] = ()  # lobe widths of the call being replayed
        self.filled: set = set()  # normalization tables this call has already filled

    def begin(self, name: str) -> list:
        if not self._open:
            self._root = name
            self.filled.clear()
        span = [len(self.spans), self._open[-1] if self._open else -1, name, time.perf_counter_ns(), 0]
        self.spans.append(span)
        self._open.append(span[0])
        return span

    def end(self, span: list) -> None:
        span[4] = time.perf_counter_ns()
        self._open.pop()

    def count(self, name: str, n: int) -> None:
        self.counts[self._root][name] += n

    def wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def instrument(self) -> None:
        """Put spans on the layer boundaries the CLI crosses."""
        build = raytrace.build_pattern
        self._patch(cli, "read_scan", self.wrap("fileio.read_scan", cli.read_scan))
        self._patch(cli, "write_report", self.wrap("fileio.write_report", cli.write_report, self._count_report))
        self._patch(cli, "write_simulated_scan", self.wrap("fileio.write_scan", cli.write_simulated_scan))
        self._patch(cli, "initial_scattering_coefficient",
                    self.wrap("materials.theory", cli.initial_scattering_coefficient))
        self._patch(cli, "pattern_sweep", self.wrap("lobes.pattern_sweep", cli.pattern_sweep))
        self._patch(cli, "simulate_scan", self.wrap("raytrace.simulate_scan", cli.simulate_scan))
        grid_fit = self.wrap("fitting.grid_fit", fitting.grid_fit, self._count_fit)
        self._patch(fitting, "grid_fit", grid_fit)  # compare_models, for --model both
        self._patch(cli, "grid_fit", grid_fit)  # --model single or dual
        self._patch(fitting, "build_pattern", self._traced_build(build))
        self._patch(raytrace, "build_pattern", self._traced_build(build))
        self._patch(raytrace, "tile_centers", self.wrap("raytrace.tile_centers", raytrace.tile_centers))
        self._patch(raytrace.ScanPattern, "predict", self.wrap("raytrace.predict", raytrace.ScanPattern.predict))
        self._patch(fitting.ScanEvaluator, "__call__",
                    self.wrap("fitting.evaluate", fitting.ScanEvaluator.__call__))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _traced_build(self, build):
        traced = self.wrap("raytrace.build_pattern", build)

        def build_then_fill_norms(*args, **kwargs):
            pattern = traced(*args, **kwargs)
            self.count("raytrace.path_count", pattern.n_positions * pattern.n_tiles)
            # `fit --model both` builds the same tiling twice; the second fit
            # finds the table in the process-wide cache
            key = (pattern.mode, pattern.tile_theta.tobytes())
            if key in self.filled:
                return pattern
            self.filled.add(key)
            # fill the normalization cache before any candidate is predicted,
            # so the quadrature shows as its own span instead of inside predict
            span = self.begin("lobes.norm_table")
            try:
                thetas = np.unique(pattern.tile_theta)
                for alpha in self.alphas:
                    params = LobeParams(LobeModel.SINGLE_LOBE, 0.5, alpha)
                    for theta in thetas:
                        lobes.normalization_f(params, float(theta), pattern.mode)
            finally:
                self.end(span)
            self.count("lobes.norm_pairs", len(thetas) * len(self.alphas))
            return pattern

        return build_then_fill_norms

    def _count_report(self, _result, report, path, *args, **kwargs) -> None:
        self.count("fileio.report_bytes", os.path.getsize(path))

    def _count_fit(self, report, *args, **kwargs) -> None:
        self.count("fitting.candidates", len(report.trace))
        self.count("fitting.stage_a_candidates", sum(1 for e in report.trace if e.stage == "A"))
        self.count("fitting.stage_b_candidates", sum(1 for e in report.trace if e.stage == "B"))
        self.count("fitting.rounds", max(e.round for e in report.trace))

    # --- analysis -------------------------------------------------------------

    def self_times(self) -> list[tuple[str, float, float, int]]:
        """(name, duration s, self time s, root span id) per span.

        Self time is the duration minus the time covered by direct children;
        children of one span never overlap because the replay is sequential.
        """
        child_ns = defaultdict(int)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        roots = {}
        out = []
        for sid, parent, name, start, end in self.spans:
            roots[sid] = sid if parent < 0 else roots[parent]
            dur = end - start
            out.append((name, dur / 1e9, (dur - child_ns[sid]) / 1e9, roots[sid]))
        return out

    def span_cost_s(self, n: int = 20000) -> float:
        """Seconds one empty span costs, to set against tracing_overhead_s."""
        saved = (len(self.spans), self._root)
        started = time.perf_counter()
        for _ in range(n):
            self.end(self.begin("calibration"))
        elapsed = time.perf_counter() - started
        del self.spans[saved[0]:]
        self._root = saved[1]
        return elapsed / n

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["id", "parent", "name", "start_ns", "end_ns"], "spans": self.spans, "counts": self.counts},
                fh,
            )


COUNTS = {
    "lobes.norm_pairs": "count",
    "raytrace.path_count": "count",
    "fitting.candidates": "count",
    "fitting.stage_a_candidates": "count",
    "fitting.stage_b_candidates": "count",
    "fitting.rounds": "count",
    "fileio.report_bytes": "B",
}


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer (value, unit) from one traced replay.

    A layer the workload's own calls never reach (fitting on
    simulate-refine) is read from the follow-up probe fit instead.
    """
    root_name = {sid: name for sid, _, name, _, _ in tracer.spans}
    by_root = {CALL_SPAN: defaultdict(list), PROBE_SPAN: defaultdict(list)}
    for name, dur, self_s, root in tracer.self_times():
        by_root[root_name[root]][name].append((dur, self_s))

    def values(name, use_self=False):
        spans = by_root[CALL_SPAN].get(name) or by_root[PROBE_SPAN].get(name) or []
        return [s if use_self else d for d, s in spans]

    def total_s(name, use_self=False):
        return sum(values(name, use_self)), "s"

    def median_ms(name, use_self=False):
        return 1e3 * statistics.median(values(name, use_self)), "ms"

    metrics = {
        "lobes.norm_table_s": total_s("lobes.norm_table"),
        "raytrace.tile_centers_s": total_s("raytrace.tile_centers"),
        "raytrace.build_pattern_s": total_s("raytrace.build_pattern", use_self=True),
        "raytrace.predict_ms": median_ms("raytrace.predict"),
        "fitting.evaluate_ms": median_ms("fitting.evaluate"),
        "fitting.fvu_db_ms": median_ms("fitting.evaluate", use_self=True),
        "fitting.grid_fit_s": total_s("fitting.grid_fit"),
        "fileio.read_scan_s": total_s("fileio.read_scan"),
        "fileio.write_report_s": total_s("fileio.write_report"),
        "materials.theory_table_s": total_s("materials.theory"),
        # time in cli.main outside every library span: argument parsing,
        # loading the materials, digests and headers
        "cli.overhead_s": (statistics.median(values(CALL_SPAN, use_self=True)), "s"),
    }
    for name, unit in COUNTS.items():
        metrics[name] = (tracer.counts[CALL_SPAN].get(name) or tracer.counts[PROBE_SPAN].get(name, 0), unit)
    return metrics


def self_time_table(tracer: Tracer) -> dict[str, tuple[int, float, float]]:
    """name -> (spans, total s, self s) over every span."""
    table: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for name, dur, self_s, _ in tracer.self_times():
        row = table[name]
        row[0] += 1
        row[1] += dur
        row[2] += self_s
    return {name: tuple(row) for name, row in sorted(table.items())}
