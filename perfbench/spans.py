"""Span tracing of noonchip's public functions, for the traced benchmark run.

The benchmark wraps the functions listed in TRACED in timing wrappers while a
Tracer is installed.  A wrapper replaces every binding of the function in the
loaded noonchip modules (detect and analysis, for example, import
marginal_distribution by name), so calls reach it whichever name they use.
Each span records its name, start, end, parent and op index, plus counts
taken at the same boundary; spans stay in memory until the run writes them
out.  Nothing inside noonchip changes.

A layer's self time is its span's duration minus the part of that interval
its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator


@dataclass(slots=True)
class Span:
    id: int
    name: str
    parent: int | None
    op: int
    start: float
    end: float = math.nan
    counts: dict[str, float] = field(default_factory=dict)


class Tracer:
    """Collects nested spans; the op index groups the spans of one workload op."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.op = 0

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.op, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def dump(self, path) -> None:
        rows = [[s.id, s.name, s.parent, s.op, s.start, s.end, s.counts] for s in self.spans]
        with open(path, "w") as handle:
            json.dump({"fields": ["id", "name", "parent", "op", "start", "end", "counts"],
                       "spans": rows}, handle)


def covered_length(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of the intervals, clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - covered_length(children[s.id], s.start, s.end)
        for s in spans
    }


# -- the traced layers -------------------------------------------------------


def _permanent_counts(args, kwargs, result) -> dict[str, float]:
    n = len(args[0])
    return {"ops_computed": n * 2**n}


def _output_distribution_counts(args, kwargs, result) -> dict[str, float]:
    modes = len(args[0])
    photons = sum(int(x) for x in args[1])
    return {"outputs": math.comb(photons + modes - 1, photons), "outputs_kept": len(result)}


def _project_counts(args, kwargs, result) -> dict[str, float]:
    return {"terms_in": len(args[0]), "terms_kept": len(result.conditional_state)}


def _count_coincidences_counts(args, kwargs, result) -> dict[str, float]:
    return {"records": sum(result.values()), "pulses_in": len(args[0])}


def _size(key: str) -> Callable:
    return lambda args, kwargs, result: {key: len(result)}


#: (module, attribute, span name, counts taken from (args, kwargs, result))
TRACED: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("noonchip.kernels", "permanent", "kernels.permanent", _permanent_counts),
    ("noonchip.evolve", "output_distribution", "evolve.output_distribution",
     _output_distribution_counts),
    ("noonchip.evolve", "apply", "evolve.apply", _size("terms_out")),
    ("noonchip.detect", "click_distribution", "detect.click_distribution",
     _size("patterns_out")),
    ("noonchip.source", "contamination_report", "source.contamination_report", None),
    ("noonchip.herald", "project", "herald.project", _project_counts),
    ("noonchip.fock", "marginal_distribution", "fock.marginal_distribution", None),
    ("noonchip.circuit", "ChipParams.matrix", "circuit.ChipParams.matrix", None),
    ("noonchip.analysis", "fringe_scan", "analysis.fringe_scan", _size("phases")),
    ("noonchip.analysis", "fringe_period", "analysis.fringe_period", None),
    ("noonchip.scenarios", "run_simulate", "scenarios.run", None),
    ("noonchip.scenarios", "run_sagnac", "scenarios.run", None),
    ("noonchip.scenarios", "run_fringe", "scenarios.run", None),
    ("noonchip.scenarios", "run_contamination", "scenarios.run", None),
    ("noonchip.cli", "main", "cli.main", None),
    ("noonchip.coinc", "read_pulse_csv", "coinc.read_pulse_csv", _size("pulses")),
    ("noonchip.coinc", "count_coincidences", "coinc.count_coincidences",
     _count_coincidences_counts),
)


def _wrap(tracer: Tracer, name: str, fn: Callable, counts: Callable | None) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if counts is not None:
            span.counts = counts(args, kwargs, result)
        return result

    return traced


@contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Wraps every TRACED function for the duration of the block."""
    patches: list[tuple[object, str, object]] = []
    try:
        for module_name, attr, name, counts in TRACED:
            module = importlib.import_module(module_name)
            if "." in attr:
                owner_name, attr = attr.split(".")
                owners = [getattr(module, owner_name)]
                original = vars(owners[0])[attr]
            else:
                original = getattr(module, attr)
                owners = [
                    mod for mod_name, mod in list(sys.modules.items())
                    if mod_name.split(".")[0] == "noonchip"
                    and vars(mod).get(attr) is original
                ]
            wrapper = _wrap(tracer, name, original, counts)
            for owner in owners:
                patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        yield
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


# -- per-layer metrics ---------------------------------------------------------

#: ratio metrics: name -> (numerator count, denominator count)
RATIOS = {
    "evolve.output_distribution.kept_ratio": ("outputs_kept", "outputs"),
    "herald.project.kept_ratio": ("terms_kept", "terms_in"),
    "coinc.count_coincidences.records_per_pulse": ("records", "pulses_in"),
}

#: every per-layer metric with its unit; all but the ratios are per workload op
PER_LAYER = {
    "kernels.permanent.calls": "count/op",
    "kernels.permanent.self_s": "s/op",
    "kernels.permanent.ops_computed": "count/op",
    "evolve.output_distribution.self_s": "s/op",
    "evolve.output_distribution.outputs": "count/op",
    "evolve.output_distribution.kept_ratio": "ratio",
    "evolve.apply.calls": "count/op",
    "evolve.apply.self_s": "s/op",
    "evolve.apply.terms_out": "count/op",
    "detect.click_distribution.calls": "count/op",
    "detect.click_distribution.self_s": "s/op",
    "detect.click_distribution.patterns_out": "count/op",
    "source.contamination_report.calls": "count/op",
    "source.contamination_report.self_s": "s/op",
    "herald.project.calls": "count/op",
    "herald.project.self_s": "s/op",
    "herald.project.kept_ratio": "ratio",
    "fock.marginal_distribution.calls": "count/op",
    "fock.marginal_distribution.self_s": "s/op",
    "circuit.ChipParams.matrix.calls": "count/op",
    "circuit.ChipParams.matrix.self_s": "s/op",
    "analysis.fringe_scan.self_s": "s/op",
    "analysis.fringe_scan.phases": "count/op",
    "analysis.fringe_period.self_s": "s/op",
    "scenarios.run.self_s": "s/op",
    "cli.main.self_s": "s/op",
    "coinc.read_pulse_csv.self_s": "s/op",
    "coinc.read_pulse_csv.pulses": "count/op",
    "coinc.count_coincidences.self_s": "s/op",
    "coinc.count_coincidences.records_per_pulse": "ratio",
    "trace.overhead_pct": "%",
}


def layer_metrics(spans: list[Span], ops: int) -> dict[str, float]:
    """Every PER_LAYER metric except trace.overhead_pct, from the traced ops.

    A layer that never ran reads zero.
    """
    totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    selfs = self_times(spans)
    for s in spans:
        layer = totals[s.name]
        layer["calls"] += 1
        layer["self_s"] += selfs[s.id]
        for key, value in s.counts.items():
            layer[key] += value
    metrics = {}
    for metric in PER_LAYER:
        if metric == "trace.overhead_pct":
            continue
        name, key = metric.rsplit(".", 1)
        layer = totals.get(name, {})
        if metric in RATIOS:
            num, den = RATIOS[metric]
            metrics[metric] = layer[num] / layer[den] if layer.get(den) else 0.0
        else:
            metrics[metric] = layer.get(key, 0.0) / ops
    return metrics
