"""Tests of the benchmark's own pieces.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import re
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from noonchip import analysis, coinc, detect, fock  # noqa: E402
from noonchip.circuit import ChipParams  # noqa: E402
from noonchip.fock import FockState  # noqa: E402

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


# -- self time -----------------------------------------------------------------


def _span(i, name, parent, start, end):
    return spans.Span(i, name, parent, 0, start, end)


def test_self_time_of_nested_spans():
    tree = [
        _span(0, "op", None, 0.0, 10.0),
        _span(1, "a", 0, 1.0, 4.0),
        _span(2, "b", 1, 2.0, 3.0),
        _span(3, "c", 0, 5.0, 9.0),
        _span(4, "b", 3, 5.5, 6.0),
        _span(5, "b", 3, 7.0, 8.5),
    ]
    assert spans.self_times(tree) == pytest.approx(
        {0: 3.0, 1: 2.0, 2: 1.0, 3: 2.0, 4: 0.5, 5: 1.5}
    )


def test_covered_length_merges_overlaps_and_clips():
    assert spans.covered_length([(1.0, 3.0), (2.0, 4.0)], 0.0, 10.0) == pytest.approx(3.0)
    assert spans.covered_length([(-1.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(2.0)
    assert spans.covered_length([], 0.0, 1.0) == 0.0


def test_layer_metrics_per_op_and_ratios():
    tree = [
        _span(0, "op", None, 0.0, 4.0),
        _span(1, "herald.project", 0, 1.0, 2.0),
        _span(2, "op", None, 4.0, 8.0),
        _span(3, "herald.project", 2, 5.0, 8.0),
    ]
    tree[1].counts = {"terms_in": 10, "terms_kept": 1}
    tree[3].counts = {"terms_in": 30, "terms_kept": 3}
    metrics = spans.layer_metrics(tree, ops=2)
    assert metrics["herald.project.calls"] == 1.0
    assert metrics["herald.project.self_s"] == pytest.approx(2.0)
    assert metrics["herald.project.kept_ratio"] == pytest.approx(0.1)
    assert metrics["kernels.permanent.calls"] == 0.0
    assert metrics["evolve.output_distribution.kept_ratio"] == 0.0
    assert set(metrics) == set(spans.PER_LAYER) - {"trace.overhead_pct"}


def test_installed_wraps_every_binding_and_restores():
    original = fock.marginal_distribution
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert detect.marginal_distribution is fock.marginal_distribution is not original
        assert analysis.marginal_distribution is fock.marginal_distribution
        op = tracer.open("op")
        scenario = analysis.FringeScenario(ChipParams(), FockState.basis_state((0, 1, 0, 0)), {1: 1})
        analysis.fringe_scan(scenario, [0.0, 1.0])
        tracer.close(op)
    assert detect.marginal_distribution is analysis.marginal_distribution is original
    assert ChipParams.matrix.__name__ == "matrix"
    names = Counter(s.name for s in tracer.spans)
    assert names == {
        "op": 1,
        "analysis.fringe_scan": 1,
        "circuit.ChipParams.matrix": 2,
        "evolve.apply": 2,
        "fock.marginal_distribution": 2,
    }
    by_id = {s.id: s for s in tracer.spans}
    for s in tracer.spans:
        if s.name != "op":
            parent = by_id[s.parent]
            assert parent.start <= s.start <= s.end <= parent.end
    scan = next(s for s in tracer.spans if s.name == "analysis.fringe_scan")
    assert scan.counts == {"phases": 2}


# -- generators ------------------------------------------------------------------


def _generated(seed):
    rng = np.random.default_rng(seed)
    return (
        inputs.preset_cycle(rng),
        inputs.detector_point(rng),
        inputs.chip_settings(rng),
        inputs.haar_unitary(rng, 4).tolist(),
        inputs.pulse_stream(rng, 500),
    )


def test_generators_repeat_for_a_fixed_seed():
    assert _generated(7) == _generated(7)
    assert _generated(7) != _generated(8)


def test_generated_inputs_lie_in_their_ranges():
    rng = np.random.default_rng(3)
    assert sorted(name for name, _ in inputs.preset_cycle(rng)) == sorted(inputs.PRESETS)
    for _ in range(50):
        efficiency, dark, phi = inputs.detector_point(rng)
        assert 0.5 <= efficiency <= 0.95 and 1e-5 <= dark <= 1e-3 and 0.0 <= phi <= math.pi
    u = inputs.haar_unitary(rng, 6)
    assert np.allclose(u.conj().T @ u, np.eye(6), atol=1e-12)


# -- planted pulse streams -----------------------------------------------------------


def test_planted_stream_layout():
    pulses, truth = inputs.pulse_stream(np.random.default_rng(11), 3000)
    assert len(pulses) == 3000
    times = [t for _, t in pulses]
    assert times == sorted(times)
    slots: dict[int, list[tuple[str, float]]] = {}
    for channel, t in pulses:
        slots.setdefault(int(t // inputs.CLUSTER_SPACING_NS), []).append((channel, t))
    planted: Counter = Counter()
    afterpulsed = 0
    for slot in slots.values():
        first = min(t for _, t in slot)
        cluster = [(c, t) for c, t in slot if t - first <= inputs.CLUSTER_SPREAD_NS]
        late = [(c, t) for c, t in slot if t - first > inputs.CLUSTER_SPREAD_NS]
        channels = [c for c, _ in cluster]
        assert len(set(channels)) == len(channels) <= inputs.MAX_CLUSTER_SIZE
        if len(channels) >= 2:
            planted[frozenset(channels)] += 1
        if late:
            afterpulsed += 1
            assert len(late) >= 2 and {c for c, _ in late} <= set(channels)
            assert max(t for _, t in late) - min(t for _, t in late) < 2.0
            own = dict(cluster)
            for c, t in late:
                assert 5.0 < t - own[c] < 45.0  # inside the 50 ns dead time
    assert planted == truth
    assert afterpulsed > 0


def test_planted_counts_match_the_counter_and_need_dead_time():
    pulses, truth = inputs.pulse_stream(np.random.default_rng(5), 4000)
    events = [coinc.PulseEvent(c, t) for c, t in pulses]
    config = coinc.CoincidenceConfig(**workloads.COINCIDENCE_CONFIG)
    for seed in (0, 1):
        assert Counter(coinc.count_coincidences(events, config, rng_seed=seed)) == truth
    no_dead_time = coinc.CoincidenceConfig(jitter_sigma_ns=0.3, dead_time_ns=0.0)
    assert Counter(coinc.count_coincidences(events, no_dead_time, rng_seed=0)) != truth


# -- metric names ----------------------------------------------------------------------


def test_metric_names_and_units_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert e2e == run.END_TO_END
    assert layer == spans.PER_LAYER
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    for name in [*e2e, *layer, *run.WORKLOAD_NAMES]:
        assert METRIC_NAME.fullmatch(name) and len(name) <= 64, name


# -- timing statistics -------------------------------------------------------------


def test_best_per_kind_and_nearest_rank():
    stats = run.Stats(samples=[("a", 3.0), ("b", 1.0), ("a", 2.0), ("c", 9.0), ("b", 1.5)])
    kinds = stats.best_per_kind()
    assert kinds == {"a": (2, 2.0), "b": (2, 1.0), "c": (1, 9.0)}
    assert stats.best_busy_s() == 2 * 2.0 + 2 * 1.0 + 9.0
    weighted = list(kinds.values())
    assert run.nearest_rank(weighted, 0.4) == 1.0
    assert run.nearest_rank(weighted, 0.5) == 2.0
    assert run.nearest_rank(weighted, 0.9) == 9.0
    seven = [(3, float(v)) for v in range(7)]
    assert (run.nearest_rank(seven, 0.5), run.nearest_rank(seven, 0.9)) == (3.0, 6.0)


# -- failed ops ------------------------------------------------------------------------


def _run(ops):
    stats = run.Stats()
    run.run_ops(ops, stats)
    return stats


def test_wrong_expected_value_is_a_failed_op(tmp_path):
    right = workloads.preset_op("fig2a", "json", tmp_path / "a")
    expected = dict(workloads.PRESET_EXPECTED)
    file, path, value, tol = expected["fig2a"]
    expected["fig2a"] = (file, path, value + 1e-6, tol)
    wrong = workloads.preset_op("fig2a", "json", tmp_path / "b", expected=expected)
    stats = _run([right, wrong])
    assert (stats.attempted, stats.failed, len(stats.samples)) == (2, 1, 2)


def test_wrong_planted_count_is_a_failed_op(tmp_path):
    pulses, truth = inputs.pulse_stream(np.random.default_rng(2), 2000)
    pulse_file = tmp_path / "pulses.csv"
    pulse_file.write_text(inputs.pulse_csv(pulses))
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps(workloads.COINCIDENCE_CONFIG))
    off_by_one = truth.copy()
    off_by_one[next(iter(truth))] += 1
    ops = [
        workloads.coincidence_op(pulse_file, config_file, 9, tmp_path / "a", truth),
        workloads.coincidence_op(pulse_file, config_file, 9, tmp_path / "b", off_by_one),
    ]
    stats = _run(ops)
    assert (stats.attempted, stats.failed) == (2, 1)


def test_engine_disagreement_is_a_failed_op():
    u = inputs.haar_unitary(np.random.default_rng(4), 4)
    good = workloads.engine_op((0, 2, 1, 0), matrix=u)
    bad = workloads.engine_op((0, 2, 1, 0), matrix=u)
    bad.run = lambda: ({(0, 0, 3, 0): 1.0}, FockState.basis_state((0, 0, 3, 0)).scaled(0.5))
    stats = _run([good, bad])
    assert (stats.attempted, stats.failed) == (2, 1)


def test_raising_op_or_unreadable_output_is_a_failed_op():
    def boom():
        raise ValueError("no")

    def unreadable(result):
        raise ValueError("bad header")

    stats = _run([workloads.Op("boom", boom, lambda result: None),
                  workloads.Op("garbled", lambda: 0, unreadable)])
    assert (stats.attempted, stats.failed) == (2, 2)
