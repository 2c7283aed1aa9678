"""noonchip benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload presets --seed 1 --seconds 20 --trace 0

Run from the root of a noonchip checkout; the package is imported from its
``src`` directory.  One client in one process, no threads: each op starts
when the previous one has returned.  Every op's output is checked.  The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics.

--trace 0 measures the end-to-end metrics: set-up time (a fresh interpreter
importing noonchip.cli, median of launches spread over the run), throughput, op latency
percentiles and peak resident memory.  Timings are best-of-N per op kind:
on a shared sandbox the CPU switches between a fast state and one about
1.8 times slower, in episodes of seconds, so medians over raw samples jump
between the two.  Each op kind (a preset, an input shape) counts with the
best latency it reached in the run, and the percentiles are taken over the
op kinds, each weighted by its share of the ops.  Raw sample medians are
printed for reference.

--trace 1 gives the per-layer metrics instead.  It spends half the time
untraced, then replays the same ops with timing wrappers on noonchip's public
functions (see spans.py), and reports per-op self time and counts per layer
plus the tracing overhead.  The spans go to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_LAUNCHES = 7
SETUP_CODE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import noonchip.cli\n"
    "print(repr(time.perf_counter() - start))\n"
)

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
WORKLOAD_NAMES = ("presets", "detector-sweep", "engine-check", "coincidence")


@dataclass
class Stats:
    samples: list[tuple[str, float]] = field(default_factory=list)  # (kind, seconds)
    attempted: int = 0
    failed: int = 0
    cycles: int = 0

    def best_per_kind(self) -> dict[str, tuple[int, float]]:
        """Op kind -> (number of ops, best latency in seconds)."""
        kinds: dict[str, list[float]] = {}
        for kind, seconds in self.samples:
            kinds.setdefault(kind, []).append(seconds)
        return {kind: (len(v), min(v)) for kind, v in kinds.items()}

    def best_busy_s(self) -> float:
        """Time the run's ops would take with every op at its kind's best."""
        return sum(n * best for n, best in self.best_per_kind().values())


def nearest_rank(weighted: list[tuple[int, float]], q: float) -> float:
    """Smallest value with at least a share q of the weight at or below it."""
    ranked = sorted(weighted, key=lambda nv: nv[1])
    total = sum(n for n, _ in ranked)
    seen = 0
    for n, value in ranked:
        seen += n
        if seen >= q * total:
            return value
    return ranked[-1][1]


def run_ops(ops, stats: Stats, tracer=None, timed: bool = True) -> None:
    """Runs each op, checks its output and counts the failures.

    An op that raises, or whose output is wrong or unreadable, counts as
    failed; its latency is kept.  With a tracer, each op is one root span
    named "op".
    """
    for op in ops:
        span = tracer.open("op") if tracer is not None else None
        start = time.perf_counter()
        reason = None
        try:
            result = op.run()
        except Exception as exc:  # noqa: BLE001 -- one failed op must not end the run
            traceback.print_exc()
            reason = f"raised {exc!r}"
        elapsed = time.perf_counter() - start
        if span is not None:
            tracer.close(span)
            tracer.op += 1
        if reason is None:
            try:
                reason = op.check(result)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                reason = f"unreadable output: {exc!r}"
        stats.attempted += 1
        if reason is not None:
            stats.failed += 1
            print(f"failed op: {reason}", file=sys.stderr)
        if timed:
            stats.samples.append((op.kind, elapsed))


def run_cycles(workload, stats: Stats, until: float | None = None,
               cycles: int | None = None, tracer=None) -> None:
    """One whole cycle, then more until the perf_counter deadline `until`
    has passed, or until `stats` holds `cycles` cycles."""
    while True:
        run_ops(workload.cycle(), stats, tracer)
        stats.cycles += 1
        if (time.perf_counter() >= until) if cycles is None else stats.cycles >= cycles:
            return


def import_time() -> float:
    """Seconds a fresh interpreter takes to import noonchip.cli from SRC."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout)


def environment() -> dict:
    from noonchip import kernels

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "backend": kernels.BACKEND,
    }


def end_to_end(workload_cls, seed: int, seconds: float, workdir: Path) -> tuple[Stats, dict]:
    workload = workload_cls(seed, workdir)
    stats = Stats()
    run_ops(workload.warmup(), stats, timed=False)
    # the set-up launches are spread over the run, so that their median
    # samples the same machine states as the ops
    imports = []
    start = time.perf_counter()
    for i in range(SETUP_LAUNCHES):
        imports.append(import_time())
        run_cycles(workload, stats, until=start + seconds * (i + 1) / SETUP_LAUNCHES)
    kinds = stats.best_per_kind()
    metrics = {
        "setup_s": statistics.median(imports),
        "ops_per_s": len(stats.samples) / stats.best_busy_s(),
        "op_p50_ms": nearest_rank(list(kinds.values()), 0.5) * 1e3,
        "op_p90_ms": nearest_rank(list(kinds.values()), 0.9) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    raw = [s for _, s in stats.samples]
    print(f"ops timed: {len(raw)} in {stats.cycles} cycles; raw median "
          f"{statistics.median(raw) * 1e3:.2f} ms, raw mean {statistics.fmean(raw) * 1e3:.2f} ms")
    for kind, (n, best) in sorted(kinds.items()):
        print(f"  {kind:<20} {n:>4} ops, best {best * 1e3:.2f} ms")
    return stats, metrics


def per_layer(workload_cls, name: str, seed: int, seconds: float,
              workdir: Path) -> tuple[Stats, dict]:
    stats = Stats()
    workload = workload_cls(seed, workdir)
    run_ops(workload.warmup(), stats, timed=False)
    plain = Stats()
    run_cycles(workload, plain, until=time.perf_counter() + seconds / 2)

    tracer = spans.Tracer()
    traced = Stats()
    with spans.installed(tracer):
        run_cycles(workload_cls(seed, workdir), traced, cycles=plain.cycles, tracer=tracer)
    metrics = spans.layer_metrics(tracer.spans, len(traced.samples))
    metrics["trace.overhead_pct"] = 100.0 * (traced.best_busy_s() / plain.best_busy_s() - 1.0)

    OUT.mkdir(exist_ok=True)
    dump = OUT / f"trace-{name}-seed{seed}.json"
    tracer.dump(dump)
    print(f"ops traced: {len(traced.samples)}; {len(tracer.spans)} spans written to {dump}")
    for part in (plain, traced):
        stats.attempted += part.attempted
        stats.failed += part.failed
    return stats, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "noonchip" / "__init__.py").is_file():
        print(f"no noonchip sources under {SRC}; run from a noonchip checkout", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    print("environment:", json.dumps(environment(), sort_keys=True))
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            stats, metrics = per_layer(WORKLOADS[args.workload], args.workload,
                                       args.seed, args.seconds, workdir)
            units = spans.PER_LAYER
        else:
            stats, metrics = end_to_end(WORKLOADS[args.workload], args.seed,
                                        args.seconds, workdir)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for metric, unit in units.items():
        print(f"{args.workload:>15} {metric:<44} {metrics[metric]:.6g} {unit}")
    result = {
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
