"""The four benchmark workloads, their ops and their output checks.

An op is one call into noonchip plus a check of its output against values
that do not come from the code under test.  Each workload yields ops in
cycles; a run repeats cycles until its time is up, so every run measures
whole cycles.  The ops call noonchip through module attributes
(``cli.main``, ``source.contamination_report`` ...) so that the traced run's
wrappers see them.

Why these four (more in README.md):

* presets: what users run to reproduce the paper's figures; spreads time
  over evolve.apply, fock, herald, fringe scans and ideal-detector clicks.
* detector-sweep: dark counts force all 2^10 click patterns per routing, the
  slow path of detect.click_distribution.  Goes through the library, since
  the CLI's detection config cannot set dark counts.
* engine-check: the only workload where kernels.permanent does most of the
  work (the permanent route against evolve.apply).
* coincidence: the lab-data path, the only one that reaches coinc.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
from noonchip import cli, detect, evolve, herald, source
from noonchip.circuit import ChipParams
from noonchip.fock import FockState


@dataclass
class Op:
    """One call into the program and the check of what it returned.

    check returns None when the output is right, else the reason it is not.
    kind names the op's cost class (a preset, an input shape); ops of one
    kind cost the same up to seeded continuous parameters.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def _quiet_main(argv: list[str]) -> int:
    """cli.main with its summary lines kept off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _close(value: float, expected: float, tol: float) -> bool:
    return math.isfinite(value) and abs(value - expected) <= tol


# -- presets -------------------------------------------------------------------

PRESET_COMMAND = {
    "fig2a": "simulate",
    "fig2b-sagnac": "simulate",
    "fig3a": "fringe",
    "fig3b": "fringe",
    "fig3b-4point": "fringe",
    "fig4": "simulate",
    "fig4-contamination": "contamination",
}

#: files each preset must write; a name without a suffix takes the run's format
PRESET_FILES = {
    "fig2a": ("herald.json", "state.json", "distribution"),
    "fig2b-sagnac": ("sagnac.json", "distribution"),
    "fig3a": ("period.json", "fringe"),
    "fig3b": ("period.json", "fringe"),
    "fig3b-4point": ("period.json", "fringe"),
    "fig4": ("herald.json", "state.json", "distribution"),
    "fig4-contamination": ("contamination.json",),
}

#: false-to-true ratio of fig4-contamination, as computed by noonchip at
#: commit 59e254f (python kernel); a change of method may move the last digits
FIG4_CONTAMINATION_RATIO = 0.06737270688657412
RATIO_RTOL = 1e-9

#: expected values: (file, JSON path, value, absolute tolerance); all but the
#: fig4-contamination ratio come from the physics, not from noonchip
PRESET_EXPECTED: dict[str, tuple[str, tuple[str, ...], float, float]] = {
    "fig2a": ("herald.json", ("probability",), 4.0 / 81.0, 1e-12),
    "fig2b-sagnac": ("sagnac.json", ("conditional_distribution", "1;1"), 1.0, 1e-12),
    "fig3a": ("period.json", ("period",), 2.0 * math.pi, 1e-6),
    "fig3b": ("period.json", ("period",), math.pi, 1e-6),
    "fig4-contamination": (
        "contamination.json",
        ("false_to_true_ratio",),
        FIG4_CONTAMINATION_RATIO,
        RATIO_RTOL * FIG4_CONTAMINATION_RATIO,
    ),
}


def check_preset(name: str, fmt: str, out_dir: Path, code: object, expected=PRESET_EXPECTED) -> str | None:
    if code != cli.EXIT_OK:
        return f"{name}: exit code {code}"
    for stem in PRESET_FILES[name]:
        file = stem if "." in stem else f"{stem}.{fmt}"
        if not (out_dir / file).is_file():
            return f"{name}: {file} not written"
    if name not in expected:
        return None
    file, path, want, tol = expected[name]
    value = json.loads((out_dir / file).read_text())
    for key in path:
        value = value[key]
    if not _close(float(value), want, tol):
        return f"{name}: {'/'.join(path)} is {value!r}, expected {want!r}"
    return None


def preset_op(name: str, fmt: str, out_dir: Path, expected=PRESET_EXPECTED) -> Op:
    argv = [PRESET_COMMAND[name], "--preset", name, "--out", str(out_dir), "--format", fmt]

    def check(code):
        try:
            return check_preset(name, fmt, out_dir, code, expected)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    return Op(name, lambda: _quiet_main(argv), check)


class Presets:
    """Each op is one CLI run of a preset, in seeded order and format."""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir

    def _op(self, name: str, fmt: str) -> Op:
        return preset_op(name, fmt, self.workdir / "preset-out")

    def warmup(self) -> list[Op]:
        return [self._op(name, "csv") for name in inputs.PRESETS]

    def cycle(self) -> list[Op]:
        return [self._op(name, fmt) for name, fmt in inputs.preset_cycle(self.rng)]


# -- detector-sweep ------------------------------------------------------------

SWEEP_SPDC = source.SpdcParams(xi=0.085, n_max=2)
SWEEP_HERALD = herald.HeraldPattern({0: 1, 3: 1})
SWEEP_SIGNAL_PHOTONS = 2

#: reference point (efficiency, dark count, phi) and its (true, false) event
#: probabilities, as computed by noonchip at commit 59e254f (python kernel)
SWEEP_REFERENCE = (0.7, 1e-3, math.pi / 2.0)
SWEEP_REFERENCE_PROBS = (4.856918957612847e-07, 1.1294921804502704e-08)


def _report_probabilities(report) -> list[float]:
    probs = [report.true_event_probability, report.false_event_probability]
    for sector in report.sectors:
        probs += [sector.weight, sector.herald_probability, sector.signature_probability]
        probs += sector.conditional_distribution.values()
        probs += sector.interpreted_rates.values()
    return probs


def sweep_op(efficiency: float, dark: float, phi: float, expected=None) -> Op:
    trees, _ = detect.paper_6fold_topology()
    chip = ChipParams(phi=phi)
    model = detect.DetectorModel(efficiency=efficiency, dark_count_prob=dark)

    def run():
        return source.contamination_report(
            chip, SWEEP_SPDC, SWEEP_HERALD, SWEEP_SIGNAL_PHOTONS, trees, model
        )

    def check(report):
        for p in _report_probabilities(report):
            if not (math.isfinite(p) and 0.0 <= p <= 1.0):
                return f"probability {p!r} outside [0, 1]"
        if expected is not None:
            got = (report.true_event_probability, report.false_event_probability)
            for value, want in zip(got, expected):
                if not _close(value, want, RATIO_RTOL * want):
                    return f"reference point gives {got!r}, expected {expected!r}"
        return None

    return Op("point", run, check)


class DetectorSweep:
    """Each op is one contamination report at a seeded detector point."""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.rng = np.random.default_rng(seed)

    def warmup(self) -> list[Op]:
        return [sweep_op(*SWEEP_REFERENCE, expected=SWEEP_REFERENCE_PROBS)]

    def cycle(self) -> list[Op]:
        return [sweep_op(*inputs.detector_point(self.rng))]


# -- engine-check ----------------------------------------------------------------

ENGINE_AGREE_TOL = 1e-10
PROB_SUM_TOL = 1e-9


def engine_op(occupation: tuple[int, ...], matrix: np.ndarray | None = None,
              chip: ChipParams | None = None) -> Op:
    """Both evolution engines on one unitary (given, or the chip's)."""
    state = FockState.basis_state(occupation)

    def run():
        u = chip.matrix() if chip is not None else matrix
        return evolve.output_distribution(u, occupation), evolve.apply(u, state)

    def check(result):
        by_permanent, evolved = result
        by_apply = {occ: abs(a) ** 2 for occ, a in evolved.amplitudes.items()}
        residual = abs(sum(by_permanent.values()) - 1.0)
        if not residual <= PROB_SUM_TOL:
            return f"{occupation}: probabilities sum to 1 + {residual:.3g}"
        gap = max(
            abs(by_permanent.get(occ, 0.0) - by_apply.get(occ, 0.0))
            for occ in set(by_permanent) | set(by_apply)
        )
        if not gap <= ENGINE_AGREE_TOL:
            return f"{occupation}: engines differ by {gap:.3g}"
        return None

    return Op(",".join(map(str, occupation)), run, check)


class EngineCheck:
    """Each op cross-checks the two engines; a cycle runs the three shapes."""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.rng = np.random.default_rng(seed)

    def _ops(self, rng: np.random.Generator) -> list[Op]:
        return [
            engine_op((0, 4, 4, 0), chip=ChipParams(**inputs.chip_settings(rng))),
            engine_op((1,) * 6, matrix=inputs.haar_unitary(rng, 6)),
            engine_op((0, 3, 3, 0), matrix=inputs.haar_unitary(rng, 4)),
        ]

    def warmup(self) -> list[Op]:
        return self._ops(np.random.default_rng(0))

    def cycle(self) -> list[Op]:
        return self._ops(self.rng)


# -- coincidence ---------------------------------------------------------------

COINCIDENCE_CONFIG = {"jitter_sigma_ns": 0.3, "dead_time_ns": 50.0}


def read_counts(path: Path) -> Counter:
    """coincidences.csv (columns channels,count) as channel set -> count."""
    lines = path.read_text().splitlines()
    if lines[0] != "channels,count":
        raise ValueError(f"{path}: unexpected header {lines[0]!r}")
    counts: Counter = Counter()
    for line in lines[1:]:
        channels, n = line.rsplit(",", 1)
        counts[frozenset(channels.split(";"))] = int(n)
    return counts


def coincidence_op(pulse_file: Path, config_file: Path, seed: int, out_dir: Path,
                   truth: Counter) -> Op:
    argv = ["coincidence", str(pulse_file), "--config", str(config_file),
            "--seed", str(seed), "--out", str(out_dir)]

    def check(code):
        try:
            if code != cli.EXIT_OK:
                return f"exit code {code}"
            counts = read_counts(out_dir / "coincidences.csv")
            if counts != truth:
                wrong = sum(((counts - truth) + (truth - counts)).values())
                return f"{wrong} records differ from the planted counts"
            return None
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    return Op("file", lambda: _quiet_main(argv), check)


class Coincidence:
    """Each op counts coincidences in one seeded pulse file through the CLI."""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.config_file = workdir / "coincidence.json"
        self.config_file.write_text(json.dumps(COINCIDENCE_CONFIG))

    def _op(self, rng: np.random.Generator) -> Op:
        pulses, truth = inputs.pulse_stream(rng)
        pulse_file = self.workdir / "pulses.csv"
        pulse_file.write_text(inputs.pulse_csv(pulses))
        seed = int(rng.integers(2**32))
        return coincidence_op(pulse_file, self.config_file, seed,
                              self.workdir / "coincidence-out", truth)

    def warmup(self) -> list[Op]:
        return [self._op(np.random.default_rng(0))]

    def cycle(self) -> list[Op]:
        return [self._op(self.rng)]


WORKLOADS = {
    "presets": Presets,
    "detector-sweep": DetectorSweep,
    "engine-check": EngineCheck,
    "coincidence": Coincidence,
}
