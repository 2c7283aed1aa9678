"""Phase-fringe scans, super-resolution checks, and the reverse-pass readout.

A fringe scan sweeps the heater phase and records the probability of one
detection pattern.  An N-photon path-entangled state picks up phase N times
faster than a single photon, so its fringe period shrinks by 1/N; the period
estimator measures that super-resolution without assuming it.

The reverse pass sends a two-mode state back through the central coupler and
extracts the result at the outer couplers, converting a |2,0> + |0,2>
superposition into a deterministic |1,1> coincidence; any dephasing between
the two branches shows up as a drop of that coincidence probability to 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from . import evolve, herald
from .circuit import (ChipParams, DirectionalCoupler, Interferometer, LossTap, PhaseShifter,
                      compile_circuit)
from .fock import (FockState, Occupation, is_number, marginal_distribution, nonnegative_ints,
                   probability)


class FringeSample(NamedTuple):
    phi: float
    probability: float


@dataclass(frozen=True)
class FringeScenario:
    """A phase sweep: chip settings, input state, and the counted pattern.

    The pattern demands exact photon counts on some modes (a mapping from
    mode index to count becomes a HeraldPattern); modes not listed are
    summed over.
    """

    chip: ChipParams
    input_state: FockState
    pattern: herald.HeraldPattern | Mapping[int, int]

    def __post_init__(self):
        if not isinstance(self.pattern, herald.HeraldPattern):
            object.__setattr__(self, "pattern", herald.HeraldPattern(self.pattern))


def fringe_scan(scenario: FringeScenario, phi_grid: Iterable[float]) -> list[FringeSample]:
    """Probability of the detection pattern at each phase setting."""
    modes = scenario.pattern.modes()
    wanted = tuple(scenario.pattern.requirements[m] for m in modes)
    samples = []
    for phi in phi_grid:
        chip = replace(scenario.chip, phi=float(phi))
        state = evolve.apply(chip.matrix(), scenario.input_state)
        prob = marginal_distribution(state, modes).get(wanted, 0.0)
        samples.append(FringeSample(float(phi), prob))
    return samples


def probe_fringe_scan(
    state: FockState, pattern: Occupation, theta_grid: Iterable[float]
) -> list[FringeSample]:
    """Interrogates a two-mode state with a phase and a probe coupler.

    Applies phase theta on the first mode followed by a 50:50 coupler, then
    records the probability of the exact two-mode pattern.  An |N::0>
    component produces cos(N theta) fringes.
    """
    if state.mode_count != 2:
        raise ValueError("probe scan expects a two-mode state")
    samples = []
    wanted = nonnegative_ints(pattern)
    for theta in theta_grid:
        probe = Interferometer(2, (PhaseShifter(float(theta), 0), DirectionalCoupler(0.5, (0, 1))))
        evolved = evolve.apply(compile_circuit(probe), state)
        prob = abs(evolved.amplitude(wanted)) ** 2
        samples.append(FringeSample(float(theta), prob))
    return samples


# -- period estimation ---------------------------------------------------------

MIN_FRINGE_SAMPLES = 8

#: spectral peaks below this fraction of the mean level count as "no fringe"
FLAT_THRESHOLD = 1e-9


def _sinusoid_residual(phis: np.ndarray, values: np.ndarray, freq: float) -> float:
    """Least-squares residual of a constant-plus-sinusoid model at freq."""
    design = np.column_stack(
        [
            np.ones_like(phis),
            np.cos(2.0 * np.pi * freq * phis),
            np.sin(2.0 * np.pi * freq * phis),
        ]
    )
    coef, *_ = np.linalg.lstsq(design, values, rcond=None)
    misfit = values - design @ coef
    return float(misfit @ misfit)


def fringe_period(samples: Sequence[tuple[float, float]]) -> float | None:
    """Dominant oscillation period of a uniformly spaced fringe scan.

    Locates the spectral peak, then refines the frequency by fitting a
    constant plus one sinusoid (golden-section search within one bin of the
    peak).  Returns None when the samples carry no oscillation; raises on
    fewer than MIN_FRINGE_SAMPLES points or a non-uniform grid.  Samples are
    (phi, probability) pairs, FringeSample among them, of numbers that pass
    fock.is_number; the first that does not raises ValueError.  A period
    returned is finite: samples whose fit overflows, such as phases near a
    float's limit, raise ValueError too, and no numpy warning escapes.
    """
    pairs = []
    for phi, p in samples:
        if not (is_number(phi) and is_number(p)):
            raise ValueError(f"fringe sample ({phi!r}, {p!r}) is not a pair of finite numbers")
        pairs.append((float(phi), float(p)))
    if len(pairs) < MIN_FRINGE_SAMPLES:
        raise ValueError(
            f"need at least {MIN_FRINGE_SAMPLES} samples to estimate a period, got {len(pairs)}"
        )
    pairs.sort()
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return _fitted_period(np.array([p for p, _ in pairs]), np.array([v for _, v in pairs]))
    except FloatingPointError as exc:
        raise ValueError(f"fringe samples overflow the period fit ({exc})") from None


def _fitted_period(phis: np.ndarray, values: np.ndarray) -> float | None:
    """fringe_period on sorted, finite phases and probabilities."""
    steps = np.diff(phis)
    dt = steps.mean()
    if dt <= 0.0 or np.max(np.abs(steps - dt)) > 1e-9 * max(abs(dt), 1.0):
        raise ValueError("fringe samples must lie on a uniform phase grid")

    spectrum = np.abs(np.fft.rfft(values - values.mean()))
    scale = np.mean(np.abs(values)) + 1.0
    if spectrum.size < 2 or spectrum[1:].max() <= FLAT_THRESHOLD * scale * len(values):
        return None
    peak = 1 + int(np.argmax(spectrum[1:]))

    span = len(values) * dt
    lo = max(0.25, peak - 1.0) / span
    hi = (peak + 1.0) / span
    inv_golden = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_golden * (b - a)
    d = a + inv_golden * (b - a)
    f_c, f_d = _sinusoid_residual(phis, values, c), _sinusoid_residual(phis, values, d)
    for _ in range(90):
        if f_c < f_d:
            b, d, f_d = d, c, f_c
            c = b - inv_golden * (b - a)
            f_c = _sinusoid_residual(phis, values, c)
        else:
            a, c, f_c = c, d, f_d
            d = a + inv_golden * (b - a)
            f_d = _sinusoid_residual(phis, values, d)
    frequency = 0.5 * (a + b)
    return float(1.0 / frequency)


def precision_bounds(n_photons: int) -> tuple[float, float]:
    """(shot-noise limit, Heisenberg limit) phase uncertainties for n photons."""
    (n,) = nonnegative_ints((n_photons,))
    if n < 1:
        raise ValueError("need at least one photon")
    return 1.0 / math.sqrt(n), 1.0 / n


# -- reverse pass ----------------------------------------------------------------


@dataclass(frozen=True)
class ReverseResult:
    """Extraction statistics of the reverse pass.

    detection_distribution covers photon counts on the two extraction ports,
    including partial-extraction outcomes; conditional_distribution restricts
    to full extraction of all photons.
    """

    detection_distribution: dict[Occupation, float]
    full_extraction_probability: float
    conditional_distribution: dict[Occupation, float]


Ensemble = Sequence[tuple[float, FockState]]


def _reverse_distribution(state: FockState, chip: ChipParams) -> dict[Occupation, float]:
    """Joint extraction-port distribution for one pure two-mode state."""
    if state.mode_count != 2:
        raise ValueError("reverse pass expects a two-mode state")
    # extraction: the outer couplers tap each arm into modes 2, 3 with amplitude sqrt(1 - eta)
    taps = (LossTap(1.0 - chip.eta3, 0, 2), LossTap(1.0 - chip.eta4, 1, 3))
    reverse = Interferometer(4, (DirectionalCoupler(chip.eta2, (0, 1)),) + taps)
    # the state enters the reverse pass with its modes swapped, taps empty
    embedded = FockState(4, {(n1, n0, 0, 0): amp for (n0, n1), amp in state.amplitudes.items()})
    out = evolve.apply(compile_circuit(reverse), embedded)
    return marginal_distribution(out, (0, 1))


def reverse_pass(ensemble: Ensemble, chip: ChipParams = ChipParams()) -> ReverseResult:
    """Sends a weighted ensemble of two-mode states, [(1.0, state)] for a pure
    state, backward through the chip's central coupler (eta2) and taps its
    outer couplers (eta3, eta4)."""
    ensemble = tuple((probability("ensemble weight", w), s) for w, s in ensemble)
    weight_sum = sum(w for w, _ in ensemble)
    if not abs(weight_sum - 1.0) <= 1e-9:
        raise ValueError(f"ensemble weights sum to {weight_sum:.10g}, expected 1")

    totals: dict[Occupation, float] = {}
    photon_totals = set()
    for weight, state in ensemble:
        photon_totals.update(state.photon_sectors())
        for occ, p in _reverse_distribution(state, chip).items():
            totals[occ] = totals.get(occ, 0.0) + weight * p

    n_total = max(photon_totals, default=0)
    full = {occ: p for occ, p in totals.items() if sum(occ) == n_total}
    p_full = sum(full.values(), 0.0)
    conditional = {occ: p / p_full for occ, p in full.items()} if p_full > 0.0 else {}
    return ReverseResult(totals, p_full, conditional)

