"""Photon-pair source model: squeezed pair spectrum, partial distinguishability,
and click-level contamination of heralded events.

A degenerate pair source pumps both chip inputs b and c symmetrically, so the
relevant input sectors are |n, n> with amplitude proportional to xi^n.  Higher
sectors fake lower-order heralds whenever threshold detectors cannot tell one
photon from two; contamination_report quantifies those channels behind the
splitter trees and detector model it is given.  It reads each sector's
detect.click_array: the click count of a tree is the popcount of its axis
index, so the event signature is a broadcast mask over the array.

Pairs are indistinguishable everywhere but in hom_dip, where partial
distinguishability enters as a convex mixture: with pairwise overlap x the
observed statistics are x * quantum + (1 - x) * fully distinguishable, where
the distinguishable arm routes each photon independently through |U[j, m]|^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import Sequence

import numpy as np

from . import detect, evolve, herald
from .circuit import ChipParams, dc_matrix
from .fock import FockState, Occupation, is_number, multinomial, nonnegative_ints, probability, split


@dataclass(frozen=True)
class SpdcParams:
    """Pair-source settings: amplitude ratio xi and sector cutoff."""

    xi: float = 0.085
    n_max: int = 4

    def __post_init__(self):
        # a sector of more than evolve.MAX_PHOTONS photons cannot be evolved
        top = evolve.MAX_PHOTONS // 2
        n = self.n_max
        if not (is_number(n, Integral) and 0 <= n <= top):
            raise ValueError(f"n_max must be an integer in [0, {top}], got {n!r}")
        if not (is_number(self.xi) and 0.0 <= self.xi < 1.0):
            raise ValueError(f"xi must lie in [0, 1), got {self.xi!r}")


def sector_weights(params: SpdcParams) -> dict[int, float]:
    """Probability of each pair sector n in the truncated source state."""
    raw = [params.xi ** (2 * n) for n in range(params.n_max + 1)]
    total = sum(raw)
    return {n: w / total for n, w in enumerate(raw)}


def sector_chip_input(n: int) -> FockState:
    """|0, n, n, 0>: one pair sector entering chip inputs b and c."""
    return FockState.basis_state((0, n, n, 0))


def spdc_chip_input(params: SpdcParams) -> FockState:
    """Full truncated source state embedded on the four chip modes."""
    weights = sector_weights(params)
    amps = {(0, n, n, 0): math.sqrt(w) for n, w in weights.items()}
    return FockState(4, amps)


# -- distinguishable-photon statistics ----------------------------------------


def distinguishable_output_distribution(
    matrix: np.ndarray, input_occ: Sequence[int]
) -> dict[Occupation, float]:
    """Output photon-count distribution for fully distinguishable photons.

    Each photon routes independently: a photon entering mode m exits mode j
    with probability |U[j, m]|^2.  Interference terms vanish entirely.
    """
    u = evolve._check_matrix(matrix)
    modes = u.shape[0]
    occ = nonnegative_ints(input_occ, modes)
    dist: dict[Occupation, float] = {(0,) * modes: 1.0}
    for m, s in enumerate(occ):
        if s == 0:
            continue
        q = np.abs(u[:, m]) ** 2
        q = q / q.sum()
        layer = multinomial(s, q)
        merged: dict[Occupation, float] = {}
        for occ_a, pa in dist.items():
            for occ_b, pb in layer.items():
                key = tuple(a + b for a, b in zip(occ_a, occ_b))
                merged[key] = merged.get(key, 0.0) + pa * pb
        dist = merged
    return dist


def hom_dip(overlap: float) -> float:
    """Visibility of the |2,2> coincidence dip at a 50:50 coupler, overlap in [0, 1].

    V = (P_distinguishable - P_observed) / P_distinguishable at the balanced
    output, with P_observed the overlap-weighted mixture.  The ideal
    visibility, at overlap 1, is 1/3.
    """
    overlap = probability("overlap", overlap)
    u = dc_matrix(0.5)
    occ = (2, 2)
    p_quantum = abs(evolve.amplitude(u, occ, occ)) ** 2
    p_classical = distinguishable_output_distribution(u, occ)[occ]
    p_mixed = overlap * p_quantum + (1.0 - overlap) * p_classical
    return float((p_classical - p_mixed) / p_classical)


# -- contamination analysis ----------------------------------------------------


@dataclass(frozen=True)
class SectorReport:
    """Click-level behavior of one pair sector |n, n>."""

    n_pairs: int
    weight: float
    herald_probability: float
    conditional_distribution: dict[Occupation, float]
    signature_probability: float
    interpreted_rates: dict[Occupation, float]
    mislabeled: bool
    herald_branches: dict[Occupation, tuple[float, FockState]]  # herald.condition of each split part

    def to_json_dict(self) -> dict:
        return {
            "n_pairs": self.n_pairs,
            "weight": self.weight,
            "herald_probability": self.herald_probability,
            "conditional_distribution": detect.outcome_map(self.conditional_distribution),
            "signature_probability": self.signature_probability,
            "interpreted_rates": detect.outcome_map(self.interpreted_rates),
            "mislabeled": self.mislabeled,
            "herald_branches": detect.outcome_map({
                k: {"probability": p, "state": state.to_json_dict()}
                for k, (p, state) in self.herald_branches.items()
            }),
        }


@dataclass(frozen=True)
class ContaminationReport:
    """Which source sectors feed a given click-level event signature."""

    target_sector: int
    herald_photons: int
    signal_photons: int
    sectors: tuple[SectorReport, ...]
    true_event_probability: float
    false_event_probability: float

    @property
    def false_to_true_ratio(self) -> float:
        if self.true_event_probability > 0.0:
            return self.false_event_probability / self.true_event_probability
        return math.inf if self.false_event_probability > 0.0 else 0.0

    def to_json_dict(self) -> dict:
        return {
            "target_sector": self.target_sector,
            "herald_photons": self.herald_photons,
            "signal_photons": self.signal_photons,
            "true_event_probability": self.true_event_probability,
            "false_event_probability": self.false_event_probability,
            "false_to_true_ratio": self.false_to_true_ratio,
            "sectors": [s.to_json_dict() for s in self.sectors],
        }


def contamination_report(
    chip: ChipParams,
    params: SpdcParams,
    pattern: herald.HeraldPattern,
    signal_photons: int,
    trees: Sequence[detect.SplitterTree],
    detectors: detect.DetectorModel,
) -> ContaminationReport:
    """Per-sector herald and click-signature analysis for the pair source.

    The event signature is: each herald-mode tree shows exactly the demanded
    click count and the remaining trees show signal_photons clicks in total.
    Sectors other than the target that still produce the signature are
    flagged as mislabeled; their click counts alias lower photon numbers.
    """
    (signal_photons,) = nonnegative_ints((signal_photons,))
    herald_photons = pattern.photon_count()
    total = herald_photons + signal_photons
    if total % 2:
        raise ValueError(
            f"herald plus signal photons is odd ({total}); pair sectors cannot produce it"
        )
    target = total // 2
    if target > params.n_max:
        raise ValueError(
            f"truncation n_max={params.n_max} is too low for the requested analysis "
            f"(needs sector {target})"
        )

    covered = {t.mode for t in trees}
    for m in pattern.modes():
        if m not in covered:
            raise ValueError(f"herald mode {m} carries no splitter tree")

    wanted = tuple(pattern.requirements[m] for m in pattern.modes())
    u = chip.matrix()
    kept = u.shape[0] - len(wanted)
    weights = sector_weights(params)
    sectors: list[SectorReport] = []
    true_prob = 0.0
    false_prob = 0.0
    for n, weight in weights.items():
        evolved = evolve.apply(u, sector_chip_input(n))
        parts = split(evolved, pattern.modes())
        branches = {counts: herald.condition(part, kept) for counts, part in parts.items()}
        herald_probability, conditional = branches.get(wanted) or herald.condition({}, kept)
        ordered, clicks = detect.click_array(evolved, list(trees), detectors)
        pops = [[b.bit_count() for b in range(size)] for size in clicks.shape]
        keep, signal, signal_axes = clicks > 0.0, 0, []
        for axis, tree in enumerate(ordered):  # broadcast each tree's click counts
            pop = np.array(pops[axis]).reshape([-1 if a == axis else 1 for a in range(clicks.ndim)])
            if tree.mode in pattern.requirements:
                keep &= pop == pattern.requirements[tree.mode]
            else:
                signal = signal + pop
                signal_axes.append(axis)
        hits = np.nonzero(keep & (signal == signal_photons))  # in C order
        interpreted: dict[Occupation, float] = {}
        for index, p in zip(zip(*(h.tolist() for h in hits)), clicks[hits].tolist()):
            counts = tuple(pops[a][index[a]] for a in signal_axes)
            interpreted[counts] = interpreted.get(counts, 0.0) + p
        signature = sum(interpreted.values())
        mislabeled = n != target and signature > 0.0
        if n == target:
            true_prob = weight * signature
        else:
            false_prob += weight * signature
        sectors.append(
            SectorReport(
                n_pairs=n,
                weight=weight,
                herald_probability=herald_probability,
                conditional_distribution={occ: abs(a) ** 2 for occ, a in conditional.items()},
                signature_probability=signature,
                interpreted_rates=interpreted,
                mislabeled=mislabeled,
                herald_branches=branches,
            )
        )
    return ContaminationReport(
        target_sector=target,
        herald_photons=herald_photons,
        signal_photons=signal_photons,
        sectors=tuple(sectors),
        true_event_probability=true_prob,
        false_event_probability=false_prob,
    )
