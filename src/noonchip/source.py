"""Photon-pair source model: squeezed pair spectrum, partial distinguishability,
and click-level contamination of heralded events.

A degenerate pair source pumps both chip inputs b and c symmetrically, so the
relevant input sectors are |n, n> with amplitude proportional to xi^n.  Higher
sectors fake lower-order heralds whenever threshold detectors cannot tell one
photon from two; contamination_report quantifies those channels behind the
splitter trees and detector model it is given.  It takes every sector's
click array from one detect.click_array call and sums it by popcount: the
click count of a tree is the popcount of its axis index, so one C-order sum
gives each sector's probability of every tuple of per-tree click counts, and
the event signature is read at the herald counts.

Pairs are indistinguishable everywhere but in hom_dip, where partial
distinguishability enters as a convex mixture: with pairwise overlap x the
observed statistics are x * quantum + (1 - x) * fully distinguishable, where
the distinguishable arm is fock.multinomial: each photon picks its output
port on its own, with probability 1/2 at the balanced coupler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import detect, evolve, herald
from .circuit import ChipParams, dc_matrix
from .fock import FockState, Occupation, count, is_number, multinomial, probability, split


@dataclass(frozen=True)
class SpdcParams:
    """Pair-source settings: amplitude ratio xi in [0, 1) and sector cutoff n_max, a count."""

    xi: float = 0.085
    n_max: int = 4

    def __post_init__(self):
        # a sector of more than evolve.MAX_PHOTONS photons cannot be evolved
        object.__setattr__(self, "n_max", count("n_max", self.n_max, hi=evolve.MAX_PHOTONS // 2))
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


def hom_dip(overlap: float) -> float:
    """Visibility of the |2,2> coincidence dip at a 50:50 coupler, overlap in [0, 1].

    V = (P_distinguishable - P_observed) / P_distinguishable at the balanced
    output, with P_observed the overlap-weighted mixture.  The ideal
    visibility, at overlap 1, is 1/3.
    """
    overlap = probability("overlap", overlap)
    occ = (2, 2)
    p_quantum = abs(evolve.amplitude(dc_matrix(0.5), occ, occ)) ** 2
    # a distinguishable photon leaves a balanced coupler by either port with probability 1/2
    p_classical = multinomial(4, (0.5, 0.5))[occ]
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
    signal_photons = count("signal_photons", signal_photons)
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

    wanted = pattern.counts()
    u = chip.matrix()
    kept = u.shape[0] - len(wanted)
    weights = sector_weights(params)
    evolved = [evolve.apply(u, sector_chip_input(n)) for n in weights]
    ordered, clicks = detect.click_array(evolved, trees, detectors)
    # rates[s, c_0, ...]: probability that each tree t shows c_t clicks in sector s
    demanded = [pattern.requirements.get(t.mode) for t in ordered]  # None on signal trees
    sizes = [max(len(t.leaves), c or 0) + 1 for t, c in zip(ordered, demanded)]
    rates = np.zeros((len(evolved), *sizes))
    pops = [[b.bit_count() for b in range(1 << len(t.leaves))] for t in ordered]
    np.add.at(rates, np.ix_(range(len(evolved)), *pops), clicks)  # in C order
    at_herald = tuple(slice(None) if c is None else c for c in demanded)
    sectors: list[SectorReport] = []
    for (n, weight), state, sector_rates in zip(weights.items(), evolved, rates):
        parts = split(state, pattern.modes())
        branches = {counts: herald.condition(part, kept) for counts, part in parts.items()}
        herald_probability, conditional = branches.get(wanted) or herald.condition({}, kept)
        signal = sector_rates[at_herald]
        interpreted = {c: float(signal[c]) for c in np.ndindex(signal.shape)
                       if sum(c) == signal_photons and signal[c] > 0.0}
        signature = sum(interpreted.values())
        sectors.append(
            SectorReport(
                n_pairs=n,
                weight=weight,
                herald_probability=herald_probability,
                conditional_distribution={occ: abs(a) ** 2 for occ, a in conditional.items()},
                signature_probability=signature,
                interpreted_rates=interpreted,
                mislabeled=n != target and signature > 0.0,
                herald_branches=branches,
            )
        )
    return ContaminationReport(
        target_sector=target,
        herald_photons=herald_photons,
        signal_photons=signal_photons,
        sectors=tuple(sectors),
        true_event_probability=sum((r.weight * r.signature_probability
                                    for r in sectors if r.n_pairs == target), 0.0),
        false_event_probability=sum((r.weight * r.signature_probability
                                     for r in sectors if r.n_pairs != target), 0.0),
    )
