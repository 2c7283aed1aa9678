"""Photon-pair source model: squeezed pair spectrum, partial distinguishability,
and click-level contamination of heralded events.

A degenerate pair source pumps both chip inputs b and c symmetrically, so the
relevant input sectors are |n, n> with amplitude proportional to xi^n.  Higher
sectors fake lower-order heralds whenever threshold detectors cannot tell one
photon from two; contamination_report quantifies those channels.

Partial distinguishability enters hom_dip as a convex mixture: with pairwise
overlap x the observed statistics are x * quantum + (1 - x) * fully
distinguishable, where the distinguishable arm routes each photon
independently through |U[j, m]|^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import Sequence

import numpy as np

from . import detect, evolve, herald
from .circuit import ChipParams, dc_matrix
from .fock import FockState, Occupation, basis_occupations, multinomial


@dataclass(frozen=True)
class SpdcParams:
    """Pair-source settings: amplitude ratio xi, sector cutoff, photon overlap."""

    xi: float = 0.085
    n_max: int = 4
    overlap: float = 1.0

    def __post_init__(self):
        # a sector of more than evolve.MAX_PHOTONS photons cannot be evolved
        top = evolve.MAX_PHOTONS // 2
        n = self.n_max
        if not (isinstance(n, Integral) and not isinstance(n, bool) and 0 <= n <= top):
            raise ValueError(f"n_max must be an integer in [0, {top}], got {n!r}")
        if not 0.0 <= self.overlap <= 1.0:
            raise ValueError("overlap must lie in [0, 1]")
        if not 0.0 <= self.xi < 1.0:
            raise ValueError("xi must lie in [0, 1)")


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
    u = np.asarray(matrix, dtype=np.complex128)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {u.shape}")
    occ = tuple(int(x) for x in input_occ)
    if len(occ) != u.shape[0]:
        raise ValueError("occupation length does not match matrix dimension")
    modes = u.shape[0]
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


def hom_dip(params: SpdcParams, eta: float = 0.5, pairs: int = 2) -> float:
    """Visibility of the |pairs, pairs> coincidence dip at a single coupler.

    V = (P_distinguishable - P_observed) / P_distinguishable at the balanced
    output, with P_observed the overlap-weighted mixture.  For two pairs on
    an eta = 1/2 coupler the ideal visibility is 1/3.
    """
    u = dc_matrix(eta)
    occ = (pairs, pairs)
    p_quantum = abs(evolve.amplitude(u, occ, occ)) ** 2
    p_classical = distinguishable_output_distribution(u, occ).get(occ, 0.0)
    if p_classical == 0.0:
        raise ValueError("distinguishable coincidence probability vanishes; visibility undefined")
    p_mixed = params.overlap * p_quantum + (1.0 - params.overlap) * p_classical
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
    herald_branches: dict[Occupation, dict]

    def to_json_dict(self) -> dict:
        return {
            "n_pairs": self.n_pairs,
            "weight": self.weight,
            "herald_probability": self.herald_probability,
            "conditional_distribution": {
                detect.format_outcome(k): v
                for k, v in sorted(self.conditional_distribution.items())
            },
            "signature_probability": self.signature_probability,
            "interpreted_rates": {
                detect.format_outcome(k): v for k, v in sorted(self.interpreted_rates.items())
            },
            "mislabeled": self.mislabeled,
            "herald_branches": {
                detect.format_outcome(k): {
                    "probability": v["probability"],
                    "state": v["state"].to_json_dict(),
                }
                for k, v in sorted(self.herald_branches.items())
            },
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

    def interpreted_by_sector(self, occupancy: Occupation) -> dict[int, float]:
        """Joint event rate of one interpreted occupancy, split by sector."""
        return {
            s.n_pairs: s.weight * s.interpreted_rates[occupancy]
            for s in self.sectors
            if occupancy in s.interpreted_rates
        }

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


def _herald_branches(
    state: FockState, pattern: herald.HeraldPattern, total_photons: int
) -> dict[Occupation, dict]:
    """Decomposition by exact photon counts on the herald modes."""
    modes = pattern.modes()
    branches: dict[Occupation, dict] = {}
    for herald_total in range(total_photons + 1):
        for counts in basis_occupations(herald_total, len(modes)):
            result = herald.project(state, herald.HeraldPattern(dict(zip(modes, counts))))
            if result.probability > 0.0:
                branches[counts] = {
                    "probability": result.probability,
                    "state": result.conditional_state,
                }
    return branches


def contamination_report(
    chip: ChipParams,
    params: SpdcParams,
    pattern: herald.HeraldPattern,
    signal_photons: int,
    trees: Sequence[detect.SplitterTree] | None = None,
    detectors: detect.DetectorModel | None = None,
) -> ContaminationReport:
    """Per-sector herald and click-signature analysis for the pair source.

    The event signature is: each herald-mode tree shows exactly the demanded
    click count and the remaining trees show signal_photons clicks in total.
    Sectors other than the target that still produce the signature are
    flagged as mislabeled; their click counts alias lower photon numbers.
    """
    if trees is None or detectors is None:
        default_trees, default_model = detect.paper_6fold_topology()
        trees = trees if trees is not None else default_trees
        detectors = detectors if detectors is not None else default_model
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

    tree_by_mode = {t.mode: t for t in trees}
    for m in pattern.modes():
        if m not in tree_by_mode:
            raise ValueError(f"herald mode {m} carries no splitter tree")
    herald_ids = {m: set(tree_by_mode[m].detector_ids()) for m in pattern.modes()}
    signal_modes = sorted(m for m in tree_by_mode if m not in pattern.requirements)
    signal_ids = {m: set(tree_by_mode[m].detector_ids()) for m in signal_modes}

    u = chip.matrix()
    weights = sector_weights(params)
    sectors: list[SectorReport] = []
    true_prob = 0.0
    false_prob = 0.0
    for n, weight in weights.items():
        evolved = evolve.apply(u, sector_chip_input(n))
        exact = herald.project(evolved, pattern)
        clicks = detect.click_distribution(evolved, list(trees), detectors)
        interpreted: dict[Occupation, float] = {}
        for click_pattern, p in clicks.items():
            if not all(
                len(click_pattern & herald_ids[m]) == c
                for m, c in pattern.requirements.items()
            ):
                continue
            counts = tuple(len(click_pattern & signal_ids[m]) for m in signal_modes)
            if sum(counts) != signal_photons:
                continue
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
                herald_probability=exact.probability,
                conditional_distribution=(
                    {}
                    if exact.is_null
                    else dict(
                        sorted(
                            (occ, abs(a) ** 2)
                            for occ, a in exact.conditional_state.amplitudes.items()
                        )
                    )
                ),
                signature_probability=signature,
                interpreted_rates=interpreted,
                mislabeled=mislabeled,
                herald_branches=_herald_branches(evolved, pattern, 2 * n),
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
