"""Splitter cascades, threshold detectors, and click-pattern statistics.

Photon-count measurement is emulated by fanning each measured mode out over
a tree of splitters onto single-photon (threshold) detectors.  Classical
routing after the quantum evolution is exact for photon-counting statistics:
each photon independently lands on leaf d with probability p_d, so n photons
resolve onto n distinct chosen detectors with probability n! * prod_d p_d.

Leaf probabilities may sum to less than 1; the deficit is loss.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import evolve, herald
from .circuit import ChipParams
from .fock import FockState, Occupation, marginal_distribution, multinomial

ClickPattern = frozenset  # frozenset[str] of clicked detector ids

PROB_SUM_TOL = 1e-9


@dataclass(frozen=True)
class SplitterTree:
    """Fan-out of one mode onto named detector leaves with routing probabilities."""

    mode: int
    leaves: tuple[tuple[str, float], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "leaves", tuple((str(d), float(p)) for d, p in self.leaves)
        )
        ids = [d for d, _ in self.leaves]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate detector ids in tree on mode {self.mode}")
        for d, p in self.leaves:
            if p < 0.0:
                raise ValueError(f"negative leaf probability for {d}")
        if sum(p for _, p in self.leaves) > 1.0 + PROB_SUM_TOL:
            raise ValueError(f"leaf probabilities on mode {self.mode} exceed 1")

    @property
    def loss(self) -> float:
        return max(0.0, 1.0 - sum(p for _, p in self.leaves))

    def detector_ids(self) -> tuple[str, ...]:
        return tuple(d for d, _ in self.leaves)

    def leaf_probability(self, det: str) -> float:
        for d, p in self.leaves:
            if d == det:
                return p
        raise ValueError(f"detector {det!r} is not a leaf of the tree on mode {self.mode}")


@dataclass(frozen=True)
class DetectorModel:
    """Detector response shared by all leaves unless given per id.

    number_resolving=False models SPCM threshold detectors: a detector with
    c incident photons clicks with probability 1 - (1 - efficiency)^c.
    dark_count_prob adds an independent click chance per detector per shot.
    """

    efficiency: float | Mapping[str, float] = 1.0
    number_resolving: bool = False
    dark_count_prob: float = 0.0

    def eff(self, det: str) -> float:
        if isinstance(self.efficiency, Mapping):
            value = float(self.efficiency.get(det, 1.0))
        else:
            value = float(self.efficiency)
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"efficiency for {det!r} must lie in [0, 1]")
        return value


def _validate_trees(trees: Sequence[SplitterTree]) -> None:
    modes = [t.mode for t in trees]
    if len(set(modes)) != len(modes):
        raise ValueError("each mode may carry at most one splitter tree")
    ids = [d for t in trees for d in t.detector_ids()]
    if len(set(ids)) != len(ids):
        raise ValueError("detector ids must be unique across trees")


def cascade_resolve_probability(
    tree: SplitterTree, n_photons: int, target_detectors: Iterable[str]
) -> float:
    """Probability that n photons land one each on the given distinct leaves."""
    targets = list(target_detectors)
    if len(set(targets)) != len(targets):
        raise ValueError("target detectors must be distinct")
    if len(targets) != n_photons:
        raise ValueError(
            f"{n_photons} photons cannot resolve onto {len(targets)} target detectors"
        )
    product = 1.0
    for det in targets:
        product *= tree.leaf_probability(det)
    return math.factorial(n_photons) * product


def _threshold_response(
    hits: Mapping[str, int], all_ids: Sequence[str], model: DetectorModel
) -> dict[ClickPattern, float]:
    """Click-pattern distribution given photon counts per detector."""
    dark = model.dark_count_prob
    patterns: dict[frozenset, float] = {frozenset(): 1.0}
    for det in all_ids:
        c = hits.get(det, 0)
        if c == 0 and dark == 0.0:
            continue
        p_click = 1.0 - (1.0 - model.eff(det)) ** c * (1.0 - dark)
        updated: dict[frozenset, float] = {}
        for pattern, weight in patterns.items():
            if p_click > 0.0:
                key = pattern | {det}
                updated[key] = updated.get(key, 0.0) + weight * p_click
            if p_click < 1.0:
                updated[pattern] = updated.get(pattern, 0.0) + weight * (1.0 - p_click)
        patterns = updated
    return patterns


def _resolving_response(
    hits: Mapping[str, int], model: DetectorModel
) -> dict[frozenset, float]:
    """Count-pattern distribution; keys are frozensets of (det, count) pairs."""
    if model.dark_count_prob != 0.0:
        raise ValueError("dark counts are only modeled for threshold detectors")
    patterns: dict[tuple, float] = {(): 1.0}
    for det, c in sorted(hits.items()):
        if c == 0:
            continue
        eff = model.eff(det)
        updated: dict[tuple, float] = {}
        for prefix, weight in patterns.items():
            for k in range(c + 1):
                p = math.comb(c, k) * eff**k * (1.0 - eff) ** (c - k)
                if p == 0.0:
                    continue
                key = prefix + ((det, k),) if k else prefix
                updated[key] = updated.get(key, 0.0) + weight * p
        patterns = updated
    return {frozenset(prefix): w for prefix, w in patterns.items()}


def click_distribution(
    state: FockState,
    trees: Sequence[SplitterTree],
    detectors: DetectorModel = DetectorModel(),
) -> dict[frozenset, float]:
    """Exact click-pattern distribution for the state's tree-covered modes.

    Threshold detectors give frozensets of clicked ids; number-resolving
    detectors give frozensets of (id, count) pairs.
    """
    _validate_trees(trees)
    covered = sorted(t.mode for t in trees)
    tree_by_mode = {t.mode: t for t in trees}
    all_ids = [d for m in covered for d in tree_by_mode[m].detector_ids()]
    occ_dist = marginal_distribution(state, covered)

    out: dict[frozenset, float] = {}
    for occ, p_occ in occ_dist.items():
        joint: list[tuple[dict[str, int], float]] = [({}, 1.0)]
        for mode, n in zip(covered, occ):
            tree = tree_by_mode[mode]
            ids = tree.detector_ids()
            probs = [p for _, p in tree.leaves] + [tree.loss]
            extended = []
            for counts, p_route in multinomial(n, probs).items():
                hits = dict(zip(ids, counts))  # zip drops the trailing loss slot
                for base, p_base in joint:
                    extended.append(({**base, **hits}, p_base * p_route))
            joint = extended
        for hits, p_route in joint:
            if detectors.number_resolving:
                response = _resolving_response(hits, detectors)
            else:
                response = _threshold_response(hits, all_ids, detectors)
            for pattern, p_click in response.items():
                out[pattern] = out.get(pattern, 0.0) + p_occ * p_route * p_click
    return out


def sample_click_patterns(
    state: FockState,
    trees: Sequence[SplitterTree],
    detectors: DetectorModel,
    seed: int,
    shots: int,
) -> dict[frozenset, int]:
    """Monte Carlo click-pattern counts; threshold detectors only."""
    if detectors.number_resolving:
        raise ValueError("sampling is implemented for threshold detectors only")
    _validate_trees(trees)
    covered = sorted(t.mode for t in trees)
    tree_by_mode = {t.mode: t for t in trees}
    occ_dist = marginal_distribution(state, covered)
    occs = sorted(occ_dist)
    probs = np.array([occ_dist[o] for o in occs])
    total = probs.sum()
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise ValueError("state must be normalized for sampling")

    rng = evolve.derived_rng(seed)
    draws = rng.choice(len(occs), size=shots, p=probs / total)
    counts_per_occ = np.bincount(draws, minlength=len(occs))

    results: dict[frozenset, int] = {}
    for occ_index, n_shots in enumerate(counts_per_occ):
        if n_shots == 0:
            continue
        occ = occs[occ_index]
        hit_ids: list[str] = []
        hit_counts: list[np.ndarray] = []
        for mode, n in zip(covered, occ):
            tree = tree_by_mode[mode]
            pvals = [p for _, p in tree.leaves] + [tree.loss]
            routed = rng.multinomial(n, pvals, size=int(n_shots))
            hit_ids.extend(tree.detector_ids())
            hit_counts.append(routed[:, :-1])
        hits = np.concatenate(hit_counts, axis=1) if hit_counts else np.zeros((int(n_shots), 0))
        effs = np.array([detectors.eff(d) for d in hit_ids])
        dark = detectors.dark_count_prob
        p_click = 1.0 - (1.0 - effs) ** hits * (1.0 - dark)
        clicked = rng.random(hits.shape) < p_click
        for row in clicked:
            pattern = frozenset(d for d, hit in zip(hit_ids, row) if hit)
            results[pattern] = results.get(pattern, 0) + 1
    return results


# -- rate normalization ------------------------------------------------------


def normalize_rates(
    raw_counts: Mapping[frozenset, float],
    singles: Mapping[str, float],
    trees: Sequence[SplitterTree] | None = None,
) -> dict[frozenset, float]:
    """Corrects pattern counts for relative detector efficiency and cascade
    resolution probability, then renormalizes to a distribution.

    Relative efficiencies are inferred from singles counts (epsilon_d =
    singles_d / max singles).  Detectors outside any tree contribute no
    resolution factor.
    """
    if not raw_counts:
        return {}
    flagged = sorted(d for d, c in singles.items() if c <= 0)
    if flagged:
        raise ValueError(f"zero singles count for detectors: {', '.join(flagged)}")
    peak = max(singles.values())
    leaf_prob: dict[str, float] = {}
    tree_of: dict[str, int] = {}
    if trees:
        _validate_trees(trees)
        for t in trees:
            for d, p in t.leaves:
                leaf_prob[d] = p
                tree_of[d] = t.mode

    weights: dict[frozenset, float] = {}
    for pattern, count in raw_counts.items():
        if count < 0:
            raise ValueError("negative pattern count")
        weight = float(count)
        per_tree: dict[int, list[str]] = {}
        for det in pattern:
            if det not in singles:
                raise ValueError(f"detector {det!r} missing from singles counts")
            weight /= singles[det] / peak
            if det in tree_of:
                per_tree.setdefault(tree_of[det], []).append(det)
        for dets in per_tree.values():
            resolution = math.factorial(len(dets))
            for det in dets:
                resolution *= leaf_prob[det]
            if resolution == 0.0:
                raise ValueError(f"pattern {sorted(pattern)} has zero resolution probability")
            weight /= resolution
        weights[pattern] = weight
    total = sum(weights.values())
    if total == 0.0:
        raise ValueError("all pattern counts are zero")
    return {pattern: w / total for pattern, w in weights.items()}


def occupancy_rates(
    rates: Mapping[frozenset, float], trees: Sequence[SplitterTree]
) -> dict[Occupation, float]:
    """Aggregates click-pattern rates into photon counts per tree mode.

    Pattern weights for the same occupancy are averaged over the number of
    detector combinations that could have produced it, then renormalized.
    """
    _validate_trees(trees)
    ordered = sorted(trees, key=lambda t: t.mode)
    tree_of = {d: idx for idx, t in enumerate(ordered) for d in t.detector_ids()}
    totals: dict[Occupation, float] = {}
    for pattern, rate in rates.items():
        counts = [0] * len(ordered)
        for det in pattern:
            if det in tree_of:
                counts[tree_of[det]] += 1
        key = tuple(counts)
        multiplicity = math.prod(
            math.comb(len(ordered[i].leaves), c) for i, c in enumerate(counts)
        )
        totals[key] = totals.get(key, 0.0) + rate / multiplicity
    norm = sum(totals.values())
    return {occ: v / norm for occ, v in totals.items()}


def fidelity(p: Mapping, q: Mapping) -> float:
    """Probability-theoretic fidelity sum_j sqrt(p_j q_j) over shared outcomes."""
    total_p = sum(p.values())
    total_q = sum(q.values())
    if abs(total_p - 1.0) > PROB_SUM_TOL or abs(total_q - 1.0) > PROB_SUM_TOL:
        raise ValueError(
            f"distributions must each sum to 1 (got {total_p:.10g} and {total_q:.10g})"
        )
    if any(v < 0 for v in p.values()) or any(v < 0 for v in q.values()):
        raise ValueError("probabilities must be non-negative")
    return float(sum(math.sqrt(p[k] * q[k]) for k in set(p) & set(q)))


def simulated_reference_distribution(
    eta1: float,
    eta2: float,
    input_state: FockState,
    pattern: herald.HeraldPattern,
    phi: float,
    eta34: float = 1.0 / 3.0,
) -> dict[Occupation, float]:
    """Heralded photon-count distribution for measured coupler values.

    eta1 and eta2 take their measured values; the herald couplers keep the
    ideal common value eta34 (the conditional state does not depend on it
    when both are equal).  Contamination makes the result phi dependent.
    """
    chip = ChipParams(eta1=eta1, eta2=eta2, eta3=eta34, eta4=eta34, phi=phi)
    result = herald.heralded_output(chip, input_state, pattern)
    if result.is_null:
        return {}
    state = result.conditional_state
    return marginal_distribution(state, range(state.mode_count))


# -- topology presets and serialization ---------------------------------------


def paper_6fold_topology() -> tuple[list[SplitterTree], DetectorModel]:
    """Herald detectors on modes 0 and 3; uniform 4-leaf cascades on 1 and 2.

    Four leaves per measured mode are required to register up to four
    photons, matching a three-splitter fan-out per mode.
    """
    quarter = 0.25
    trees = [
        SplitterTree(0, (("Di", 1.0),)),
        SplitterTree(1, tuple((f"J{i}", quarter) for i in range(1, 5))),
        SplitterTree(2, tuple((f"K{i}", quarter) for i in range(1, 5))),
        SplitterTree(3, (("Dl", 1.0),)),
    ]
    return trees, DetectorModel()


TOPOLOGY_PRESETS = {"paper-6fold": paper_6fold_topology}


def topology_to_json_dict(
    trees: Sequence[SplitterTree], detectors: DetectorModel
) -> dict:
    efficiency: dict[str, float]
    if isinstance(detectors.efficiency, Mapping):
        efficiency = {str(k): float(v) for k, v in detectors.efficiency.items()}
    else:
        efficiency = {d: float(detectors.efficiency) for t in trees for d in t.detector_ids()}
    return {
        "trees": [
            {"mode": t.mode, "leaves": [{"det": d, "p": p} for d, p in t.leaves]}
            for t in sorted(trees, key=lambda t: t.mode)
        ],
        "efficiency": efficiency,
    }


def topology_from_json_dict(data: dict) -> tuple[list[SplitterTree], DetectorModel]:
    trees = [
        SplitterTree(
            int(entry["mode"]),
            tuple((leaf["det"], float(leaf["p"])) for leaf in entry["leaves"]),
        )
        for entry in data["trees"]
    ]
    _validate_trees(trees)
    efficiency = {str(k): float(v) for k, v in data.get("efficiency", {}).items()}
    model = DetectorModel(efficiency=efficiency if efficiency else 1.0)
    return trees, model


def topology_from_json(text: str) -> tuple[list[SplitterTree], DetectorModel]:
    return topology_from_json_dict(json.loads(text))


# -- distribution CSV I/O ------------------------------------------------------


def format_outcome(outcome) -> str:
    """Stable comma-free text form for occupations, patterns, and ids."""
    if isinstance(outcome, frozenset):
        return ";".join(sorted(str(x) for x in outcome))
    if isinstance(outcome, tuple):
        return ";".join(str(x) for x in outcome)
    return str(outcome)


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """CSV with LF line ends; a field holding a comma or quote is quoted."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def write_distribution_csv(path, dist: Mapping) -> None:
    rows = sorted((format_outcome(k), v) for k, v in dist.items())
    with open(path, "w", newline="") as handle:
        handle.write(csv_text(("outcome", "probability"), [(k, repr(float(v))) for k, v in rows]))


def read_distribution_csv(path) -> dict[str, float]:
    """Reads columns outcome,probability; a short row or a probability that is
    not a finite number raises ValueError."""
    dist: dict[str, float] = {}
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or not {"outcome", "probability"} <= set(reader.fieldnames):
            raise ValueError(f"{path}: expected columns 'outcome,probability'")
        for row in reader:
            outcome, value = row["outcome"], row["probability"]
            if outcome is None or value is None:
                raise ValueError(f"{path}, line {reader.line_num}: expected outcome,probability")
            p = float(value)  # not a number: ValueError
            if not math.isfinite(p):
                raise ValueError(f"{path}, line {reader.line_num}: probability {value!r} is not finite")
            dist[outcome] = p
    return dist
