"""Splitter cascades, threshold detectors, and click-pattern statistics.

Photon-count measurement is emulated by fanning each measured mode out over
a tree of splitters onto single-photon (threshold) detectors.  Each photon
lands on leaf d independently with probability p_d (the deficit from 1 is
loss), so at fixed photon counts per mode the trees route and click
independently.  click_array therefore builds, per tree and call, one stack of
click tables for 0..n_top photons by a per-photon recursion: a photon is
detected on leaf l with probability p_l eff_l, switching that leaf's bit on,
or missed with probability loss + sum p_l (1 - eff_l); dark counts then switch
each leaf on independently.  Every term is non-negative, so nothing cancels.
Each state's photon counts on the covered modes, as a dense tensor, are
contracted with each tree's stack in mode order into one array with an axis of
2^L clicked-leaf bitmasks per tree, whose popcounts are the tree's click
counts; click_distribution keys it by clicked-id frozensets.
Tree modes go through fock.nonnegative_ints, and leaf probabilities,
efficiencies and dark counts through fock.probability.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .fock import FockState, check_keys, marginal_distribution, nonnegative_ints, probability

PROB_SUM_TOL = 1e-9


@dataclass(frozen=True)
class SplitterTree:
    """Fan-out of one mode onto named detector leaves with routing probabilities."""

    mode: int
    leaves: tuple[tuple[str, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "mode", nonnegative_ints((self.mode,))[0])
        leaves = tuple((d, probability(f"leaf probability for {d}", p)) for d, p in self.leaves)
        object.__setattr__(self, "leaves", leaves)
        ids = [d for d, _ in self.leaves]
        if not all(isinstance(d, str) for d in ids):
            raise ValueError(f"detector ids must be strings, got {ids!r}")
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate detector ids in tree on mode {self.mode}")
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
    """Threshold (SPCM) detector response, shared by all leaves unless the
    efficiency is given per id.

    A detector with c incident photons clicks with probability
    1 - (1 - efficiency)^c; dark_count_prob adds an independent click chance
    per detector per shot.
    """

    efficiency: float | Mapping[str, float] = 1.0
    dark_count_prob: float = 0.0

    def __post_init__(self):
        efficiency = self.efficiency
        if isinstance(efficiency, Mapping):
            efficiency = {d: probability(f"efficiency for {d!r}", v) for d, v in efficiency.items()}
        else:
            efficiency = probability("efficiency", efficiency)
        object.__setattr__(self, "efficiency", efficiency)
        object.__setattr__(self, "dark_count_prob", probability("dark_count_prob", self.dark_count_prob))

    def eff(self, det: str) -> float:
        if isinstance(self.efficiency, Mapping):
            return self.efficiency.get(det, 1.0)
        return self.efficiency


def _validate_trees(trees: Sequence[SplitterTree]) -> None:
    modes = [t.mode for t in trees]
    if len(set(modes)) != len(modes):
        raise ValueError("each mode may carry at most one splitter tree")
    ids = [d for t in trees for d in t.detector_ids()]
    if len(set(ids)) != len(ids):
        raise ValueError("detector ids must be unique across trees")


def cascade_resolve_probability(tree: SplitterTree, targets: Sequence[str]) -> float:
    """Probability that len(targets) photons land one each on the given
    distinct leaves: len(targets)! times the product of their probabilities."""
    if len(set(targets)) != len(targets):
        raise ValueError("target detectors must be distinct")
    probs = (tree.leaf_probability(det) for det in targets)
    return math.factorial(len(targets)) * math.prod(probs, start=1.0)


def _tree_stack(tree: SplitterTree, detectors: DetectorModel, n_top: int) -> np.ndarray:
    """Click tables of one tree for 0..n_top photons as an (n_top + 1, 2^L)
    array: entry [n, b] is the probability that exactly the leaves in bitmask b
    click when the tree's mode holds n photons, the first leaf the highest bit.

    Each photon lands on leaf l and is detected with probability q_l = p_l eff_l,
    or is missed (lost, or landed and not detected), so row n is row n - 1 with
    the miss weight plus, for each leaf, q_l times row n - 1 with that leaf's
    bit switched on.  Dark counts then switch each leaf on independently."""
    probs = [p for _, p in tree.leaves]
    effs = [detectors.eff(d) for d in tree.detector_ids()]
    dark = detectors.dark_count_prob
    miss = tree.loss + sum(p * (1.0 - eff) for p, eff in zip(probs, effs))
    stack = np.zeros((n_top + 1, 1 << len(probs)))
    stack[0, 0] = 1.0
    views = [stack.reshape(n_top + 1, 1 << leaf, 2, -1) for leaf in range(len(probs))]  # axis 2: leaf's bit
    for n in range(1, n_top + 1):
        stack[n] = miss * stack[n - 1]
        for view, p, eff in zip(views, probs, effs):
            view[n, :, 1] += p * eff * (view[n - 1, :, 0] + view[n - 1, :, 1])
    for view in views:
        view[:, :, 1] += dark * view[:, :, 0]
        view[:, :, 0] *= 1.0 - dark
    return stack


def click_array(
    states: Sequence[FockState],
    trees: Sequence[SplitterTree],
    detectors: DetectorModel = DetectorModel(),
) -> tuple[list[SplitterTree], np.ndarray]:
    """(trees in mode order, click probabilities) of the states' tree-covered
    modes: per state, on a leading axis, one dense array with an axis of 2^L
    entries per tree, indexed by the bitmask of the tree's clicked leaves, the
    first leaf the highest bit: all 2^D patterns of the D detectors.

    Each tree's table stack (_tree_stack) is built once, up to the largest
    count any state puts on its mode; its rows do not depend on its height.
    A state's photon counts, a dense tensor with n_top + 1 entries on a
    tree's axis (n_top the state's largest count there), contract with the
    stacks' first n_top + 1 rows in mode order; each appends a click axis."""
    _validate_trees(trees)
    ordered = sorted(trees, key=lambda t: t.mode)
    if sum(len(t.leaves) for t in ordered) > 20:
        raise ValueError("click statistics take at most 20 detectors (2^20 click patterns)")
    marginals = [marginal_distribution(state, [t.mode for t in ordered]) for state in states]
    tops = [[max(counts) for counts in zip(*m)] or [0] * len(ordered) for m in marginals]
    stacks = [_tree_stack(tree, detectors, max(ns, default=0)) for tree, *ns in zip(ordered, *tops)]
    out = np.empty((len(marginals), *(1 << len(t.leaves) for t in ordered)))
    for i, (marginal, state_tops) in enumerate(zip(marginals, tops)):
        total = np.zeros([n + 1 for n in state_tops])
        for occ, p_occ in marginal.items():
            total[occ] = p_occ
        for stack, n_top in zip(stacks, state_tops):
            total = np.tensordot(total, stack[: n_top + 1], axes=([0], [0]))
        out[i] = total
    return ordered, out


def click_distribution(
    state: FockState,
    trees: Sequence[SplitterTree],
    detectors: DetectorModel = DetectorModel(),
) -> dict[frozenset, float]:
    """click_array keyed by the frozenset of clicked detector ids, in the
    array's C order; patterns of probability zero are left out."""
    ordered, (total,) = click_array([state], trees, detectors)
    leaf_keys = [[frozenset(itertools.compress(t.detector_ids(), bits))
                  for bits in itertools.product((0, 1), repeat=len(t.leaves))] for t in ordered]
    return {frozenset().union(*parts): p
            for parts, p in zip(itertools.product(*leaf_keys), total.ravel().tolist()) if p > 0.0}


def fidelity(p: Mapping, q: Mapping) -> float:
    """Probability-theoretic fidelity sum_j sqrt(p_j q_j) over shared outcomes."""
    total_p = sum(p.values())
    total_q = sum(q.values())
    if abs(total_p - 1.0) > PROB_SUM_TOL or abs(total_q - 1.0) > PROB_SUM_TOL:
        raise ValueError(
            f"distributions must each sum to 1 (got {total_p:.10g} and {total_q:.10g})"
        )
    for v in (*p.values(), *q.values()):
        probability("probabilities", v)
    return float(sum(math.sqrt(p[k] * q[k]) for k in set(p) & set(q)))


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



def topology_to_json_dict(
    trees: Sequence[SplitterTree], detectors: DetectorModel
) -> dict:
    """The detection block's JSON form, which has no key for dark counts."""
    if detectors.dark_count_prob != 0.0:
        raise ValueError(f"topology JSON holds no dark counts, got {detectors.dark_count_prob!r}")
    ordered = sorted(trees, key=lambda t: t.mode)
    return {
        "trees": [
            {"mode": t.mode, "leaves": [{"det": d, "p": p} for d, p in t.leaves]} for t in ordered
        ],
        "efficiency": {d: detectors.eff(d) for t in ordered for d in t.detector_ids()},
    }


def topology_from_json_dict(data: dict) -> tuple[list[SplitterTree], DetectorModel]:
    """Reads the topology_to_json_dict form; a key outside it, or an efficiency
    for an id that is no leaf, raises ValueError."""
    check_keys(data, "detection", ("trees", "efficiency"))
    trees = []
    for entry in data["trees"]:
        check_keys(entry, "splitter tree", ("mode", "leaves"))
        leaves = []
        for leaf in entry["leaves"]:
            check_keys(leaf, "leaf", ("det", "p"))
            leaves.append((leaf["det"], leaf["p"]))
        trees.append(SplitterTree(entry["mode"], tuple(leaves)))
    _validate_trees(trees)
    efficiency = data.get("efficiency", {})
    check_keys(efficiency, "efficiency", tuple(d for t in trees for d in t.detector_ids()))
    return trees, DetectorModel(efficiency=efficiency or 1.0)


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


def outcome_map(dist: Mapping) -> dict:
    """{format_outcome(k): v}: the JSON form of a distribution or of any map
    keyed by outcomes."""
    return {format_outcome(k): v for k, v in dist.items()}


def distribution_csv_text(dist: Mapping) -> str:
    """Columns outcome,probability, one row per outcome in text order."""
    rows = sorted(outcome_map(dist).items())
    return csv_text(("outcome", "probability"), [(k, repr(float(v))) for k, v in rows])


def read_distribution_csv(path) -> dict[str, float]:
    """Reads columns outcome,probability; a short row, a repeated outcome, a
    probability that is not a finite number or a CSV error raises ValueError
    naming the file and line."""
    dist: dict[str, float] = {}
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        try:
            if reader.fieldnames is None or not {"outcome", "probability"} <= set(reader.fieldnames):
                raise ValueError("expected columns 'outcome,probability'")
            for row in reader:
                outcome, value = row["outcome"], row["probability"]
                if outcome is None or value is None:
                    raise ValueError("expected outcome,probability")
                p = float(value)  # not a number: ValueError
                if not math.isfinite(p):
                    raise ValueError(f"probability {value!r} is not finite")
                if outcome in dist:
                    raise ValueError(f"outcome {outcome!r} is repeated")
                dist[outcome] = p
        except (csv.Error, ValueError) as exc:  # csv.Error: e.g. a field over csv's size limit
            raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
    return dist
