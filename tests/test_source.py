"""Photon-pair source model, distinguishability, higher-order contamination."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noonchip import detect
from noonchip.circuit import ChipParams, dc_matrix
from noonchip.detect import DetectorModel, SplitterTree, click_distribution, paper_6fold_topology
from noonchip.evolve import apply
from noonchip.fock import FockState, basis_occupations, marginal_distribution, multinomial
from noonchip.herald import HeraldPattern
from noonchip.source import (
    SpdcParams,
    contamination_report,
    hom_dip,
    sector_chip_input,
    sector_weights,
    spdc_chip_input,
)

PATTERN = HeraldPattern({0: 1, 3: 1})


def test_spdc_params_validation():
    with pytest.raises(ValueError):
        SpdcParams(xi=1.0)
    with pytest.raises(ValueError):
        SpdcParams(xi=-0.1)
    with pytest.raises(ValueError):
        SpdcParams(xi=0.1, n_max=-1)
    # the sector cutoff is a count, and a sector above MAX_PHOTONS cannot be evolved
    for n_max in (math.nan, 3.5, True, 6):
        with pytest.raises(ValueError):
            SpdcParams(xi=0.1, n_max=n_max)
    n_max = SpdcParams(xi=0.1, n_max=np.int64(5)).n_max
    assert n_max == 5 and type(n_max) is int
    # xi "0.1" failed with a TypeError; the overlap, which no source state
    # reads, is hom_dip's argument
    with pytest.raises(TypeError):
        SpdcParams(xi=0.1, overlap=1.0)
    for bad in ("0.1", True, math.nan):
        with pytest.raises(ValueError, match="xi must lie in"):
            SpdcParams(xi=bad)


def test_sector_weights():
    params = SpdcParams(xi=0.085, n_max=4)
    w = sector_weights(params)
    assert set(w) == {0, 1, 2, 3, 4}
    assert sum(w.values()) == pytest.approx(1.0, abs=1e-12)
    assert w[1] / w[0] == pytest.approx(0.085**2, abs=1e-12)
    assert w[0] == pytest.approx(0.992775, abs=1e-6)


def test_sector_chip_input_layout():
    assert sector_chip_input(2).items() == [((0, 2, 2, 0), 1.0 + 0j)]
    full = spdc_chip_input(SpdcParams(xi=0.1, n_max=2))
    assert full.mode_count == 4
    assert full.amplitude((0, 0, 0, 0)) != 0j
    assert full.amplitude((0, 2, 2, 0)) != 0j
    assert full.amplitude((1, 1, 0, 0)) == 0j


def test_distinguishable_routing_twin_pairs():
    # classical routing of 2+2 photons through a balanced coupler: each photon
    # leaves by either port with its |U|^2 probability, independent of the rest
    ports = np.abs(dc_matrix(0.5)[:, 0]) ** 2
    dist = multinomial(4, tuple(ports))
    assert dist[(4, 0)] == pytest.approx(1 / 16, abs=1e-12)
    assert dist[(3, 1)] == pytest.approx(1 / 4, abs=1e-12)
    assert dist[(2, 2)] == pytest.approx(3 / 8, abs=1e-12)
    assert dist[(1, 3)] == pytest.approx(1 / 4, abs=1e-12)
    assert dist[(0, 4)] == pytest.approx(1 / 16, abs=1e-12)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def test_hom_dip_ideal_visibility():
    v = hom_dip(1.0)
    assert v == pytest.approx(1 / 3, abs=1e-10)
    assert 0.30 <= v <= 0.38  # measured band


def test_hom_dip_linear_in_overlap():
    assert hom_dip(0.0) == pytest.approx(0.0, abs=1e-12)
    assert hom_dip(0.5) == pytest.approx(1 / 6, abs=1e-10)
    assert hom_dip(0.25) == pytest.approx(1 / 12, abs=1e-10)
    # an overlap of True was taken as 1
    for bad in (1.5, True, "0.5", math.nan):
        with pytest.raises(ValueError, match="overlap must lie in"):
            hom_dip(bad)


def fig4_report():
    return contamination_report(
        ChipParams(phi=math.pi / 2),
        SpdcParams(xi=0.085, n_max=4),
        PATTERN,
        4,
        *paper_6fold_topology(),
    )


def test_contamination_target_sector_signature():
    rep = fig4_report()
    assert rep.target_sector == 3
    assert rep.herald_photons == 2
    assert rep.signal_photons == 4
    sec3 = next(s for s in rep.sectors if s.n_pairs == 3)
    assert sec3.herald_probability == pytest.approx(4 / 243, abs=1e-12)
    # herald fires and all four signal photons resolve on distinct leaves
    assert sec3.signature_probability == pytest.approx(4 / 243 * 3 / 32, abs=1e-12)
    assert not sec3.mislabeled
    assert sec3.interpreted_rates[(4, 0)] == pytest.approx(
        4 / 243 * 3 / 32 / 2, abs=1e-12
    )
    assert sec3.interpreted_rates[(0, 4)] == pytest.approx(
        4 / 243 * 3 / 32 / 2, abs=1e-12
    )


def test_contamination_true_event_probability():
    rep = fig4_report()
    w = sector_weights(SpdcParams(xi=0.085, n_max=4))
    assert rep.true_event_probability == pytest.approx(
        w[3] * 4 / 243 * 3 / 32, rel=1e-12
    )


def test_contamination_next_sector_is_mislabeled():
    rep = fig4_report()
    sec4 = next(s for s in rep.sectors if s.n_pairs == 4)
    assert sec4.mislabeled
    # five-photon signal states masquerade as every four-click channel,
    # including the (2, 2) channel the target sector never populates
    assert sec4.interpreted_rates[(2, 2)] == pytest.approx(1.21367027e-3, rel=1e-6)
    assert sec4.signature_probability == pytest.approx(1.43903428e-2, rel=1e-6)


def test_contamination_ratio():
    rep = fig4_report()
    assert rep.false_event_probability == pytest.approx(3.8929012e-11, rel=1e-6)
    assert rep.false_to_true_ratio == pytest.approx(0.0673727069, rel=1e-6)


def test_contaminated_channel_is_pure_higher_order():
    rep = fig4_report()

    def by_sector(occ):
        return {s.n_pairs: s.weight * s.interpreted_rates[occ]
                for s in rep.sectors if occ in s.interpreted_rates}

    contaminated = by_sector((2, 2))
    assert set(contaminated) == {4}
    assert contaminated[4] == pytest.approx(3.283242e-12, rel=1e-5)
    # the target channel is dominated by the target sector
    main = by_sector((4, 0))
    assert main[3] > 10 * main[4]


def test_contamination_zero_squeezing():
    rep = contamination_report(
        ChipParams(phi=math.pi / 2),
        SpdcParams(xi=0.0, n_max=4),
        PATTERN,
        4,
        *paper_6fold_topology(),
    )
    assert rep.true_event_probability == 0.0
    assert rep.false_event_probability == 0.0
    assert rep.false_to_true_ratio == 0.0


def test_contamination_validation():
    with pytest.raises(ValueError):
        # herald 2 + signal 3 is odd; pairs always give even totals
        contamination_report(
            ChipParams(), SpdcParams(xi=0.1, n_max=4), PATTERN, 3, *paper_6fold_topology()
        )
    with pytest.raises(ValueError):
        # target sector 3 exceeds the n_max=2 truncation
        contamination_report(
            ChipParams(), SpdcParams(xi=0.1, n_max=2), PATTERN, 4, *paper_6fold_topology()
        )
    # -2 gave target sector 0 and zero event probabilities; 2.0 gave the
    # float target sector 2.0, written to JSON as 2.0
    for bad in (-2, 2.0, True):
        with pytest.raises(ValueError, match="signal_photons must be an integer"):
            contamination_report(
                ChipParams(), SpdcParams(xi=0.1, n_max=4), PATTERN, bad, *paper_6fold_topology()
            )


def test_contamination_report_json():
    rep = fig4_report()
    d = rep.to_json_dict()
    assert d["target_sector"] == 3
    assert d["false_to_true_ratio"] == pytest.approx(rep.false_to_true_ratio)
    assert len(d["sectors"]) == len(rep.sectors)
    __import__("json").dumps(d)


def test_contamination_report_builds_one_stack_per_tree(monkeypatch):
    # each tree's stack is built once, at the largest count any sector puts
    # on its mode; building one per sector took 12 stacks here
    built = []
    tree_stack = detect._tree_stack

    def counting(tree, detectors, n_top):
        built.append((tree.mode, n_top))
        return tree_stack(tree, detectors, n_top)

    monkeypatch.setattr(detect, "_tree_stack", counting)
    chip, params = ChipParams(), SpdcParams(n_max=2)
    contamination_report(chip, params, PATTERN, 2, paper_6fold_topology()[0], DetectorModel(0.7, 1e-3))
    counts = [occ for n in range(params.n_max + 1)
              for occ in marginal_distribution(apply(chip.matrix(), sector_chip_input(n)), range(4))]
    assert built == [(m, max(occ[m] for occ in counts)) for m in range(4)]


def test_report_of_the_target_sector_alone_has_float_zero_false_events():
    rep = contamination_report(
        ChipParams(), SpdcParams(n_max=0), HeraldPattern({0: 0, 3: 0}), 0, *paper_6fold_topology()
    )
    assert [s.n_pairs for s in rep.sectors] == [rep.target_sector] == [0]
    assert rep.true_event_probability == 1.0
    false = rep.to_json_dict()["false_event_probability"]
    assert false == 0.0 and type(false) is float  # an int 0 would be written as 0


def reference_branches(state, modes, total_photons):
    """The per-composition loop that fock.split replaced: for each herald
    composition up to total_photons, keep the matching terms and normalise."""
    kept = [m for m in range(state.mode_count) if m not in modes]
    branches = {}
    for herald_total in range(total_photons + 1):
        for counts in basis_occupations(herald_total, len(modes)):
            amps = {
                tuple(occ[m] for m in kept): a
                for occ, a in state.amplitudes.items()
                if all(occ[m] == c for m, c in zip(modes, counts))
            }
            if amps:
                raw = FockState(len(kept), amps)
                norm = math.sqrt(raw.norm_squared())
                normalised = FockState(len(kept), {occ: a / norm for occ, a in raw.amplitudes.items()})
                branches[counts] = (raw.norm_squared(), normalised)
    return branches


@pytest.mark.parametrize("phi", [0.0, 0.4, math.pi / 2])
def test_herald_branches_match_the_per_composition_loop(phi):
    chip = ChipParams(phi=phi)
    rep = contamination_report(chip, SpdcParams(xi=0.085, n_max=4), PATTERN, 4, *paper_6fold_topology())
    for sector in rep.sectors[1:]:
        n = sector.n_pairs
        evolved = apply(chip.matrix(), sector_chip_input(n))
        reference = reference_branches(evolved, PATTERN.modes(), 2 * n)
        assert set(sector.herald_branches) == set(reference)
        for counts, (probability, state) in reference.items():
            got_probability, got_state = sector.herald_branches[counts]
            assert got_probability == probability
            assert got_state.allclose(state, tol=1e-15)
        wanted = reference.get((1, 1), (0.0, None))[0]
        assert sector.herald_probability == wanted


def reference_interpreted(clicks, trees, pattern, signal_photons):
    """The frozenset-intersection loop that the popcount masks replaced: each
    click pattern of click_distribution tested against the herald counts and
    the total signal count, summed per tuple of signal-tree click counts."""
    tree_by_mode = {t.mode: t for t in trees}
    herald_ids = {m: set(tree_by_mode[m].detector_ids()) for m in pattern.modes()}
    signal_modes = sorted(m for m in tree_by_mode if m not in pattern.requirements)
    signal_ids = {m: set(tree_by_mode[m].detector_ids()) for m in signal_modes}
    interpreted = {}
    for click_pattern, p in clicks.items():
        if not all(len(click_pattern & herald_ids[m]) == c for m, c in pattern.requirements.items()):
            continue
        counts = tuple(len(click_pattern & signal_ids[m]) for m in signal_modes)
        if sum(counts) != signal_photons:
            continue
        interpreted[counts] = interpreted.get(counts, 0.0) + p
    return interpreted


def lossy_tree(draw, mode):
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
    scale = draw(st.floats(0.5, 1.0)) / max(1.0, sum(weights))
    return SplitterTree(mode, tuple((f"M{mode}D{i}", w * scale) for i, w in enumerate(weights)))


@st.composite
def contamination_cases(draw):
    """Herald trees of 1-3 leaves with counts up to 2, so a count may exceed
    its tree's leaves; signal trees on none, some or all of the other modes."""
    herald_modes = draw(st.lists(st.integers(0, 3), min_size=1, max_size=2, unique=True))
    pattern = HeraldPattern({m: draw(st.integers(0, 2)) for m in herald_modes})
    modes = herald_modes + [m for m in range(4) if m not in herald_modes and draw(st.booleans())]
    trees = [lossy_tree(draw, m) for m in modes]
    if draw(st.booleans()):
        efficiency = draw(st.floats(0.0, 1.0))
    else:  # per id; an id left out counts as efficiency 1
        efficiency = {d: draw(st.floats(0.0, 1.0)) for t in trees for d in t.detector_ids()
                      if draw(st.booleans())}
    dark = draw(st.just(0.0) | st.floats(1e-5, 1e-2))
    target = draw(st.integers((pattern.photon_count() + 1) // 2, 3))
    params = SpdcParams(xi=draw(st.floats(0.01, 0.5)), n_max=draw(st.integers(target, 3)))
    chip = ChipParams(phi=draw(st.floats(0.0, math.pi)))
    signal = 2 * target - pattern.photon_count()
    return chip, params, pattern, signal, trees, DetectorModel(efficiency, dark)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(contamination_cases())
@example((  # no signal tree: the signature is the herald alone
    ChipParams(phi=0.4), SpdcParams(xi=0.2, n_max=2), PATTERN, 0,
    [SplitterTree(0, (("Di", 0.9),)), SplitterTree(3, (("Dl", 1.0),))], DetectorModel(0.8, 1e-3),
))
@example((  # a herald count of 2 on a 1-leaf tree never shows
    ChipParams(phi=1.0), SpdcParams(xi=0.2, n_max=2), HeraldPattern({0: 2}), 2,
    [SplitterTree(0, (("Di", 1.0),)), SplitterTree(1, (("J1", 0.5), ("J2", 0.5)))], DetectorModel(),
))
def test_popcount_signature_matches_the_frozenset_loop(case):
    chip, params, pattern, signal, trees, detectors = case
    rep = contamination_report(chip, params, pattern, signal, trees, detectors)
    true_prob, false_prob = 0.0, 0.0
    for sector in rep.sectors:
        evolved = apply(chip.matrix(), sector_chip_input(sector.n_pairs))
        clicks = click_distribution(evolved, trees, detectors)
        want = reference_interpreted(clicks, trees, pattern, signal)
        assert list(sector.interpreted_rates.items()) == list(want.items())  # keys in order
        assert sector.signature_probability == sum(want.values())
        if sector.n_pairs == rep.target_sector:
            true_prob = sector.weight * sum(want.values())
        else:
            false_prob += sector.weight * sum(want.values())
    assert rep.true_event_probability == true_prob
    assert rep.false_event_probability == false_prob
