"""Photon-pair source model, distinguishability, higher-order contamination."""

import math

import numpy as np
import pytest

from noonchip.circuit import ChipParams, dc_matrix
from noonchip.herald import HeraldPattern
from noonchip.source import (
    SpdcParams,
    contamination_report,
    distinguishable_output_distribution,
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
    assert SpdcParams(xi=0.1, n_max=np.int64(5)).n_max == 5
    with pytest.raises(ValueError):
        SpdcParams(xi=0.1, overlap=1.5)


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


def test_distinguishable_routing_single_photon():
    u = dc_matrix(0.3)
    dist = distinguishable_output_distribution(u, (1, 0))
    assert dist[(1, 0)] == pytest.approx(0.3, abs=1e-12)
    assert dist[(0, 1)] == pytest.approx(0.7, abs=1e-12)


def test_distinguishable_routing_twin_pairs():
    # classical routing of 2+2 photons through a balanced coupler
    dist = distinguishable_output_distribution(dc_matrix(0.5), (2, 2))
    assert dist[(4, 0)] == pytest.approx(1 / 16, abs=1e-12)
    assert dist[(3, 1)] == pytest.approx(1 / 4, abs=1e-12)
    assert dist[(2, 2)] == pytest.approx(3 / 8, abs=1e-12)
    assert dist[(1, 3)] == pytest.approx(1 / 4, abs=1e-12)
    assert dist[(0, 4)] == pytest.approx(1 / 16, abs=1e-12)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def test_hom_dip_ideal_visibility():
    v = hom_dip(SpdcParams(xi=0.085, n_max=4, overlap=1.0))
    assert v == pytest.approx(1 / 3, abs=1e-10)
    assert 0.30 <= v <= 0.38  # measured band


def test_hom_dip_linear_in_overlap():
    assert hom_dip(SpdcParams(xi=0.085, n_max=4, overlap=0.0)) == pytest.approx(
        0.0, abs=1e-12
    )
    assert hom_dip(SpdcParams(xi=0.085, n_max=4, overlap=0.5)) == pytest.approx(
        1 / 6, abs=1e-10
    )
    assert hom_dip(SpdcParams(xi=0.085, n_max=4, overlap=0.25)) == pytest.approx(
        1 / 12, abs=1e-10
    )


def fig4_report():
    return contamination_report(
        ChipParams(phi=math.pi / 2),
        SpdcParams(xi=0.085, n_max=4),
        PATTERN,
        signal_photons=4,
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
    by_sector = rep.interpreted_by_sector((2, 2))
    assert set(by_sector) == {4}
    assert by_sector[4] == pytest.approx(3.283242e-12, rel=1e-5)
    # the target channel is dominated by the target sector
    main = rep.interpreted_by_sector((4, 0))
    assert main[3] > 10 * main[4]


def test_contamination_zero_squeezing():
    rep = contamination_report(
        ChipParams(phi=math.pi / 2),
        SpdcParams(xi=0.0, n_max=4),
        PATTERN,
        signal_photons=4,
    )
    assert rep.true_event_probability == 0.0
    assert rep.false_event_probability == 0.0
    assert rep.false_to_true_ratio == 0.0


def test_contamination_validation():
    with pytest.raises(ValueError):
        # herald 2 + signal 3 is odd; pairs always give even totals
        contamination_report(
            ChipParams(), SpdcParams(xi=0.1, n_max=4), PATTERN, signal_photons=3
        )
    with pytest.raises(ValueError):
        # target sector 3 exceeds the n_max=2 truncation
        contamination_report(
            ChipParams(), SpdcParams(xi=0.1, n_max=2), PATTERN, signal_photons=4
        )


def test_contamination_report_json():
    rep = fig4_report()
    d = rep.to_json_dict()
    assert d["target_sector"] == 3
    assert d["false_to_true_ratio"] == pytest.approx(rep.false_to_true_ratio)
    assert len(d["sectors"]) == len(rep.sectors)
    __import__("json").dumps(d)
