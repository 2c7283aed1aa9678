"""Every scalar door, where one count or number enters the library, goes
through fock.count or fock.number and names the field it checks."""

import math

import numpy as np
import pytest

from noonchip.analysis import precision_bounds
from noonchip.circuit import ChipParams, Interferometer, PhaseShifter
from noonchip.coinc import (MAX_TICK, CoincidenceConfig, count_coincidences,
                            empirical_window_profile, window_profile)
from noonchip.detect import DetectorModel, SplitterTree, paper_6fold_topology
from noonchip.evolve import MAX_PHOTONS, derived_rng, sample_output_counts
from noonchip.fock import MAX_COUNT, FockState, basis_occupations, make_noon
from noonchip.herald import HeraldPattern
from noonchip.source import SpdcParams, contamination_report

#: (field, door, upper bound or None for MAX_COUNT, whether None is a legal value)
COUNT_DOORS = [
    ("mode_count", lambda v: FockState(v, {}), None, False),
    ("n_photons", lambda v: basis_occupations(v, 2), None, False),
    ("n_modes", lambda v: basis_occupations(1, v), None, False),
    ("n", lambda v: make_noon(v, 0), None, False),
    ("m", lambda v: make_noon(2, v), 2, False),
    ("interferometer mode_count", lambda v: Interferometer(v, ()), None, False),
    ("splitter tree mode", lambda v: SplitterTree(v, (("A", 0.5),)), None, False),
    ("seed", derived_rng, None, False),
    ("shots", lambda v: sample_output_counts(np.eye(2), (1, 0), 0, v), None, False),
    ("window_cycles", lambda v: CoincidenceConfig(window_cycles=v), MAX_TICK, False),
    ("n_channels", lambda v: CoincidenceConfig(n_channels=v), None, True),
    ("seed", lambda v: count_coincidences([], rng_seed=v), None, True),
    ("trials", lambda v: empirical_window_profile([0.0], trials=v), None, False),
    ("n_max", lambda v: SpdcParams(n_max=v), MAX_PHOTONS // 2, False),
    ("signal_photons", lambda v: contamination_report(
        ChipParams(), SpdcParams(), HeraldPattern({0: 1}), v, (), DetectorModel()), None, False),
    ("n_photons", precision_bounds, None, False),
]

NUMBER_DOORS = [
    ("phase shifter phi", lambda v: PhaseShifter(v, 0)),
    ("alpha", lambda v: make_noon(2, 0, v)),
    ("t_clk", lambda v: CoincidenceConfig(t_clk=v)),
    ("dead_time_ns", lambda v: CoincidenceConfig(dead_time_ns=v)),
    ("jitter_sigma_ns", lambda v: CoincidenceConfig(jitter_sigma_ns=v)),
    ("clock phase", lambda v: count_coincidences([], clock_phase=v)),
    ("delay", window_profile),
]


@pytest.mark.parametrize("field, door, hi, takes_none", COUNT_DOORS)
def test_count_doors_name_the_field_and_the_value(field, door, hi, takes_none):
    past = MAX_COUNT + 1 if hi is None else hi + 1
    for bad in (2.0, True, -1, "2", past) + (() if takes_none else (None,)):
        with pytest.raises(ValueError) as info:
            door(bad)
        message = str(info.value)
        assert message.startswith(f"{field} must be an integer "), message
        assert message.endswith(f", got {bad!r}"), message
        assert str(MAX_COUNT) not in message


@pytest.mark.parametrize("field, door", NUMBER_DOORS)
def test_number_doors_name_the_field_and_the_value(field, door):
    for bad in (math.nan, -math.inf, "0.5", True):
        with pytest.raises(ValueError) as info:
            door(bad)
        assert str(info.value) == f"{field} must be a finite number, got {bad!r}"


def test_doors_keep_numpy_counts_as_ints():
    assert type(FockState(np.int64(2), {}).mode_count) is int
    assert all(type(n) is int for occ in basis_occupations(np.int64(2), np.int32(2)) for n in occ)
    assert make_noon(np.int64(2), np.int64(0)).items() == make_noon(2, 0).items()
    assert type(Interferometer(np.int64(2), ()).mode_count) is int
    assert type(SplitterTree(np.int64(1), (("A", 0.5),)).mode) is int
    assert derived_rng(np.int64(3)).integers(1 << 30) == derived_rng(3).integers(1 << 30)
    occs, counts = sample_output_counts(np.eye(2), (1, 0), np.int64(0), np.int32(5))
    assert occs == [(1, 0)] and counts.tolist() == [5]
    config = CoincidenceConfig(window_cycles=np.int64(2), n_channels=np.uint8(4))
    assert type(config.window_cycles) is int and type(config.n_channels) is int
    assert count_coincidences([], rng_seed=np.int64(1)) == {}
    assert len(empirical_window_profile([0.0], trials=np.int16(10))) == 1
    params = SpdcParams(n_max=np.int64(3))
    assert type(params.n_max) is int
    report = contamination_report(ChipParams(phi=math.pi / 2), params, HeraldPattern({0: 1, 3: 1}),
                                  np.int64(4), *paper_6fold_topology())
    assert type(report.signal_photons) is int
    assert precision_bounds(np.int64(4)) == (0.5, 0.25)


def test_doors_keep_numpy_numbers_as_given():
    phi = np.float32(0.5)
    assert PhaseShifter(phi, 0).phi is phi
    assert make_noon(2, 0, np.float32(0.0)).allclose(make_noon(2, 0))
    settings = dict(t_clk=np.float32(2.5), dead_time_ns=np.float32(10.0), jitter_sigma_ns=np.float32(0.1))
    config = CoincidenceConfig(**settings)
    assert all(getattr(config, name) is value for name, value in settings.items())
    assert count_coincidences([], clock_phase=np.float32(0.5)) == {}
    assert window_profile(np.float32(1.0)) == 1.0
