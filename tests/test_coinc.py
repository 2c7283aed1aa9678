"""Clock synchronization, coincidence grouping, trapezoid window profile."""

import math

import pytest

from noonchip.coinc import (
    CoincidenceConfig,
    PulseEvent,
    count_coincidences,
    empirical_window_profile,
    read_pulse_csv,
    synchronize,
    window_profile,
    write_coincidence_csv,
    write_pulse_csv,
)

CFG = CoincidenceConfig()  # 2.9 ns clock, 3-cycle window, 50 ns dead time


def test_config_defaults_and_window():
    assert CFG.t_clk == 2.9
    assert CFG.window_cycles == 3
    assert CFG.window_ns == pytest.approx(8.7, abs=1e-12)
    assert CFG.dead_time_ns == 50.0


def test_config_validation():
    with pytest.raises(ValueError):
        CoincidenceConfig(t_clk=0.0)
    with pytest.raises(ValueError):
        CoincidenceConfig(window_cycles=0)
    with pytest.raises(ValueError):
        CoincidenceConfig(dead_time_ns=-1.0)


def test_synchronize_ceils_to_tick():
    events = [PulseEvent("A", 0.0), PulseEvent("B", 4.0), PulseEvent("C", 5.8)]
    synced = synchronize(events, CFG)
    assert synced[0].t == pytest.approx(0.0, abs=1e-12)
    assert synced[1].t == pytest.approx(5.8, abs=1e-12)  # next tick after 4.0
    assert synced[2].t == pytest.approx(5.8, abs=1e-12)  # already on a tick


def test_synchronize_with_clock_phase():
    synced = synchronize([PulseEvent("A", 0.0)], CFG, clock_phase=0.5)
    assert synced[0].t == pytest.approx(0.5, abs=1e-12)
    synced = synchronize([PulseEvent("A", 0.6)], CFG, clock_phase=0.5)
    assert synced[0].t == pytest.approx(0.5 + 2.9, abs=1e-12)


def test_pair_within_window():
    counts = count_coincidences([PulseEvent("A", 0.0), PulseEvent("B", 4.0)], CFG)
    assert counts == {frozenset({"A", "B"}): 1}


def test_pair_beyond_window():
    counts = count_coincidences([PulseEvent("A", 0.0), PulseEvent("B", 9.0)], CFG)
    assert counts == {}


def test_borderline_delay_depends_on_clock_phase():
    # a 6 ns delay lands 3 ticks away at phase 0 but 2 ticks at phase 0.5
    events = [PulseEvent("A", 0.0), PulseEvent("B", 6.0)]
    assert count_coincidences(events, CFG, clock_phase=0.0) == {}
    assert count_coincidences(events, CFG, clock_phase=0.5) == {
        frozenset({"A", "B"}): 1
    }


def test_triple_grouped_once():
    events = [PulseEvent("C", 1000.0), PulseEvent("A", 1001.0), PulseEvent("B", 1002.0)]
    counts = count_coincidences(events, CFG)
    assert counts == {frozenset({"A", "B", "C"}): 1}


def test_greedy_grouping_no_double_count():
    # B joins the window opened by A; C starts its own group and stays single
    events = [PulseEvent("A", 0.0), PulseEvent("B", 5.5), PulseEvent("C", 11.0)]
    counts = count_coincidences(events, CFG)
    assert counts == {frozenset({"A", "B"}): 1}


def test_same_channel_never_coincides_alone():
    events = [PulseEvent("A", 0.0), PulseEvent("A", 60.0)]
    assert count_coincidences(events, CFG) == {}


def test_duplicate_channel_collapses_in_record():
    cfg = CoincidenceConfig(dead_time_ns=1.0)
    events = [PulseEvent("A", 0.0), PulseEvent("A", 3.0), PulseEvent("B", 4.0)]
    counts = count_coincidences(events, cfg)
    assert counts == {frozenset({"A", "B"}): 1}


def test_dead_time_drops_repeats():
    events = [
        PulseEvent("A", 0.0),
        PulseEvent("B", 0.5),
        PulseEvent("A", 49.0),  # dead: 49 < 50 after the first A
        PulseEvent("B", 49.5),
        PulseEvent("A", 100.0),
        PulseEvent("B", 100.5),
    ]
    counts = count_coincidences(events, CFG)
    assert counts == {frozenset({"A", "B"}): 2}


def test_unsorted_input_is_sorted_internally():
    events = [PulseEvent("B", 4.0), PulseEvent("A", 0.0)]
    assert count_coincidences(events, CFG) == {frozenset({"A", "B"}): 1}


def test_channel_cap_validation():
    cfg = CoincidenceConfig(n_channels=2)
    events = [PulseEvent("A", 0.0), PulseEvent("B", 1.0), PulseEvent("C", 2.0)]
    with pytest.raises(ValueError):
        count_coincidences(events, cfg)


def test_window_profile_trapezoid():
    assert window_profile(0.0, CFG) == pytest.approx(1.0, abs=1e-12)
    assert window_profile(5.8, CFG) == pytest.approx(1.0, abs=1e-12)
    assert window_profile(7.25, CFG) == pytest.approx(0.5, abs=1e-12)
    assert window_profile(8.7, CFG) == pytest.approx(0.0, abs=1e-12)
    assert window_profile(12.0, CFG) == 0.0


def test_window_profile_monotone():
    values = [window_profile(0.1 * i, CFG) for i in range(100)]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    # slope is -1/t_clk inside the roll-off
    d = 6.5
    lhs = window_profile(d, CFG) - window_profile(d + 0.29, CFG)
    assert lhs == pytest.approx(0.1, abs=1e-12)


def test_window_profile_single_cycle():
    cfg = CoincidenceConfig(window_cycles=1)
    # pulses must share a tick; profile falls linearly from 1 at d=0
    assert window_profile(0.0, cfg) == pytest.approx(1.0)
    assert window_profile(1.45, cfg) == pytest.approx(0.5, abs=1e-12)
    assert window_profile(2.9, cfg) == 0.0


def test_empirical_profile_matches_analytic():
    delays = [0.0, 4.0, 6.5, 7.8, 10.0]
    emp = empirical_window_profile(delays, CFG, trials=4000, seed=3)
    for d, e in zip(delays, emp):
        assert e == pytest.approx(window_profile(d, CFG), abs=0.05)


def test_jitter_reproducible():
    cfg = CoincidenceConfig(jitter_sigma_ns=0.8)
    events = [PulseEvent("A", 100.0 * i) for i in range(40)]
    events += [PulseEvent("B", 100.0 * i + 7.0) for i in range(40)]
    a = count_coincidences(events, cfg, rng_seed=5)
    b = count_coincidences(events, cfg, rng_seed=5)
    assert a == b
    # jitter smears a borderline delay, so some trials coincide
    total = sum(a.values())
    assert 0 < total < 40


def test_pulse_csv_round_trip(tmp_path):
    path = tmp_path / "pulses.csv"
    events = [PulseEvent("A", 0.0), PulseEvent("B", 4.25)]
    write_pulse_csv(path, events)
    back = read_pulse_csv(path)
    assert back == events


def test_coincidence_csv(tmp_path):
    path = tmp_path / "counts.csv"
    write_coincidence_csv(path, {frozenset({"B", "A"}): 3})
    assert path.read_bytes() == b"channels,count\nA;B,3\n"
