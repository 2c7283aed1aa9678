"""Clock ticks, coincidence grouping, trapezoid window profile."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noonchip import coinc, evolve
from noonchip.coinc import (
    CoincidenceConfig,
    PulseEvent,
    Pulses,
    count_coincidences,
    empirical_window_profile,
    read_pulse_csv,
    window_profile,
    write_pulse_csv,
)
from noonchip.detect import csv_text, outcome_map

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
    for bad in (2.5, True, 0, "3"):
        with pytest.raises(ValueError, match="window_cycles"):
            CoincidenceConfig(window_cycles=bad)
    for bad in ("2", 0, True, 1.5):
        with pytest.raises(ValueError, match="n_channels"):
            CoincidenceConfig(n_channels=bad)
    # window_cycles * t_clk was stored as inf, and the profile read 1.0 past the
    # window's end; an int t_clk raised OverflowError in the profile
    for t_clk in (1e308, 10**308):
        with pytest.raises(ValueError, match=r"window_cycles \* t_clk = 2 \* 1"):
            CoincidenceConfig(t_clk=t_clk, window_cycles=2)
    # the largest window a float holds keeps its trapezoid
    assert window_profile(1.25e308, CoincidenceConfig(t_clk=5e307)) == 0.5
    # a numpy int t_clk multiplied in int64: 4 * 2**62 wrapped to a window of 0 ns
    # (with a RuntimeWarning), and the profile read 0.0 inside the window
    config = CoincidenceConfig(t_clk=np.int64(2**62), window_cycles=4)
    assert type(config.t_clk) is int and config.window_ns == 2**64
    assert window_profile(1.0, config) == 1.0
    assert window_profile(2.0**64 - 2.0**61, config) == 0.5
    assert CoincidenceConfig(t_clk=np.uint8(3)).window_ns == 9
    # a numpy count is stored as the Python int the count rule returns
    config = CoincidenceConfig(window_cycles=np.int64(2), n_channels=np.int64(4))
    assert config.window_ns == pytest.approx(5.8)
    assert type(config.window_cycles) is int and type(config.n_channels) is int


def ticks(times, clock_phase=0.0, config=CFG):
    return coinc._ticks(np.array(times, dtype=float), config, clock_phase).tolist()


def test_synchronize_ceils_to_tick():
    # 4.0 moves to the next tick (5.8 ns); 5.8 is already on one
    assert ticks([0.0, 4.0, 5.8]) == [0, 2, 2]


def test_synchronize_with_clock_phase():
    # ticks sit at 0.5 + k * 2.9 ns
    assert ticks([0.0], clock_phase=0.5) == [0]
    assert ticks([0.6], clock_phase=0.5) == [1]


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
    # True ran as phase 1.0 and "0.5" raised TypeError
    for bad in (True, "0.5", math.nan):
        with pytest.raises(ValueError, match="clock phase must be a finite number"):
            count_coincidences(events, CFG, clock_phase=bad)


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
    assert window_profile(np.int64(3)) == 1.0  # raised as no finite number
    # NaN fell through every comparison and came back as NaN
    for bad in (math.nan, math.inf, True, "1.0"):
        with pytest.raises(ValueError, match="delay must be a finite number"):
            window_profile(bad, CFG)


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
    # trials is a count of at least 1: 0 divided by zero, 2.5 and True failed in numpy
    for bad in (0, 2.5, True, -1):
        with pytest.raises(ValueError):
            empirical_window_profile(delays, CFG, trials=bad)


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


def test_jitter_seed_is_a_count():
    cfg = CoincidenceConfig(jitter_sigma_ns=0.8)
    events = [PulseEvent("A", 100.0 * i) for i in range(40)]
    events += [PulseEvent("B", 100.0 * i + 7.0) for i in range(40)]
    # no seed is seed 0, not OS entropy
    assert count_coincidences(events, cfg) == count_coincidences(events, cfg, rng_seed=0)
    for bad in (True, 1.0, -1, "5"):
        with pytest.raises(ValueError, match="seed must be an integer"):
            count_coincidences(events, cfg, rng_seed=bad)


def test_pulse_csv_round_trip(tmp_path):
    path = tmp_path / "pulses.csv"
    events = [PulseEvent("A", 0.0), PulseEvent("B", 4.25)]
    write_pulse_csv(path, events)
    back = read_pulse_csv(path)
    assert len(back) == 2
    assert list(back) == events


def test_coincidence_csv():
    rows = sorted(outcome_map({frozenset({"B", "A"}): 3}).items())
    text = csv_text(("channels", "count"), rows)
    assert text == "channels,count\nA;B,3\n"


def test_channel_name_with_separator_is_rejected():
    # channels "a;b" and "c" made the record {a;b, c}, whose text form "a;b;c"
    # is also that of the record {a, b, c}: two rows with the same channels
    events = [PulseEvent("a;b", 0.0), PulseEvent("c", 1.0),
              PulseEvent("a", 1000.0), PulseEvent("b", 1000.5), PulseEvent("c", 1001.0)]
    with pytest.raises(ValueError, match=r"channel name 'a;b' holds ';'"):
        count_coincidences(events)
    # the name is refused before counting, so a stream that makes no record raises too
    with pytest.raises(ValueError, match="holds ';'"):
        count_coincidences(Pulses(["x;"], [0.0]))


# -- the array counter against a pulse-by-pulse reference -------------------------


def reference_count(events, config, clock_phase=0.0, rng_seed=None):
    """The counter written out one pulse at a time: sort by (time, channel),
    jitter in that order, drop pulses within the dead time of the last
    accepted pulse on their channel, move each to its clock tick, then group
    greedily from the earliest pulse with a half-tick margin."""
    pulses = sorted(events, key=lambda e: (e.t, e.channel))
    if config.n_channels is not None and len({e.channel for e in pulses}) > config.n_channels:
        raise ValueError("too many channels")
    if config.jitter_sigma_ns > 0.0:
        rng = evolve.derived_rng(0 if rng_seed is None else rng_seed)
        pulses = [
            PulseEvent(e.channel, e.t + config.jitter_sigma_ns * rng.standard_normal())
            for e in pulses
        ]
        pulses.sort(key=lambda e: (e.t, e.channel))
    last_accepted = {}
    kept = []
    for e in pulses:
        prev = last_accepted.get(e.channel)
        if prev is not None and e.t - prev < config.dead_time_ns:
            continue
        last_accepted[e.channel] = e.t
        kept.append(e)
    synced = sorted(
        (
            PulseEvent(e.channel, clock_phase + math.ceil((e.t - clock_phase) / config.t_clk) * config.t_clk)
            for e in kept
        ),
        key=lambda e: (e.t, e.channel),
    )
    max_span = (config.window_cycles - 1) * config.t_clk + 0.5 * config.t_clk
    counts = {}
    index = 0
    while index < len(synced):
        anchor = synced[index].t
        group = {synced[index].channel}
        stop = index + 1
        while stop < len(synced) and synced[stop].t - anchor < max_span:
            group.add(synced[stop].channel)
            stop += 1
        if len(group) >= 2:
            counts[frozenset(group)] = counts.get(frozenset(group), 0) + 1
        index = stop
    return counts


@st.composite
def streams(draw):
    """Small streams over 1-70 channels: tied times, and bursts that make runs
    of short dead-time gaps on one channel."""
    n_channels = draw(st.integers(1, 70))
    names = [f"ch{i:02d}" for i in range(n_channels)]
    channel = st.sampled_from(names)
    # times on a 0.25 ns grid, so ties are common
    time = st.integers(0, 2000).map(lambda k: 0.25 * k)
    # every channel fires at least once, so some streams use more than 64
    events = [PulseEvent(name, draw(time)) for name in names]
    events += draw(st.lists(st.builds(PulseEvent, channel, time), max_size=40))
    for _ in range(draw(st.integers(0, 3))):  # a burst: one channel, gaps under the dead time
        name, start = draw(channel), draw(time)
        gaps = draw(st.lists(st.integers(1, 30), min_size=2, max_size=6))
        events += [PulseEvent(name, start + 0.5 * g) for g in np.cumsum(gaps).tolist()]
    return events


@settings(max_examples=300, deadline=None)
@given(
    events=streams(),
    window_cycles=st.integers(1, 4),
    t_clk=st.sampled_from([0.7, 2.9, 5.0]),
    dead_time=st.sampled_from([0.0, 3.0, 10.0]),
    jitter=st.sampled_from([0.0, 0.4]),
    clock_phase=st.floats(-10.0, 10.0),
    rng_seed=st.integers(0, 2**32 - 1),
)
def test_array_counter_matches_reference(
    events, window_cycles, t_clk, dead_time, jitter, clock_phase, rng_seed
):
    config = CoincidenceConfig(
        t_clk=t_clk, window_cycles=window_cycles, dead_time_ns=dead_time, jitter_sigma_ns=jitter
    )
    expected = reference_count(events, config, clock_phase, rng_seed)
    assert count_coincidences(events, config, clock_phase, rng_seed) == expected
    assert count_coincidences(Pulses.from_events(events), config, clock_phase, rng_seed) == expected


def test_channel_sets_beyond_64_channels():
    # channel codes 0 and 69 fall in different words of the record bitmask
    names = [f"ch{i:02d}" for i in range(70)]
    events = [PulseEvent(name, 1000.0 * i) for i, name in enumerate(names)]
    events += [PulseEvent("ch00", 90000.5), PulseEvent("ch69", 90001.0), PulseEvent("ch68", 90001.5)]
    counts = count_coincidences(events, CFG)
    assert counts == {frozenset({"ch00", "ch69", "ch68"}): 1}
    assert counts == reference_count(events, CFG)


def test_long_dead_time_run_is_exact():
    # every gap on A is under 50 ns; 30 and 45 fall within the dead time of
    # the pulse at 0, while 60 is 60 ns after it and is kept
    events = [PulseEvent("A", t) for t in (0.0, 30.0, 45.0, 60.0)] + [PulseEvent("B", 60.5)]
    assert count_coincidences(events, CFG) == {frozenset({"A", "B"}): 1}
    # here 55 is kept, so 80 falls within its dead time
    events = [PulseEvent("A", t) for t in (0.0, 30.0, 55.0, 80.0)] + [PulseEvent("B", 80.5)]
    assert count_coincidences(events, CFG) == {}
    # a pulse exactly one dead time after the last accepted one is kept
    for times in ((0.0, 50.0), (0.0, 30.0, 50.0)):
        events = [PulseEvent("A", t) for t in times] + [PulseEvent("B", 50.5)]
        assert count_coincidences(events, CFG) == {frozenset({"A", "B"}): 1}


def test_empty_stream(tmp_path):
    assert count_coincidences([], CFG) == {}
    path = tmp_path / "pulses.csv"
    path.write_text("channel,t_ns\n")
    pulses = read_pulse_csv(path)
    assert len(pulses) == 0
    assert count_coincidences(pulses, CFG) == {}


def test_pulse_csv_reader_columns_and_blank_lines(tmp_path):
    path = tmp_path / "pulses.csv"
    path.write_text('t_ns,channel\n\n100.0,"a,b"\n\n101.0,c\n\n')
    pulses = read_pulse_csv(path)
    assert list(pulses) == [PulseEvent("a,b", 100.0), PulseEvent("c", 101.0)]
    assert count_coincidences(pulses, CFG) == {frozenset({"a,b", "c"}): 1}


@pytest.mark.parametrize(
    "body, message",
    [
        ("channel,t_ns\nA\n", "fewer than 2 fields"),
        ("channel,t_ns\nA,soon\n", "could not convert"),
        ("channel,t_ns\nA,nan\n", "not finite"),
        ("chan,t\nA,1.0\n", "expected columns"),
        ("", "expected columns"),
        ("channel,t_ns\nA\0,1.0\nA,2.0\n", "NUL"),
    ],
)
def test_pulse_csv_reader_rejects(tmp_path, body, message):
    path = tmp_path / "pulses.csv"
    path.write_text(body)
    with pytest.raises(ValueError, match=message) as info:
        read_pulse_csv(path)
    assert str(path) in str(info.value)


def test_tick_range_is_checked():
    cfg = CoincidenceConfig(t_clk=1e-300)
    with pytest.raises(ValueError, match="2\\*\\*53"):
        count_coincidences([PulseEvent("A", 1e300), PulseEvent("B", 1e300)], cfg)
    with pytest.raises(ValueError, match="2\\*\\*53"):
        ticks([1e300], config=cfg)
