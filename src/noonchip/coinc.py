"""Clocked coincidence counting with a sliding integration window.

Detector pulses are synchronized to the next tick of a free-running clock
(period t_clk, default 2.9 ns); two synchronized pulses coincide when their
tick indices differ by at most window_cycles - 1.  Averaged over a uniform
clock phase this yields a trapezoidal acceptance profile in the true delay d
for a window T_IC = window_cycles * t_clk:

    1                              for d <= T_IC - t_clk
    (T_IC - d) / t_clk             for T_IC - t_clk <= d <= T_IC
    0                              for d >= T_IC

Per-channel dead time is applied before synchronization; grouping into
coincidence records is greedy from the earliest pulse, so no pulse is
counted twice.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import evolve
from .detect import csv_text


@dataclass(frozen=True)
class PulseEvent:
    channel: str
    t: float  # ns


@dataclass(frozen=True)
class CoincidenceConfig:
    t_clk: float = 2.9
    window_cycles: int = 3
    n_channels: int | None = None
    dead_time_ns: float = 50.0
    jitter_sigma_ns: float = 0.0

    def __post_init__(self):
        values = (self.t_clk, self.window_cycles, self.dead_time_ns, self.jitter_sigma_ns)
        if not all(math.isfinite(x) for x in values):
            raise ValueError("coincidence settings must be finite")
        if self.t_clk <= 0.0:
            raise ValueError("t_clk must be positive")
        if self.window_cycles < 1:
            raise ValueError("window_cycles must be >= 1")
        if self.dead_time_ns < 0.0 or self.jitter_sigma_ns < 0.0:
            raise ValueError("dead time and jitter must be non-negative")

    @property
    def window_ns(self) -> float:
        return self.window_cycles * self.t_clk


def synchronize(
    events: Iterable[PulseEvent], config: CoincidenceConfig, clock_phase: float = 0.0
) -> list[PulseEvent]:
    """Moves each pulse to the first clock tick at or after its arrival.

    Ticks sit at clock_phase + k * t_clk; the quantization error is uniform
    on [0, t_clk) for arrival times independent of the clock.
    """
    if not math.isfinite(clock_phase):
        raise ValueError(f"clock phase must be finite, got {clock_phase!r}")
    t_clk = config.t_clk
    out = []
    for event in events:
        tick = math.ceil((event.t - clock_phase) / t_clk)
        out.append(PulseEvent(event.channel, clock_phase + tick * t_clk))
    return out


def _apply_dead_time(events: list[PulseEvent], dead_time: float) -> list[PulseEvent]:
    """Drops pulses arriving within the dead time of the previous accepted
    pulse on the same channel."""
    if dead_time == 0.0:
        return events
    last_accepted: dict[str, float] = {}
    kept = []
    for event in events:
        prev = last_accepted.get(event.channel)
        if prev is not None and event.t - prev < dead_time:
            continue
        last_accepted[event.channel] = event.t
        kept.append(event)
    return kept


def count_coincidences(
    events: Iterable[PulseEvent],
    config: CoincidenceConfig = CoincidenceConfig(),
    clock_phase: float = 0.0,
    rng_seed: int | None = None,
) -> dict[frozenset, int]:
    """Groups pulses into coincidence records and counts channel sets.

    Pipeline: optional Gaussian timing jitter, per-channel dead time,
    synchronization, then greedy earliest-window grouping: a record opens at
    the earliest unconsumed pulse and absorbs every pulse within
    window_cycles - 1 ticks of it.  Only records with at least two distinct
    channels count as coincidences.
    """
    pulses = sorted(events, key=lambda e: (e.t, e.channel))
    if config.n_channels is not None:
        channels = {e.channel for e in pulses}
        if len(channels) > config.n_channels:
            raise ValueError(
                f"stream uses {len(channels)} channels, config allows {config.n_channels}"
            )
    if config.jitter_sigma_ns > 0.0:
        rng = evolve.derived_rng(0 if rng_seed is None else rng_seed)
        pulses = [
            PulseEvent(e.channel, e.t + config.jitter_sigma_ns * rng.standard_normal())
            for e in pulses
        ]
        pulses.sort(key=lambda e: (e.t, e.channel))
    pulses = _apply_dead_time(pulses, config.dead_time_ns)
    synced = synchronize(pulses, config, clock_phase)
    synced.sort(key=lambda e: (e.t, e.channel))

    max_span = (config.window_cycles - 1) * config.t_clk + 0.5 * config.t_clk
    counts: dict[frozenset, int] = {}
    index = 0
    while index < len(synced):
        anchor = synced[index].t
        group = {synced[index].channel}
        stop = index + 1
        while stop < len(synced) and synced[stop].t - anchor < max_span:
            group.add(synced[stop].channel)
            stop += 1
        if len(group) >= 2:
            key = frozenset(group)
            counts[key] = counts.get(key, 0) + 1
        index = stop
    return counts


def window_profile(delay: float, config: CoincidenceConfig = CoincidenceConfig()) -> float:
    """Phase-averaged coincidence probability for two pulses a fixed delay apart."""
    d = abs(float(delay))
    t_clk = config.t_clk
    upper = config.window_ns  # beyond this the late pulse falls off the window
    lower = upper - t_clk
    if d <= lower:
        return 1.0
    if d >= upper:
        return 0.0
    return (upper - d) / t_clk


def empirical_window_profile(
    delays: Sequence[float],
    config: CoincidenceConfig = CoincidenceConfig(),
    trials: int = 100_000,
    seed: int = 0,
    channel_pair: tuple[str, str] = ("A", "B"),
) -> list[float]:
    """Monte Carlo check of window_profile through the real counting pipeline.

    Pulse pairs are placed at well-separated base times with a uniform offset
    against the clock, which is equivalent to averaging over the clock phase.
    """
    rng = evolve.derived_rng(seed)
    spacing = max(10.0 * config.window_ns, 20.0 * config.dead_time_ns, 100.0)
    offsets = rng.uniform(0.0, config.t_clk, size=trials)
    base = np.arange(trials) * spacing + offsets
    a, b = channel_pair
    fractions = []
    for delay in delays:
        events = [PulseEvent(a, float(t)) for t in base]
        events += [PulseEvent(b, float(t + delay)) for t in base]
        counts = count_coincidences(events, config)
        fractions.append(counts.get(frozenset(channel_pair), 0) / trials)
    return fractions


# -- CSV I/O -------------------------------------------------------------------


def read_pulse_csv(path) -> list[PulseEvent]:
    """Reads a pulse stream with columns channel,t_ns; every time must be finite."""
    events = []
    with open(path, newline="") as handle:
        # a short row reads as empty fields, which float() rejects
        reader = csv.DictReader(handle, restval="")
        if reader.fieldnames is None or not {"channel", "t_ns"} <= set(reader.fieldnames):
            raise ValueError(f"{path}: expected columns 'channel,t_ns'")
        for row in reader:
            t = float(row["t_ns"])
            if not math.isfinite(t):
                raise ValueError(f"{path}: pulse time {row['t_ns']!r} is not finite")
            events.append(PulseEvent(row["channel"], t))
    return events


def write_pulse_csv(path, events: Iterable[PulseEvent]) -> None:
    rows = [(event.channel, repr(float(event.t))) for event in events]
    with open(path, "w", newline="") as handle:
        handle.write(csv_text(("channel", "t_ns"), rows))


def coincidence_rows(counts: dict[frozenset, int]) -> list[tuple[str, int]]:
    """(channels joined by ';', count) rows, sorted by channels."""
    return sorted((";".join(sorted(key)), n) for key, n in counts.items())


def write_coincidence_csv(path, counts: dict[frozenset, int]) -> None:
    """Coincidence records with columns channels,count."""
    with open(path, "w", newline="") as handle:
        handle.write(csv_text(("channels", "count"), coincidence_rows(counts)))
