"""Clocked coincidence counting with a sliding integration window.

Detector pulses are synchronized to the next tick of a free-running clock
(period t_clk, default 2.9 ns); two synchronized pulses coincide when their
tick indices differ by at most window_cycles - 1.  Averaged over a uniform
clock phase this yields a trapezoidal acceptance profile in the true delay d
for a window T_IC = window_cycles * t_clk:

    1                              for d <= T_IC - t_clk
    (T_IC - d) / t_clk             for T_IC - t_clk <= d <= T_IC
    0                              for d >= T_IC

A stream is held as arrays (Pulses: channel names and times), from the CSV
reader to the counts; the pulse CSV goes through detect.read_csv_columns, the
package's one CSV reader.  count_coincidences sorts it by time, adds Gaussian
jitter as one vector, applies the per-channel dead time (exact: only runs of
short gaps on one channel are resolved pulse by pulse), maps times to integer
clock ticks and groups them greedily from the earliest pulse, so no pulse is
counted twice.  Ticks must stay below 2**53 in magnitude, where float64 still
holds every integer.  A list of PulseEvent goes through Pulses.from_events.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import evolve
from .detect import csv_text, read_csv_columns
from .fock import count, is_number, number

#: |tick| must stay below this: float64 holds every integer up to 2**53
MAX_TICK = 2**53


@dataclass(frozen=True)
class PulseEvent:
    channel: str
    t: float  # ns


@dataclass(frozen=True, eq=False)
class Pulses:
    """A pulse stream: channel names (numpy str array) and times in ns (float64)."""

    channels: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "channels", np.asarray(self.channels, dtype=str))
        object.__setattr__(self, "t", np.asarray(self.t, dtype=float))
        if self.channels.shape != self.t.shape or self.t.ndim != 1:
            raise ValueError("pulse channels and times must be 1-D arrays of one length")
        bad = np.flatnonzero(~np.isfinite(self.t))
        if bad.size:
            raise ValueError(f"pulse time {float(self.t[bad[0]])!r} is not finite")

    @classmethod
    def from_events(cls, events: Iterable[PulseEvent]) -> "Pulses":
        events = list(events)
        return cls([e.channel for e in events], [e.t for e in events])

    def __len__(self) -> int:
        return len(self.t)

    def __iter__(self) -> Iterator[PulseEvent]:
        return map(PulseEvent, self.channels.tolist(), self.t.tolist())


@dataclass(frozen=True)
class CoincidenceConfig:
    """Counting settings; the counts window_cycles and n_channels are stored as ints,
    a numpy int t_clk as a Python int (so the window cannot wrap), and the window
    window_cycles * t_clk must be a finite number of ns."""

    t_clk: float = 2.9
    window_cycles: int = 3
    n_channels: int | None = None
    dead_time_ns: float = 50.0
    jitter_sigma_ns: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "window_cycles", count("window_cycles", self.window_cycles, 1, MAX_TICK))
        if self.n_channels is not None:
            object.__setattr__(self, "n_channels", count("n_channels", self.n_channels, lo=1))
        for name in ("t_clk", "dead_time_ns", "jitter_sigma_ns"):
            number(name, getattr(self, name))
        if isinstance(self.t_clk, np.integer):
            object.__setattr__(self, "t_clk", int(self.t_clk))
        if self.t_clk <= 0.0:
            raise ValueError("t_clk must be positive")
        if not is_number(self.window_ns):
            raise ValueError(f"window_cycles * t_clk = {self.window_cycles!r} * {self.t_clk!r} ns "
                             "is beyond a float's range")
        if self.dead_time_ns < 0.0 or self.jitter_sigma_ns < 0.0:
            raise ValueError("dead time and jitter must be non-negative")

    @property
    def window_ns(self) -> float:
        return self.window_cycles * self.t_clk


def _ticks(t: np.ndarray, config: CoincidenceConfig, clock_phase: float) -> np.ndarray:
    """Index of the first clock tick at or after each time (int64)."""
    with np.errstate(over="ignore"):  # an overflow fails the range check below
        ticks = np.ceil((t - clock_phase) / config.t_clk)
    bad = np.flatnonzero(~(np.abs(ticks) < MAX_TICK))
    if bad.size:
        raise ValueError(
            f"pulse time {float(t[bad[0]])!r} ns is beyond 2**53 clock ticks "
            f"(t_clk {config.t_clk!r} ns, clock phase {clock_phase!r} ns)"
        )
    return ticks.astype(np.int64)


def _dead_time_mask(t: np.ndarray, code: np.ndarray, dead_time: float) -> np.ndarray:
    """Which pulses (sorted by time) survive the per-channel dead time.

    A pulse is dropped when it arrives within dead_time of the last accepted
    pulse on its channel.  A gap of at least dead_time to the previous pulse
    on the channel always keeps it, and a short gap right after a kept pulse
    always drops it; only the second and later short gaps of a run need the
    last accepted time, so only they are decided one at a time.
    """
    keep = np.ones(len(t), dtype=bool)
    if dead_time == 0.0:
        return keep
    by_channel = np.argsort(code, kind="stable")  # time order within each channel
    times, codes = t[by_channel], code[by_channel]
    short = np.zeros(len(t), dtype=bool)
    short[1:] = (codes[1:] == codes[:-1]) & (np.diff(times) < dead_time)
    kept = ~short
    for i in np.flatnonzero(short[1:] & short[:-1]).tolist():
        last = i  # i + 1 is the pulse; the pulse before its run is kept
        while not kept[last]:
            last -= 1
        kept[i + 1] = times[i + 1] - times[last] >= dead_time
    keep[by_channel] = kept
    return keep


def _record_starts(ticks: np.ndarray, window_cycles: int) -> np.ndarray:
    """Index of the first pulse of each greedy record in sorted ticks.

    A record opens at the earliest pulse not yet grouped and takes every
    pulse up to window_cycles - 1 ticks later.  A gap of a whole window
    always opens a record, so the chain of records is walked only inside
    the stretches between such gaps that span more than one window.
    """
    gaps = np.flatnonzero(np.diff(ticks) >= window_cycles) + 1
    firsts, stops = np.concatenate(([0], gaps)), np.concatenate((gaps, [len(ticks)]))
    long = ticks[stops - 1] - ticks[firsts] >= window_cycles
    following = np.searchsorted(ticks, ticks + window_cycles) if long.any() else None
    inner = []
    for i, stop in zip(firsts[long].tolist(), stops[long].tolist()):
        while (i := int(following[i])) < stop:
            inner.append(i)
    return np.sort(np.concatenate((firsts, inner))) if inner else firsts


def _channel_sets(starts: np.ndarray, code: np.ndarray, names: np.ndarray) -> dict[frozenset, int]:
    """Counts of the channel sets of the records with two or more channels.

    Each record's set is a bitmask of one uint64 word per 64 channels.
    """
    words = (len(names) + 63) // 64
    bits = np.zeros((len(code), words), dtype=np.uint64)
    bits[np.arange(len(code)), code // 64] = np.left_shift(np.uint64(1), code % 64, dtype=np.uint64)
    masks = np.bitwise_or.reduceat(bits, starts, axis=0)
    # two or more bits: two in one word, or two words in use
    multi = (masks & (masks - np.uint64(1))).any(axis=1) | (np.count_nonzero(masks, axis=1) >= 2)
    masks = masks[multi]
    masks = masks[np.lexsort(masks.T)]
    first = np.ones(len(masks), dtype=bool)
    first[1:] = (masks[1:] != masks[:-1]).any(axis=1)
    firsts = np.flatnonzero(first)
    counts = np.diff(firsts, append=len(masks))
    members = np.unpackbits(masks[firsts].astype("<u8").view(np.uint8), axis=1, bitorder="little")
    names = names.tolist()
    return {
        frozenset(compress(names, row)): n for row, n in zip(members.tolist(), counts.tolist())
    }


def count_coincidences(
    pulses: Pulses | Iterable[PulseEvent],
    config: CoincidenceConfig = CoincidenceConfig(),
    clock_phase: float = 0.0,
    rng_seed: int | None = None,
) -> dict[frozenset, int]:
    """Groups pulses into coincidence records and counts channel sets.

    Pipeline: optional Gaussian timing jitter, per-channel dead time,
    synchronization, then greedy earliest-window grouping: a record opens at
    the earliest unconsumed pulse and absorbs every pulse within
    window_cycles - 1 ticks of it.  Only records with at least two distinct
    channels count as coincidences.  Ties in time are taken in channel-name
    order.  No seed is seed 0.  A channel name may not hold ';', the
    separator of detect.format_outcome's channel sets.
    """
    rng_seed = count("seed", 0 if rng_seed is None else rng_seed)
    number("clock phase", clock_phase)
    if not isinstance(pulses, Pulses):
        pulses = Pulses.from_events(pulses)
    names, code = np.unique(pulses.channels, return_inverse=True)
    for name in names.tolist():
        if ";" in name:
            raise ValueError(f"channel name {name!r} holds ';', which separates channels in output")
    code = code.astype(np.min_scalar_type(len(names)))  # narrow codes sort faster
    if config.n_channels is not None and len(names) > config.n_channels:
        raise ValueError(f"stream uses {len(names)} channels, config allows {config.n_channels}")
    if len(pulses) == 0:
        return {}
    order = np.lexsort((code, pulses.t))
    t, code = pulses.t[order], code[order]
    if config.jitter_sigma_ns > 0.0:
        rng = evolve.derived_rng(rng_seed)
        t = t + config.jitter_sigma_ns * rng.standard_normal(len(t))
        order = np.lexsort((code, t))
        t, code = t[order], code[order]
    keep = _dead_time_mask(t, code, config.dead_time_ns)
    t, code = t[keep], code[keep]
    starts = _record_starts(_ticks(t, config, clock_phase), config.window_cycles)
    return _channel_sets(starts, code, names)


def window_profile(delay: float, config: CoincidenceConfig = CoincidenceConfig()) -> float:
    """Phase-averaged coincidence probability for two pulses a fixed delay apart."""
    d = abs(float(number("delay", delay)))
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
) -> list[float]:
    """Monte Carlo check of window_profile through the real counting pipeline.

    Pulse pairs on channels A and B are placed at well-separated base times
    with a uniform offset against the clock, which is equivalent to averaging
    over the clock phase.  trials is a count of at least 1.
    """
    trials = count("trials", trials, lo=1)
    rng = evolve.derived_rng(seed)
    spacing = max(10.0 * config.window_ns, 20.0 * config.dead_time_ns, 100.0)
    offsets = rng.uniform(0.0, config.t_clk, size=trials)
    base = np.arange(trials) * spacing + offsets
    channels = np.repeat(np.array(["A", "B"]), trials)
    fractions = []
    for delay in delays:
        pulses = Pulses(channels, np.concatenate((base, base + delay)))
        counts = count_coincidences(pulses, config)
        fractions.append(counts.get(frozenset({"A", "B"}), 0) / trials)
    return fractions


# -- CSV I/O -------------------------------------------------------------------


def read_pulse_csv(path) -> Pulses:
    """Reads a pulse stream with columns channel,t_ns through
    detect.read_csv_columns; a time that is not a finite number raises
    ValueError naming the file."""
    return read_csv_columns(path, "pulse", ("channel", "t_ns"),
                            lambda channels, t: Pulses(channels, np.array(t, dtype=float)))


def write_pulse_csv(path, events: Iterable[PulseEvent]) -> None:
    """Writes columns channel,t_ns; a Pulses stream iterates as PulseEvents."""
    rows = [(event.channel, repr(float(event.t))) for event in events]
    with open(path, "w", newline="") as handle:
        handle.write(csv_text(("channel", "t_ns"), rows))

