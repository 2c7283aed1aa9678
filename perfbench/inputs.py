"""Seeded input generators for the benchmark workloads.

Everything the program under test receives is made here from a numpy
Generator: preset order and output format, detector-sweep points, unitaries
for the engine cross-check, and pulse streams with planted ground truth.
Nothing in this module calls noonchip, so the expected coincidence counts of
a stream are known without the code they check.

The seed draws continuous parameters (and orders); the properties that set
the cost of an op (photon sector, dark counts on, input shape, stream size)
are fixed, so every seed costs about the same.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

PRESETS = (
    "fig2a",
    "fig2b-sagnac",
    "fig3a",
    "fig3b",
    "fig3b-4point",
    "fig4",
    "fig4-contamination",
)
FORMATS = ("csv", "json")

#: detector ids of the paper-6fold topology, in mode order
CHANNELS = ("Di", "J1", "J2", "J3", "J4", "K1", "K2", "K3", "K4", "Dl")

PULSES_PER_FILE = 50_000
#: cluster starts are this far apart: far beyond the 8.7 ns window and 50 ns dead time
CLUSTER_SPACING_NS = 250.0
CLUSTER_START_JITTER_NS = 50.0
#: pulses of one cluster lie within this span (the planted clusters stay under 2 ns)
CLUSTER_SPREAD_NS = 1.0
MAX_CLUSTER_SIZE = 6
AFTERPULSE_PROB = 0.3
#: afterpulse delay after the same channel's pulse, inside the 50 ns dead time
AFTERPULSE_DELAY_NS = (10.0, 40.0)
AFTERPULSE_SPREAD_NS = 0.5


def preset_cycle(rng: np.random.Generator) -> list[tuple[str, str]]:
    """All seven presets once, in seeded order, each with a seeded format."""
    order = rng.permutation(len(PRESETS))
    return [(PRESETS[i], FORMATS[int(rng.integers(len(FORMATS)))]) for i in order]


def detector_point(rng: np.random.Generator) -> tuple[float, float, float]:
    """(efficiency, dark-count probability, phase) of one sweep point.

    Efficiency is uniform on [0.5, 0.95], dark-count probability log-uniform
    on [1e-5, 1e-3] and the phase uniform on [0, pi].
    """
    efficiency = float(rng.uniform(0.5, 0.95))
    dark = float(10.0 ** rng.uniform(-5.0, -3.0))
    phi = float(rng.uniform(0.0, math.pi))
    return efficiency, dark, phi


def chip_settings(rng: np.random.Generator) -> dict[str, float]:
    """Coupler transmissivities in [0.1, 0.9] and a heater phase in [0, 2 pi)."""
    settings = {f"eta{i}": float(rng.uniform(0.1, 0.9)) for i in range(1, 5)}
    settings["phi"] = float(rng.uniform(0.0, 2.0 * math.pi))
    return settings


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-random n x n unitary: QR of a complex Gaussian with phases fixed."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def pulse_stream(
    rng: np.random.Generator, n_pulses: int = PULSES_PER_FILE
) -> tuple[list[tuple[str, float]], Counter]:
    """A time-ordered pulse stream and the coincidence counts planted in it.

    The stream is a sequence of clusters, one per CLUSTER_SPACING_NS slot.
    A cluster holds 1 to 6 distinct channels within CLUSTER_SPREAD_NS; with
    2 or more channels it is one coincidence record of exactly that channel
    set.  Some clusters also carry afterpulses: repeats of 2 or more of their
    channels, close together, inside those channels' dead time.  The counter
    drops them, so they add no record; a counter that kept them would see an
    extra coincidence.  Single-pulse clusters fill the end of the stream, so
    it has exactly n_pulses pulses.
    """
    m = n_pulses  # enough slots even if every cluster were a single pulse
    width = MAX_CLUSTER_SIZE
    sizes = rng.integers(1, width + 1, m)
    # the first `size` entries of a row are the cluster's distinct channels
    channels = np.argsort(rng.random((m, len(CHANNELS))), axis=1)[:, :width]
    starts = np.arange(m) * CLUSTER_SPACING_NS + rng.uniform(0.0, CLUSTER_START_JITTER_NS, m)
    times = starts[:, None] + rng.uniform(0.0, CLUSTER_SPREAD_NS, (m, width))
    repeats = rng.integers(2, np.maximum(sizes, 2) + 1)
    repeats[(sizes < 2) | (rng.random(m) >= AFTERPULSE_PROB)] = 0
    late = (
        times
        + rng.uniform(*AFTERPULSE_DELAY_NS, m)[:, None]
        + rng.uniform(0.0, AFTERPULSE_SPREAD_NS, (m, width))
    )

    # whole clusters while they fit, then single pulses for the remainder
    full = int(np.searchsorted(np.cumsum(sizes + repeats), n_pulses, side="right"))
    rest = n_pulses - int((sizes[:full] + repeats[:full]).sum())
    used = full + rest
    sizes[full:used] = 1
    repeats[full:used] = 0
    sizes, repeats, channels = sizes[:used], repeats[:used], channels[:used]

    slot = np.arange(width)
    main = slot < sizes[:, None]
    again = slot < repeats[:, None]
    ids = np.concatenate([channels[main], channels[again]])
    stamps = np.concatenate([times[:used][main], late[:used][again]])
    order = np.argsort(stamps, kind="stable")
    names = np.array(CHANNELS)[ids[order]]
    pulses = list(zip(names.tolist(), stamps[order].tolist()))

    masks = np.where(main, 1 << channels, 0).sum(axis=1)[sizes >= 2]
    truth = Counter(
        {
            frozenset(ch for bit, ch in enumerate(CHANNELS) if mask >> bit & 1): n
            for mask, n in Counter(masks.tolist()).items()
        }
    )
    return pulses, truth


def pulse_csv(pulses: list[tuple[str, float]]) -> str:
    """The stream in the CLI's pulse CSV format (columns channel,t_ns)."""
    return "channel,t_ns\n" + "".join(f"{ch},{t!r}\n" for ch, t in pulses)
