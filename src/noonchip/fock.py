"""Multimode Fock states as sparse maps from occupation vectors to amplitudes.

A state on M modes is stored as {(n_0, ..., n_{M-1}): amplitude} with terms
below the pruning threshold dropped.  States are immutable; every operation
returns a new instance.  Iteration order is lexicographic in the occupation
vector so that serialization and reports are deterministic.  The package's
value rules live here, one each: nonnegative_ints for photon counts and mode
indices, probability for a value in [0, 1], is_number for a JSON number.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence

Occupation = tuple[int, ...]

#: amplitudes with |a| <= PRUNE_EPS are dropped on construction
PRUNE_EPS = 1e-14

#: tolerance on the physicality bound  norm^2 <= 1
NORM_TOL = 1e-12


def nonnegative_ints(values: Iterable, length: int | None = None) -> Occupation:
    """The one count rule, for occupations, counts and modes: Python ints equal to
    the values and >= 0 (1.5, -1, "2", inf, NaN, None fail), length of them if given."""
    out = []
    for n in values:
        try:
            as_int = int(n)
        except (TypeError, ValueError, OverflowError):
            as_int = -1
        if as_int != n or as_int < 0:
            raise ValueError(f"expected non-negative integers, got {n!r}")
        out.append(as_int)
    key = tuple(out)
    if length is not None and len(key) != length:
        raise ValueError(f"occupation {key} has {len(key)} modes, expected {length}")
    return key


class FockState:
    """Sparse bosonic state: a map occupation vector -> complex amplitude.

    The squared norm may be below 1 (heralded or lossy branches) but never
    above 1 + NORM_TOL.
    """

    __slots__ = ("_modes", "_amps")

    def __init__(
        self,
        mode_count: int,
        amplitudes: Mapping[Iterable[int], complex],
    ):
        if mode_count < 1:
            raise ValueError("mode_count must be >= 1")
        amps: dict[Occupation, complex] = {}
        for occ, amp in amplitudes.items():
            key = nonnegative_ints(occ, mode_count)
            value = complex(amp)
            if abs(value) > PRUNE_EPS:
                amps[key] = amps.get(key, 0j) + value
        self._modes = mode_count
        self._amps = amps
        if self.norm_squared() > 1.0 + NORM_TOL:
            raise ValueError(f"state norm^2 = {self.norm_squared():.6g} exceeds 1")

    # -- constructors -----------------------------------------------------

    @classmethod
    def basis_state(cls, occupation: Iterable[int]) -> "FockState":
        occ = nonnegative_ints(occupation)
        return cls(len(occ), {occ: 1.0})

    # -- basic queries -----------------------------------------------------

    @property
    def mode_count(self) -> int:
        return self._modes

    @property
    def amplitudes(self) -> Mapping[Occupation, complex]:
        return MappingProxyType(self._amps)

    def __len__(self) -> int:
        return len(self._amps)

    def __repr__(self) -> str:
        return f"FockState(modes={self._modes}, terms={len(self._amps)}, norm2={self.norm_squared():.6g})"

    def items(self) -> list[tuple[Occupation, complex]]:
        """Terms sorted lexicographically by occupation vector."""
        return sorted(self._amps.items())

    def amplitude(self, occupation: Iterable[int]) -> complex:
        return self._amps.get(nonnegative_ints(occupation, self._modes), 0j)

    def norm_squared(self) -> float:
        return sum(abs(a) ** 2 for a in self._amps.values())

    def norm(self) -> float:
        return math.sqrt(self.norm_squared())

    def photon_sectors(self) -> list[int]:
        """Sorted list of total photon numbers present in the state."""
        return sorted({sum(occ) for occ in self._amps})

    # -- algebra -----------------------------------------------------------

    def normalized(self) -> "FockState":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize an empty state")
        return FockState(self._modes, {occ: a / n for occ, a in self._amps.items()})

    def scaled(self, factor: complex) -> "FockState":
        return FockState(self._modes, {occ: a * factor for occ, a in self._amps.items()})

    def allclose(self, other: "FockState", tol: float = 1e-12) -> bool:
        if self._modes != other._modes:
            return False
        keys = set(self._amps) | set(other._amps)
        return all(abs(self._amps.get(k, 0j) - other._amps.get(k, 0j)) <= tol for k in keys)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "modes": self._modes,
            "terms": [
                {"occ": list(occ), "re": amp.real, "im": amp.imag}
                for occ, amp in self.items()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FockState":
        check_keys(data, "state", ("modes", "terms"))
        amps = {}
        for term in data["terms"]:
            check_keys(term, "state term", ("occ", "re", "im"))
            amp = complex(term["re"], term["im"])
            if not cmath.isfinite(amp):
                raise ValueError(f"amplitude {amp} of {term['occ']} is not finite")
            amps[tuple(term["occ"])] = amp
        return cls(data["modes"], amps)


def check_keys(data, what: str, allowed: tuple[str, ...]) -> None:
    """Raises ValueError unless data is a JSON object with keys only from allowed."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object")
    unknown = ", ".join(repr(key) for key in sorted(set(data) - set(allowed)))
    if unknown:
        raise ValueError(f"{what} takes only the keys {', '.join(allowed)}; got {unknown}")


def is_number(value, kind: type | tuple[type, ...] = (int, float)) -> bool:
    """A JSON number of the given kind in a float's range: no bool, string or NaN."""
    return isinstance(value, kind) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def probability(what: str, value) -> float:
    """The one probability rule: value as a float in [0, 1]; a bool, a
    string, NaN or an infinity fails, naming what."""
    if not (is_number(value) and 0.0 <= value <= 1.0):
        raise ValueError(f"{what} must lie in [0, 1], got {value!r}")
    return float(value)


@dataclass(frozen=True)
class NoonSpec:
    """Target two-mode state (|n,m> + e^{i alpha} |m,n>) / sqrt(2), n >= m."""

    n: int
    m: int
    alpha: float = 0.0

    def __post_init__(self):
        if self.m < 0 or self.n < self.m:
            raise ValueError(f"require n >= m >= 0, got n={self.n}, m={self.m}")


def make_noon(spec: NoonSpec) -> FockState:
    """Normalized |n::m> state on two modes.

    For n == m the superposition collapses to the single term |n,n>.
    """
    if spec.n == spec.m:
        return FockState(2, {(spec.n, spec.n): 1.0})
    phase = complex(math.cos(spec.alpha), math.sin(spec.alpha))
    root_half = 1.0 / math.sqrt(2.0)
    return FockState(2, {(spec.n, spec.m): root_half, (spec.m, spec.n): phase * root_half})


def inner_product(a: FockState, b: FockState) -> complex:
    """<a|b>, antilinear in the first argument."""
    if a.mode_count != b.mode_count:
        raise ValueError("inner product requires equal mode counts")
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    total = 0j
    for occ, amp in small.amplitudes.items():
        other = large.amplitudes.get(occ)
        if other is not None:
            if small is a:
                total += amp.conjugate() * other
            else:
                total += other.conjugate() * amp
    return total


def state_fidelity(a: FockState, b: FockState) -> float:
    """|<a|b>|^2: phase-insensitive overlap of two normalized states."""
    return abs(inner_product(a, b)) ** 2


def _count_keys(state: FockState, modes: Iterable[int]) -> list[Callable[[Occupation], Occupation]]:
    """Two maps from an occupation to its counts on the given modes and on the
    others, each a tuple in ascending mode order built in one C call; no mode,
    or one outside the state, raises ValueError."""
    selected = sorted(set(nonnegative_ints(modes)))
    if not selected:
        raise ValueError("need at least one mode")
    if selected[-1] >= state.mode_count:
        raise ValueError(f"mode {selected[-1]} out of range for {state.mode_count}-mode state")
    kept = [m for m in range(state.mode_count) if m not in selected]
    # itemgetter of one index gives the bare count; a slice keeps it a tuple
    return [itemgetter(*ms) if len(ms) > 1 else itemgetter(slice(ms[0], ms[0] + 1) if ms else slice(0))
            for ms in (selected, kept)]


def marginal_distribution(state: FockState, modes: Iterable[int]) -> dict[Occupation, float]:
    """Distribution of photon counts on a subset of modes.

    Keys are tuples ordered by ascending mode index.  Over all modes this
    reproduces |amplitude|^2 per occupation exactly.  Each value is the squared
    norm of split's part under that key, summed without building the part.
    """
    key, _ = _count_keys(state, modes)
    dist: dict[Occupation, float] = {}
    for occ, amp in state.amplitudes.items():
        counts = key(occ)
        dist[counts] = dist.get(counts, 0.0) + abs(amp) ** 2
    return dist


def split(state: FockState, modes: Iterable[int]) -> dict[Occupation, dict[Occupation, complex]]:
    """The state grouped by its photon counts on the given modes, in one pass:
    {counts on the modes: {occupation of the other modes: amplitude}}, both
    keys in ascending mode order and each part in the state's term order."""
    key, rest = _count_keys(state, modes)
    parts: dict[Occupation, dict[Occupation, complex]] = {}
    for occ, amp in state.amplitudes.items():
        parts.setdefault(key(occ), {})[rest(occ)] = amp
    return parts


def basis_occupations(n_photons: int, n_modes: int) -> Iterator[Occupation]:
    """All occupation vectors with the given photon total, lexicographic order.

    Yields C(n_photons + n_modes - 1, n_photons) vectors.
    """
    if n_photons < 0 or n_modes < 1:
        raise ValueError("need n_photons >= 0 and n_modes >= 1")

    def rec(remaining: int, slots: int) -> Iterator[tuple[int, ...]]:
        if slots == 1:
            yield (remaining,)
            return
        for first in range(remaining + 1):
            for rest in rec(remaining - first, slots - 1):
                yield (first,) + rest

    return rec(n_photons, n_modes)


def multinomial(n: int, probs: Sequence[float]) -> dict[Occupation, float]:
    """Distribution of n independent draws over len(probs) outcomes, keyed by
    count vector; vectors of probability zero are left out."""
    out: dict[Occupation, float] = {}
    for counts in basis_occupations(n, len(probs)):
        weight = math.factorial(n)
        for c, p in zip(counts, probs):
            if c and p == 0.0:
                weight = 0.0
                break
            weight *= p**c / math.factorial(c)
        if weight > 0.0:
            out[counts] = weight
    return out
