"""Multimode Fock states as sparse maps from occupation vectors to amplitudes.

A state on M modes is stored as {(n_0, ..., n_{M-1}): amplitude} with terms
below the pruning threshold dropped.  States are immutable; every operation
returns a new instance.  Iteration order is lexicographic in the occupation
vector so that serialization and reports are deterministic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

Occupation = tuple[int, ...]

#: amplitudes with |a| <= PRUNE_EPS are dropped on construction
PRUNE_EPS = 1e-14

#: tolerance on the physicality bound  norm^2 <= 1
NORM_TOL = 1e-12


def _coerce_occupation(occ: Iterable[int], modes: int | None = None) -> Occupation:
    out = []
    for n in occ:
        as_int = int(n)
        if as_int != n or as_int < 0:
            raise ValueError(f"occupation numbers must be non-negative integers, got {n!r}")
        out.append(as_int)
    key = tuple(out)
    if modes is not None and len(key) != modes:
        raise ValueError(f"occupation {key} has {len(key)} modes, expected {modes}")
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
            key = _coerce_occupation(occ, mode_count)
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
        occ = _coerce_occupation(occupation)
        return cls(len(occ), {occ: 1.0})

    @classmethod
    def vacuum(cls, mode_count: int) -> "FockState":
        return cls(mode_count, {(0,) * mode_count: 1.0})

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
        return self._amps.get(_coerce_occupation(occupation, self._modes), 0j)

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

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json_dict(cls, data: dict) -> "FockState":
        amps = {
            tuple(term["occ"]): complex(term["re"], term["im"]) for term in data["terms"]
        }
        return cls(data["modes"], amps)

    @classmethod
    def from_json(cls, text: str) -> "FockState":
        return cls.from_json_dict(json.loads(text))


@dataclass(frozen=True)
class NoonSpec:
    """Target two-mode state (|n,m> + e^{i alpha} |m,n>) / sqrt(2), n >= m."""

    n: int
    m: int
    alpha: float = 0.0
    mode_pair: tuple[int, int] = (0, 1)

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


def tensor(a: FockState, b: FockState) -> FockState:
    """Tensor product; b's modes are appended after a's."""
    amps: dict[Occupation, complex] = {}
    for occ_a, amp_a in a.amplitudes.items():
        for occ_b, amp_b in b.amplitudes.items():
            amps[occ_a + occ_b] = amp_a * amp_b
    return FockState(a.mode_count + b.mode_count, amps)


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


def marginal_distribution(state: FockState, modes: Iterable[int]) -> dict[Occupation, float]:
    """Distribution of photon counts on a subset of modes.

    Keys are tuples ordered by ascending mode index.  Over all modes this
    reproduces |amplitude|^2 per occupation exactly.
    """
    selected = sorted(set(int(m) for m in modes))
    if not selected:
        raise ValueError("need at least one mode")
    for m in selected:
        if not 0 <= m < state.mode_count:
            raise ValueError(f"mode {m} out of range for {state.mode_count}-mode state")
    dist: dict[Occupation, float] = {}
    for occ, amp in state.amplitudes.items():
        key = tuple(occ[m] for m in selected)
        dist[key] = dist.get(key, 0.0) + abs(amp) ** 2
    return dist


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
