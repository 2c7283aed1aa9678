"""Multimode Fock states as sparse maps from occupation vectors to amplitudes.

A state on M modes is stored as {(n_0, ..., n_{M-1}): amplitude} with terms
below the pruning threshold dropped.  States are immutable; every operation
returns a new instance.  Iteration order is lexicographic in the occupation
vector so that serialization and reports are deterministic.  The package's
value rules live here, one each, for library calls and JSON input alike:
count for one count (photons, modes, seeds, cutoffs, windows) and nonnegative_ints
for a sequence of counts (one count test), probability for a value in [0, 1],
probabilities for values that sum to 1 within PROB_SUM_TOL, and number for any
other number (probability and number test is_number); all but nonnegative_ints
name the value, as do check_keys and json_list, the JSON object and array rules
that every reader runs first.  Keys are checked where they enter: FockState(...)
puts its mode count through count and every occupation through nonnegative_ints,
while evolve.apply, herald conditioning and scaled reuse keys that were already
checked (a cached sector's, or an existing state's), with one numpy array of their values.
"""

from __future__ import annotations

import math
import sys
from itertools import combinations_with_replacement
from operator import index, itemgetter, sub
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

Occupation = tuple[int, ...]

#: amplitudes with |a| <= PRUNE_EPS are dropped on construction
PRUNE_EPS = 1e-14

#: tolerance on the physicality bound  norm^2 <= 1
NORM_TOL = 1e-12

#: tolerance on a distribution or a set of weights that must sum to 1
PROB_SUM_TOL = 1e-9

#: the largest count: the largest integer in a float's range, as is_number
MAX_COUNT = int(sys.float_info.max)


def _as_count(value, lo: int, hi: int) -> int | None:
    """The count test of count and nonnegative_ints: value as a Python int if it is
    of an int type (a numpy int too, not a bool) in [lo, hi], else None."""
    try:
        n = index(value)
    except TypeError:
        return None
    return n if type(value) is not bool and lo <= n <= hi else None


def nonnegative_ints(values: Iterable, length: int | None = None) -> Occupation:
    """The count rule for a sequence (occupations, pattern modes and counts, element
    modes): Python ints of values of an int type (a numpy int too, not a bool) in
    [0, MAX_COUNT], so 2.0, True, 1.5, -1, "2", inf and None fail; length of them if given."""
    out = []
    for n in values:
        out.append(_as_count(n, 0, MAX_COUNT))
        if out[-1] is None:
            raise ValueError(f"expected non-negative integers, got {n!r}")
    key = tuple(out)
    if length is not None and len(key) != length:
        raise ValueError(f"occupation {key} has {len(key)} modes, expected {length}")
    return key


def count(what: str, value, lo: int = 0, hi: int | None = None) -> int:
    """The count rule for one value: value as a Python int if of an int type (a numpy int
    too, not a bool) in [lo, hi], hi MAX_COUNT if None; else ValueError naming what."""
    n = _as_count(value, lo, MAX_COUNT if hi is None else hi)
    if n is None:
        span = f">= {lo} in a float's range" if hi is None else f"in [{lo}, {hi}]"
        raise ValueError(f"{what} must be an integer {span}, got {value!r}")
    return n


class FockState:
    """Sparse bosonic state: a map occupation vector -> complex amplitude.

    The squared norm may be below 1 (heralded or lossy branches) but never
    above 1 + NORM_TOL.  The constructor checks every key it is given by the
    count rule; the package's own producers whose keys were checked already
    (evolve.apply, herald conditioning, scaled) pass them and an
    array of their values to _from_checked, which prunes and bounds alike.
    """

    __slots__ = ("_modes", "_amps")

    def __init__(self, mode_count: int, amplitudes: Mapping[Iterable[int], complex]):
        mode_count = count("mode_count", mode_count, lo=1)
        amps: dict[Occupation, complex] = {}
        for occ, amp in amplitudes.items():
            key = nonnegative_ints(occ, mode_count)
            value = complex(amp)
            if not abs(value) <= PRUNE_EPS:  # a NaN is kept, and fails the bound below
                amps[key] = amps.get(key, 0j) + value
        self._modes = mode_count
        self._amps = amps
        _check_norm(self.norm_squared())

    @classmethod
    def _from_checked(cls, mode_count: int, keys: Iterable[Occupation], values) -> "FockState":
        """The state of values on keys that passed the count rule, each once (a cached
        sector's or a state's), in their order.  v + 0j rounds as the constructor's
        0j + a (a zero part's sign too), a NaN fails the norm bound, and the pruned
        terms, each |v|^2 <= 1e-28, count in that numpy sum."""
        values = np.asarray(values, dtype=np.complex128) + 0j
        _check_norm(np.vdot(values, values).real)
        state = object.__new__(cls)
        state._modes = mode_count
        state._amps = {occ: a for occ, a in zip(keys, values.tolist()) if abs(a) > PRUNE_EPS}
        return state

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

    def photon_sectors(self) -> list[int]:
        """Sorted list of total photon numbers present in the state."""
        return sorted({sum(occ) for occ in self._amps})

    # -- algebra -----------------------------------------------------------

    def scaled(self, factor: complex) -> "FockState":
        scaled = [complex(a * factor) for a in self._amps.values()]
        return FockState._from_checked(self._modes, self._amps, scaled)

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
        """Reads the to_json_dict form, one term per occupation."""
        check_keys(data, "state", ("modes", "terms"))
        amps = {}
        for term in json_list("state terms", data["terms"]):
            check_keys(term, "state term", ("occ", "re", "im"))
            occ = nonnegative_ints(json_list("state term occ", term["occ"]))
            if occ in amps:
                raise ValueError(f"occupation {term['occ']!r} is given twice")
            if not (is_number(term["re"]) and is_number(term["im"])):
                raise ValueError(f"amplitude re, im of {term['occ']!r} must be finite numbers")
            amps[occ] = complex(term["re"], term["im"])
        return cls(data["modes"], amps)


def _check_norm(norm2: float) -> None:
    if not norm2 <= 1.0 + NORM_TOL:
        raise ValueError(f"state norm^2 = {norm2:.6g} is not a number <= 1")


def check_keys(data, what: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> dict:
    """The one JSON object rule: data as given if it is a dict that holds every
    required key and no key outside required and optional; else ValueError naming what."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {data!r}")
    missing = [key for key in required if key not in data]
    if missing:
        raise ValueError(f"{what} needs the key{'s' * (len(missing) > 1)} {', '.join(missing)}")
    allowed = dict.fromkeys(required + optional)
    unknown = ", ".join(sorted(repr(key) for key in data if key not in allowed))
    if unknown:
        raise ValueError(f"{what} takes only the keys {', '.join(allowed)}; got {unknown}")
    return data


def json_list(what: str, value) -> list:
    """The one JSON array rule: value as given if it is a list (or a tuple); else ValueError naming what."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{what} must be a list, got {value!r}")
    return value


def is_number(value) -> bool:
    """number's and probability's test: a Python or numpy int or float in a float's range, not a bool."""
    if isinstance(value, (int, float)):  # Python's own first, the common case
        return not isinstance(value, bool) and abs(value) <= sys.float_info.max
    return isinstance(value, (np.integer, np.floating)) and abs(float(value)) <= sys.float_info.max


def number(what: str, value):
    """The one rule for any other number: value as given if is_number passes it, naming what."""
    if not is_number(value):
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return value


def probability(what: str, value) -> float:
    """The one probability rule: value as a float in [0, 1]; a bool, a
    string, NaN or an infinity fails, naming what."""
    if not (is_number(value) and 0.0 <= value <= 1.0):
        raise ValueError(f"{what} must lie in [0, 1], got {value!r}")
    return float(value)


def probabilities(what: str, values: Iterable) -> list[float]:
    """The one sum-to-one rule: each value through probability, as a list of
    floats that sums to 1 within PROB_SUM_TOL; else ValueError naming what.
    A value above 1 by at most PROB_SUM_TOL, the rounding of a computed sure
    outcome such as |e^{i phi}|^2, is read as 1."""
    probs = [1.0 if is_number(p) and 1.0 < p <= 1.0 + PROB_SUM_TOL else probability(what, p)
             for p in values]
    total = sum(probs)
    if not abs(total - 1.0) <= PROB_SUM_TOL:
        raise ValueError(f"{what} sum to {total:.10g}, expected 1")
    return probs


def make_noon(n: int, m: int, alpha: float = 0.0) -> FockState:
    """Normalized |n::m> = (|n,m> + e^{i alpha} |m,n>) / sqrt(2) on two modes,
    n >= m >= 0 by the count rule, alpha a number.

    For n == m the superposition collapses to the single term |n,n>.
    """
    n = count("n", n)
    m = count("m", m, hi=n)
    number("alpha", alpha)
    if n == m:
        return FockState(2, {(n, n): 1.0})
    phase = complex(math.cos(alpha), math.sin(alpha))
    root_half = 1.0 / math.sqrt(2.0)
    return FockState(2, {(n, m): root_half, (m, n): phase * root_half})


def inner_product(a: FockState, b: FockState) -> complex:
    """<a|b>, antilinear in the first argument."""
    if a.mode_count != b.mode_count:
        raise ValueError("inner product requires equal mode counts")
    return sum((amp.conjugate() * b.amplitudes.get(occ, 0j) for occ, amp in a.amplitudes.items()), 0j)


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

    Yields C(n_photons + n_modes - 1, n_photons) vectors.  Stars and bars: the
    running totals c_1 <= ... <= c_{M-1} of the first modes are the bars, so
    each vector is the differences of (0, c, n_photons), and ascending bars
    give ascending vectors.  Both arguments are checked at the call.
    """
    n = count("n_photons", n_photons)
    modes = count("n_modes", n_modes, lo=1)
    end = (n,)
    return (tuple(map(sub, bars + end, (0,) + bars))
            for bars in combinations_with_replacement(range(n + 1), modes - 1))


def multinomial(n: int, probs: Sequence[float]) -> dict[Occupation, float]:
    """Distribution of n independent draws over len(probs) outcomes, keyed by
    count vector; vectors of probability zero are left out.  probs pass the
    sum-to-one rule, probabilities, or ValueError is raised."""
    probs = probabilities("multinomial probabilities", probs)
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
