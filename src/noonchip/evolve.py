"""State evolution through a compiled mode transformation.

Two independent routes are provided on purpose:

* `apply` expands the input's creation-operator polynomial term by term,
  substituting a_k^dag -> sum_j U[j, k] a_j^dag.  The monomials of n photons
  are one dense vector over fock.basis_occupations' n-photon sector, and one
  raise is a gather through a ladder table (the index of t - e_j in the
  sector below, built once per photon number and mode count) times U[:, k].
* `amplitude` and `output_distribution` evaluate matrix elements
  <t|U|s> = Per(U[t, s]) / sqrt(prod s_i! prod t_j!), with U[t, s] the
  row/column repeated matrix, through kernels.repeated_permanents, a sum
  over column multiplicities in Glynn's signed form.

They share no code beyond the matrix and fock's sector enumeration, and no
arithmetic, so they cross-check each other.
Occupations given to amplitude, output_distribution and sample_output_counts
go through fock.nonnegative_ints, and its seed and shot count through
fock.count, so 1.5 photons fail rather than count as 1.
Exact amplitude arithmetic throughout; global phase is never normalized away.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable

import numpy as np

from . import kernels
from .fock import FockState, Occupation, basis_occupations, count, nonnegative_ints, probabilities

#: hard cap: exact simulation beyond this photon number is out of scope
MAX_PHOTONS = 10

UNITARY_TOL = 1e-10


class NonUnitaryError(ValueError):
    """Raised when a transformation is not unitary within tolerance."""


def _check_matrix(matrix: np.ndarray, mode_count: int | None = None) -> np.ndarray:
    u = np.asarray(matrix, dtype=np.complex128)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {u.shape}")
    if mode_count is not None and u.shape[0] != mode_count:
        raise ValueError(f"matrix is {u.shape[0]}-mode but the state has {mode_count} modes")
    if not np.isfinite(u).all():
        raise ValueError("matrix has non-finite entries")
    return u


def _check_photon_cap(n: int) -> None:
    if n > MAX_PHOTONS:
        raise ValueError(f"{n} photons exceeds the supported maximum of {MAX_PHOTONS}")


def is_unitary(matrix: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    """Whether matrix is a square 2-D U with |U^dag U - 1| <= tol entrywise, 1 taken off in place."""
    u = np.asarray(matrix, dtype=np.complex128)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    gram = u.conj().T @ u
    gram.reshape(-1)[:: len(gram) + 1] -= 1
    return bool(np.abs(gram).max(initial=0.0) <= tol)


def apply(matrix: np.ndarray, state: FockState) -> FockState:
    """Evolves a state by polynomial expansion of its creation operators.

    Loss must be pre-expanded into environment modes; non-unitary matrices
    are rejected.
    """
    u = _check_matrix(matrix, state.mode_count)
    if not is_unitary(u):
        raise NonUnitaryError("matrix is not unitary; expand loss taps into environment modes first")
    for occ in state.amplitudes:
        _check_photon_cap(sum(occ))

    modes = state.mode_count
    sectors: dict[int, np.ndarray] = {}
    for occ, amp in state.amplitudes.items():
        n = sum(occ)
        lower, norms = _ladder(n, modes)
        # |occ> = prod_k (a_k^dag)^{s_k} / sqrt(s_k!) |vac>, one raise per photon:
        # the coefficient of t after raising by sum_j U[j, k] a_j^dag sums
        # U[j, k] times the coefficient of t - e_j, or 0 where t_j = 0
        poly = np.array([amp / math.sqrt(math.prod(math.factorial(s) for s in occ))])
        level = 0
        for k, s_k in enumerate(occ):
            for _ in range(s_k):
                level += 1
                poly = np.append(poly, 0)[lower[level]] @ u[:, k]
        sectors[n] = sectors.get(n, 0) + poly * norms
    keys = [occ for n in sectors for occ in _sector(n, modes)[0]]  # checked by the count rule
    return FockState._from_checked(modes, keys, np.concatenate([*sectors.values(), []]))  # [] if empty


@functools.cache
def _ladder(n_photons: int, modes: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """apply's raise tables for n_photons on modes, built on first use.

    Over the sectors of _sector: for each level n in 0..n_photons, the
    (D_n x modes) index of t - e_j in level n - 1, or D_{n-1} (a pad entry
    appended to the level's coefficients) where t_j = 0; and sqrt(prod t_j!)
    for each t of the top level.
    """
    basis = _sector(n_photons, modes)[0]
    if n_photons == 0:
        lower = ()
        table = np.zeros((1, modes), dtype=np.intp)
    else:
        lower = _ladder(n_photons - 1, modes)[0]
        below = {occ: i for i, occ in enumerate(_sector(n_photons - 1, modes)[0])}
        table = np.full((len(basis), modes), len(below), dtype=np.intp)
        for i, t in enumerate(basis):
            for j in range(modes):
                if t[j]:
                    table[i, j] = below[t[:j] + (t[j] - 1,) + t[j + 1 :]]
    norms = np.array([math.sqrt(math.prod(math.factorial(x) for x in t)) for t in basis])
    table.flags.writeable = norms.flags.writeable = False  # shared by every call
    return lower + (table,), norms


@functools.cache
def _sector(n_photons: int, modes: int) -> tuple[tuple[Occupation, ...], np.ndarray]:
    """The n-photon outputs on modes, as fock.basis_occupations orders them,
    and the same as a read-only int array."""
    outputs = tuple(basis_occupations(n_photons, modes))
    rows = np.array(outputs, dtype=np.int64)
    rows.flags.writeable = False
    return outputs, rows


#: n! as floats for n <= MAX_PHOTONS; every product of them that a norm takes
#: is an integer below 2^53, so it is exact and its sqrt is math.sqrt's
_FACTORIALS = np.array([float(math.factorial(n)) for n in range(MAX_PHOTONS + 1)])


def _norms(s: Occupation, t: np.ndarray) -> np.ndarray:
    """sqrt(prod s_j! prod t_j!) for each row t."""
    return np.sqrt(_FACTORIALS[t].prod(axis=1) * _FACTORIALS[list(s)].prod())


def _amplitudes(u: np.ndarray, s: Occupation, t: np.ndarray) -> np.ndarray:
    """<t|U|s> for every output row t holding as many photons as s."""
    return kernels.repeated_permanents(u, s, t) / _norms(s, t)


def amplitude(matrix: np.ndarray, input_occ: Iterable[int], output_occ: Iterable[int]) -> complex:
    """<t|U|s> via the permanent of the row/column repeated matrix.

    Photon-number mismatch between input and output gives amplitude 0.
    """
    u = _check_matrix(matrix)
    s = nonnegative_ints(input_occ, u.shape[1])
    t = nonnegative_ints(output_occ, u.shape[0])
    _check_photon_cap(max(sum(s), sum(t)))
    if sum(s) != sum(t):
        return 0j
    return complex(_amplitudes(u, s, np.array([t]))[0])


def output_distribution(matrix: np.ndarray, input_occ: Iterable[int]) -> dict[Occupation, float]:
    """|<t|U|s>|^2 over the full output sector, via the permanent route."""
    u = _check_matrix(matrix)
    s = nonnegative_ints(input_occ, u.shape[1])
    _check_photon_cap(sum(s))
    outputs, t = _sector(sum(s), u.shape[0])
    probs = np.abs(_amplitudes(u, s, t)) ** 2
    return {occ: p for occ, p in zip(outputs, probs.tolist()) if p > 0.0}


# -- sampling ----------------------------------------------------------------


def derived_rng(seed: int) -> np.random.Generator:
    """Deterministic stream for a root seed.

    Built as SeedSequence(seed, spawn_key=(0,)); a fixed seed gives the same
    draws in every run.  The seed is a count, so None, True, 1.0 and -1 fail
    rather than draw from OS entropy or stand for another seed.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=count("seed", seed), spawn_key=(0,)))


def sample_output_counts(
    matrix: np.ndarray, input_occ: Iterable[int], rng_seed: int, shots: int
) -> tuple[list[Occupation], np.ndarray]:
    """Histogram of output occupations over the given number of draws."""
    shots = count("shots", shots)
    rng = derived_rng(rng_seed)
    dist = output_distribution(matrix, input_occ)
    occs = sorted(dist)
    probs = np.array([dist[o] for o in occs])
    probabilities("output probabilities", probs.tolist())
    draws = rng.choice(len(occs), size=shots, p=probs / probs.sum())
    counts = np.bincount(draws, minlength=len(occs))
    return occs, counts
