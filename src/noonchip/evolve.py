"""State evolution through a compiled mode transformation.

Two independent routes are provided on purpose:

* `apply` expands the input's creation-operator polynomial term by term,
  substituting a_k^dag -> sum_j U[j, k] a_j^dag and collecting monomials.
* `amplitude` and `output_distribution` evaluate matrix elements
  <t|U|s> = Per(U[t, s]) / sqrt(prod s_i! prod t_j!), with U[t, s] the
  row/column repeated matrix, through kernels.repeated_permanents, a sum
  over column multiplicities in Glynn's signed form.

They share no code beyond the matrix itself, so they cross-check each other.
Occupations given to amplitude, output_distribution and sample_output_counts
go through fock.nonnegative_ints, so 1.5 photons fail rather than count as 1.
Exact amplitude arithmetic throughout; global phase is never normalized away.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from . import kernels
from .fock import FockState, Occupation, basis_occupations, nonnegative_ints

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
    u = np.asarray(matrix, dtype=np.complex128)
    eye = np.eye(u.shape[0])
    return bool(np.max(np.abs(u.conj().T @ u - eye)) <= tol)


def apply(matrix: np.ndarray, state: FockState) -> FockState:
    """Evolves a state by polynomial expansion of its creation operators.

    Loss must be pre-expanded into environment modes; non-unitary matrices
    are rejected.
    """
    u = _check_matrix(matrix, state.mode_count)
    if not is_unitary(u):
        raise NonUnitaryError("matrix is not unitary; expand loss taps into environment modes first")

    modes = state.mode_count
    out: dict[Occupation, complex] = {}
    for occ, amp in state.amplitudes.items():
        _check_photon_cap(sum(occ))
        # |occ> = prod_k (a_k^dag)^{s_k} / sqrt(s_k!) |vac>
        start = amp / math.sqrt(math.prod(math.factorial(s) for s in occ))
        poly: dict[Occupation, complex] = {(0,) * modes: start}
        for k, s_k in enumerate(occ):
            column = u[:, k]
            for _ in range(s_k):
                poly = _raise_mode(poly, column)
        for target, coeff in poly.items():
            value = coeff * math.sqrt(math.prod(math.factorial(t) for t in target))
            out[target] = out.get(target, 0j) + value
    return FockState(modes, out)


def _raise_mode(poly: dict[Occupation, complex], column: np.ndarray) -> dict[Occupation, complex]:
    """Multiplies the monomial sum by sum_j column[j] a_j^dag."""
    result: dict[Occupation, complex] = {}
    nonzero = [(j, column[j]) for j in range(len(column)) if column[j] != 0]
    for occ, coeff in poly.items():
        for j, weight in nonzero:
            bumped = occ[:j] + (occ[j] + 1,) + occ[j + 1 :]
            result[bumped] = result.get(bumped, 0j) + coeff * weight
    return result


#: n! as floats for n <= MAX_PHOTONS; every product of them that a norm takes
#: is an integer below 2^53, so it is exact and its sqrt is math.sqrt's
_FACTORIALS = np.array([float(math.factorial(n)) for n in range(MAX_PHOTONS + 1)])


def _norms(s: Occupation, t: np.ndarray) -> np.ndarray:
    """sqrt(prod s_j! prod t_j!) for each row t."""
    return np.sqrt(_FACTORIALS[t].prod(axis=1) * _FACTORIALS[list(s)].prod())


def _amplitudes(u: np.ndarray, s: Occupation, outputs: list[Occupation]) -> np.ndarray:
    """<t|U|s> for every output t holding as many photons as s."""
    t = np.array(outputs)
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
    return complex(_amplitudes(u, s, [t])[0])


def output_distribution(matrix: np.ndarray, input_occ: Iterable[int]) -> dict[Occupation, float]:
    """|<t|U|s>|^2 over the full output sector, via the permanent route."""
    u = _check_matrix(matrix)
    s = nonnegative_ints(input_occ, u.shape[1])
    _check_photon_cap(sum(s))
    outputs = list(basis_occupations(sum(s), u.shape[0]))
    probs = np.abs(_amplitudes(u, s, outputs)) ** 2
    return {t: float(p) for t, p in zip(outputs, probs) if p > 0.0}


# -- sampling ----------------------------------------------------------------


def derived_rng(seed: int) -> np.random.Generator:
    """Deterministic stream for a root seed.

    Built as SeedSequence(seed, spawn_key=(0,)); a fixed seed gives the same
    draws in every run.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))


def sample_output_counts(
    matrix: np.ndarray, input_occ: Iterable[int], rng_seed: int, shots: int
) -> tuple[list[Occupation], np.ndarray]:
    """Histogram of output occupations over the given number of draws."""
    dist = output_distribution(matrix, input_occ)
    occs = sorted(dist)
    probs = np.array([dist[o] for o in occs])
    total = probs.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"output probabilities sum to {total:.12g}, expected 1")
    rng = derived_rng(rng_seed)
    draws = rng.choice(len(occs), size=shots, p=probs / total)
    counts = np.bincount(draws, minlength=len(occs))
    return occs, counts
