"""Permanents of matrices with repeated rows and columns.

Per(U[t, s]) is the permanent of U with row i repeated t_i times and column
j repeated s_j times.  Summing Ryser's formula over column multiplicities
0 <= k_j <= s_j (Ryser 1963; Chin & Huh, Sci. Rep. 8, 6101 (2018)), here in
Glynn's signed form (Eur. J. Combin. 31, 1887 (2010)), gives

    Per(U[t, s]) = 2^-N sum_k (-1)^|k| prod_j C(s_j, k_j)
                   prod_i (sum_j (s_j - 2 k_j) U[i, j])^t_i,   N = sum(s) = sum(t)

with prod_j (s_j + 1) terms, each serving every output t at once.  Glynn's
row sums are centred on zero, which keeps rounding near 1e-16 in the
probabilities; Ryser's one-sided sums lose about three digits at ten photons.

The integer powers come from a power table: for each chunk of terms,
powers[e, i, k] = (row sum i of term k)^e for e = 0..max(t), built by max(t)
repeated products.  The product over modes gathers powers[t[:, i], i] one
mode at a time, so no complex power is taken, and one matrix-vector product
with the signed binomial weights sums the terms for every output.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

#: the single implementation; kept as a constant for run reports
BACKEND = "python"

#: complex entries held per term chunk, bounding peak memory
_CHUNK_ELEMENTS = 1 << 16


def repeated_permanents(
    matrix: np.ndarray, input_occ: Sequence[int], output_occs: Sequence[Sequence[int]] | np.ndarray
) -> np.ndarray:
    """Per(U[t, s]) for every output occupation t, as a complex array.

    Every t must hold the same photon number as s.  The terms are summed in
    chunks of multiplicity vectors k, so memory stays O((outputs + max t) x modes).
    """
    u = np.asarray(matrix, dtype=np.complex128)
    s, t = np.asarray(input_occ), np.asarray(output_occs)
    if u.ndim != 2 or s.shape != (u.shape[1],) or t.ndim != 2 or t.shape[1] != u.shape[0]:
        raise ValueError(f"occupations do not fit a matrix of shape {u.shape}")
    if s.dtype.kind not in "iu" or t.dtype.kind not in "iu" or (s < 0).any() or (t < 0).any():
        raise ValueError("occupation numbers must be non-negative integers")
    photons = int(s.sum())
    if (t.sum(axis=1) != photons).any():
        raise ValueError("every output must hold as many photons as the input")
    if photons == 0:
        return np.ones(len(t), dtype=np.complex128)

    shape = tuple(int(n) + 1 for n in s)
    terms = math.prod(shape)
    pascal = np.array([[math.comb(n, k) for k in range(max(shape))] for n in range(max(shape))])
    top = int(t.max(initial=0))
    # the power table and the products each hold at most _CHUNK_ELEMENTS entries
    chunk = max(1, _CHUNK_ELEMENTS // (max(len(t), top + 1) * t.shape[1]))
    total = np.zeros(len(t), dtype=np.complex128)
    for start in range(0, terms, chunk):
        k = np.stack(np.unravel_index(np.arange(start, min(start + chunk, terms)), shape), axis=1)
        weight = np.prod(pascal[s, k], axis=1) * (-1.0) ** k.sum(axis=1)
        row_sums = u @ (s - 2 * k).T
        powers = np.empty((top + 1,) + row_sums.shape, dtype=np.complex128)
        powers[0] = 1.0
        for e in range(1, top + 1):
            np.multiply(powers[e - 1], row_sums, out=powers[e])
        products = powers[t[:, 0], 0]
        for i in range(1, t.shape[1]):
            products *= powers[t[:, i], i]
        total += products @ weight
    return total / 2.0**photons


def permanent(matrix: np.ndarray) -> complex:
    """Permanent of a square complex matrix: every multiplicity one."""
    a = np.asarray(matrix, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] > 30:
        raise ValueError("matrix too large for exact permanent")
    ones = np.ones(a.shape[0], dtype=np.int64)  # an int array even at size 0
    return complex(repeated_permanents(a, ones, [ones])[0])
