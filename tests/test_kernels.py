"""Permanent kernel against a brute-force permutation oracle."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noonchip import kernels
from noonchip.fock import basis_occupations


def permanent_by_permutations(a: np.ndarray) -> complex:
    # O(n! n) reference; only viable for tiny n, which is the point
    n = a.shape[0]
    total = 0j
    for perm in itertools.permutations(range(n)):
        prod = 1.0 + 0j
        for i, j in enumerate(perm):
            prod *= a[i, j]
        total += prod
    return total


def repeated_submatrix(u: np.ndarray, s, t) -> np.ndarray:
    """U[t, s] written out: row i repeated t_i times, column j s_j times."""
    rows = np.repeat(np.arange(u.shape[0]), t)
    cols = np.repeat(np.arange(u.shape[1]), s)
    return u[np.ix_(rows, cols)]


def test_against_permutation_oracle():
    rng = np.random.default_rng(101)
    for n in range(1, 6):
        for _ in range(20):
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            ref = permanent_by_permutations(a)
            got = kernels.permanent(a)
            assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref)), n


def test_empty_matrix_is_one():
    assert kernels.permanent(np.zeros((0, 0), dtype=np.complex128)) == 1.0 + 0j


def test_identity_and_ones():
    for n in range(1, 8):
        assert abs(kernels.permanent(np.eye(n)) - 1.0) < 1e-12
        ones = np.ones((n, n), dtype=np.complex128)
        assert abs(kernels.permanent(ones) - math.factorial(n)) < 1e-9 * math.factorial(n)


def test_wrapper_validates_and_coerces():
    with pytest.raises(ValueError):
        kernels.permanent(np.ones((2, 3)))
    # real input is accepted and coerced to complex
    assert kernels.permanent(np.eye(3)) == pytest.approx(1.0)


def test_size_cap():
    with pytest.raises(ValueError):
        kernels.permanent(np.eye(31))


def test_backend_constant_exposed():
    assert kernels.BACKEND == "python"


def test_row_expansion_recursion():
    # permanent satisfies Laplace-style expansion along the first row
    rng = np.random.default_rng(9)
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    expanded = 0j
    for j in range(5):
        minor = np.delete(np.delete(a, 0, 0), j, 1)
        expanded += a[0, j] * kernels.permanent(minor)
    assert abs(kernels.permanent(a) - expanded) < 1e-10


@st.composite
def repeated_cases(draw):
    """A complex m x m matrix, an input s and an output t, at most 5 photons."""
    modes = draw(st.integers(1, 4))
    photons = draw(st.integers(0, 5))
    sector = list(basis_occupations(photons, modes))
    s = draw(st.sampled_from(sector))
    t = draw(st.sampled_from(sector))
    parts = st.floats(-1.0, 1.0, allow_nan=False)
    flat = draw(st.lists(parts, min_size=2 * modes * modes, max_size=2 * modes * modes))
    u = (np.array(flat[::2]) + 1j * np.array(flat[1::2])).reshape(modes, modes)
    return u, s, t


@settings(max_examples=200, deadline=None)
@given(repeated_cases())
def test_repeated_permanent_matches_explicit_submatrix(case):
    u, s, t = case
    sub = repeated_submatrix(u, s, t)
    ref = permanent_by_permutations(sub)
    # the permanent of |sub| bounds every partial sum of the oracle
    scale = max(1.0, abs(permanent_by_permutations(np.abs(sub))))
    got = kernels.repeated_permanents(u, s, [t])[0]
    assert abs(got - ref) <= 1e-12 * scale


def test_repeated_permanents_cover_a_sector_in_one_call():
    rng = np.random.default_rng(4)
    u = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    s = (2, 0, 2)
    outputs = list(basis_occupations(4, 3))
    got = kernels.repeated_permanents(u, s, outputs)
    assert got.shape == (len(outputs),)
    for t, value in zip(outputs, got):
        ref = permanent_by_permutations(repeated_submatrix(u, s, t))
        assert abs(value - ref) <= 1e-10 * max(1.0, abs(ref))


def test_chunked_sum_matches_single_chunk(monkeypatch):
    rng = np.random.default_rng(6)
    u = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    s = (0, 3, 2, 1)
    outputs = list(basis_occupations(6, 4))
    whole = kernels.repeated_permanents(u, s, outputs)
    # one multiplicity vector per chunk: 48 chunks for this input
    monkeypatch.setattr(kernels, "_CHUNK_ELEMENTS", 1)
    chunked = kernels.repeated_permanents(u, s, outputs)
    assert np.allclose(chunked, whole, rtol=1e-12, atol=1e-12 * np.abs(whole).max())


def test_repeated_permanents_validate_occupations():
    u = np.eye(2)
    with pytest.raises(ValueError):
        kernels.repeated_permanents(u, (1, 1, 0), [(1, 1)])
    with pytest.raises(ValueError):
        kernels.repeated_permanents(u, (1, 1), [(1, 1, 0)])
    with pytest.raises(ValueError):
        kernels.repeated_permanents(u, (2, -1), [(1, 0)])
    with pytest.raises(ValueError):
        kernels.repeated_permanents(u, (1, 1), [(2, 1)])  # photon numbers differ
