"""Permanent kernel against a brute-force permutation oracle and against its
complex-power form, kept here as the reference for the power table."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noonchip import kernels
from noonchip.evolve import MAX_PHOTONS
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


def reference_repeated_permanents(u: np.ndarray, s, outputs) -> tuple[np.ndarray, np.ndarray]:
    """The kernel before its power table, in one chunk: complex powers
    row_sums ** t and a product over modes for every term.  Returns the
    permanents and, per output, the sum of the terms' magnitudes."""
    s, t = np.asarray(s), np.asarray(outputs)
    shape = tuple(int(n) + 1 for n in s)
    k = np.stack(np.unravel_index(np.arange(math.prod(shape)), shape), axis=1)
    pascal = np.array([[math.comb(n, j) for j in range(max(shape))] for n in range(max(shape))])
    weight = np.prod(pascal[s, k], axis=1) * (-1.0) ** k.sum(axis=1)
    row_sums = (s - 2 * k) @ u.T
    terms = weight[:, None] * np.prod(row_sums[:, None, :] ** t, axis=2)
    scale = 2.0 ** -int(s.sum())
    return terms.sum(axis=0) * scale, np.abs(terms).sum(axis=0) * scale


#: most prod(s_j + 1) terms x outputs per drawn case; keeps the whole test
#: under 2 s, and still admits every sector size (at most 3,003 outputs)
MAX_WORK = 40_000


def power_table_case(modes: int, s, seed: int, chunk_terms: int):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(modes, modes)) + 1j * rng.normal(size=(modes, modes))
    return u, tuple(s), list(basis_occupations(sum(s), modes)), chunk_terms


@st.composite
def power_table_cases(draw):
    """A full sector of up to MAX_PHOTONS photons on 2-6 modes, an input whose
    terms x outputs stay within MAX_WORK, a complex Gaussian matrix and a
    chunk length in terms."""
    modes = draw(st.integers(2, 6))
    outputs = list(basis_occupations(draw(st.integers(0, MAX_PHOTONS)), modes))
    inputs = [occ for occ in outputs if math.prod(n + 1 for n in occ) * len(outputs) <= MAX_WORK]
    s = draw(st.sampled_from(inputs))
    chunk_terms = draw(st.integers(1, max(1, math.prod(n + 1 for n in s) - 1)))
    return power_table_case(modes, s, draw(st.integers(0, 2**32 - 1)), chunk_terms)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(power_table_cases())
@example(power_table_case(6, (1,) * 6, 15, 7))  # the benchmark's 6-mode shape
@example(power_table_case(4, (0, 5, 5, 0), 15, 11))
@example(power_table_case(6, (0, 0, MAX_PHOTONS, 0, 0, 0), 15, 4))
def test_power_table_matches_complex_powers(case):
    u, s, outputs, chunk_terms = case
    expected, magnitude = reference_repeated_permanents(u, s, outputs)
    whole = kernels.repeated_permanents(u, s, outputs)
    # a full sector of two or more modes has more outputs than any t_i + 1, so
    # this bound puts chunk_terms terms in each chunk, splitting the sum
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "_CHUNK_ELEMENTS", chunk_terms * len(outputs) * len(s))
        chunked = kernels.repeated_permanents(u, s, outputs)
    for got in (whole, chunked):
        assert (np.abs(got - expected) <= 1e-12 * magnitude).all()


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
    # the int64 cast truncated (1.5, 0.5) to (1, 0): Per gave 0.7071 on a 50:50 coupler
    half = np.array([[1, 1j], [1j, 1]]) / math.sqrt(2)
    for s, t in (((1.5, 0.5), [(1, 0)]), ((1, 0), [(0.5, 0.5)]), ((math.nan, 1), [(1, 0)])):
        with pytest.raises(ValueError, match="non-negative integers"):
            kernels.repeated_permanents(half, s, t)
    whole = kernels.repeated_permanents(half, (1.0, 0.0), np.array([[1, 0]]))
    assert whole[0] == pytest.approx(0.5**0.5)
