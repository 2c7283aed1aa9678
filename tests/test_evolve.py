"""Dual evolution engines: polynomial expansion and permanent transitions."""

import math

import numpy as np
import pytest
from scipy.stats import unitary_group

from noonchip.circuit import ChipParams, dc_matrix
from noonchip.evolve import (
    MAX_PHOTONS,
    NonUnitaryError,
    amplitude,
    apply,
    is_unitary,
    output_distribution,
    sample_output_counts,
)
from noonchip.fock import FockState, basis_occupations, inner_product


def random_state(rng, n_photons, n_modes):
    occs = list(basis_occupations(n_photons, n_modes))
    amps = rng.normal(size=len(occs)) + 1j * rng.normal(size=len(occs))
    amps /= np.linalg.norm(amps)
    return FockState(n_modes, dict(zip(occs, amps)))


def test_two_photon_interference_cancels_coincidence():
    u = dc_matrix(0.5)
    assert abs(amplitude(u, (1, 1), (1, 1))) < 1e-12
    out = apply(u, FockState.basis_state((1, 1)))
    r = 1j / math.sqrt(2.0)
    assert abs(out.amplitude((2, 0)) - r) < 1e-12
    assert abs(out.amplitude((0, 2)) - r) < 1e-12
    assert abs(out.amplitude((1, 1))) < 1e-12


def test_twin_pair_coincidence_amplitude():
    assert amplitude(dc_matrix(0.5), (2, 2), (2, 2)) == pytest.approx(-0.5, abs=1e-12)


# balanced-coupler expansions of twin Fock inputs: a single global phase
# multiplies an all-positive coefficient set
TWIN_EXPANSIONS = {
    (2, 2): {
        (4, 0): math.sqrt(3 / 8),
        (2, 2): 0.5,
        (0, 4): math.sqrt(3 / 8),
    },
    (3, 3): {
        (6, 0): math.sqrt(5 / 16),
        (4, 2): math.sqrt(3 / 16),
        (2, 4): math.sqrt(3 / 16),
        (0, 6): math.sqrt(5 / 16),
    },
    (4, 4): {
        (8, 0): math.sqrt(35 / 128),
        (6, 2): math.sqrt(5 / 32),
        (4, 4): 0.375,
        (2, 6): math.sqrt(5 / 32),
        (0, 8): math.sqrt(35 / 128),
    },
}


@pytest.mark.parametrize("occ_in", sorted(TWIN_EXPANSIONS))
def test_twin_fock_expansion_coefficients(occ_in):
    expected = TWIN_EXPANSIONS[occ_in]
    out = apply(dc_matrix(0.5), FockState.basis_state(occ_in))
    got = dict(out.items())
    assert set(got) == set(expected)
    # factor out the one global phase, then compare term by term
    anchor = next(iter(sorted(expected)))
    phase = got[anchor] / abs(got[anchor])
    assert abs(abs(phase) - 1.0) < 1e-12
    for occ, coeff in expected.items():
        assert abs(got[occ] / phase - coeff) < 1e-12


def test_apply_preserves_norm_on_random_unitaries():
    rng = np.random.default_rng(23)
    for _ in range(30):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(1, 5))
        u = unitary_group.rvs(m, random_state=rng)
        out = apply(u, random_state(rng, n, m))
        assert out.norm_squared() == pytest.approx(1.0, abs=1e-12)


def test_apply_composition():
    rng = np.random.default_rng(31)
    for _ in range(10):
        m = int(rng.integers(2, 5))
        u = unitary_group.rvs(m, random_state=rng)
        v = unitary_group.rvs(m, random_state=rng)
        s = random_state(rng, 3, m)
        once = apply(u @ v, s)
        twice = apply(u, apply(v, s))
        assert once.allclose(twice, tol=1e-11)


def test_engines_agree_on_random_unitaries():
    rng = np.random.default_rng(43)
    for _ in range(40):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(0, 5))
        u = unitary_group.rvs(m, random_state=rng) if m > 1 else np.array([[np.exp(1j * rng.uniform(0, 2 * np.pi))]])
        occ = [0] * m
        for _ in range(n):
            occ[int(rng.integers(0, m))] += 1
        occ = tuple(occ)
        expanded = apply(u, FockState.basis_state(occ))
        for target in basis_occupations(n, m):
            d = abs(expanded.amplitude(target) - amplitude(u, occ, target))
            assert d < 1e-10


def test_transition_photon_number_mismatch_is_zero():
    u = dc_matrix(0.5)
    assert amplitude(u, (1, 1), (1, 0)) == 0j
    assert amplitude(u, (0, 0), (0, 1)) == 0j


def test_vacuum_transition_is_unity():
    u = unitary_group.rvs(3, random_state=np.random.default_rng(5))
    assert amplitude(u, (0, 0, 0), (0, 0, 0)) == pytest.approx(1.0 + 0j)


def test_global_phase_scales_by_photon_number():
    theta = 0.917
    u = np.exp(1j * theta) * np.eye(2)
    for n in range(5):
        got = amplitude(u, (n, 0), (n, 0))
        assert abs(got - np.exp(1j * n * theta)) < 1e-12


def test_transition_query_validates_shapes():
    u = dc_matrix(0.5)
    with pytest.raises(ValueError):
        amplitude(u, (1, 1, 0), (1, 1))
    with pytest.raises(ValueError):
        amplitude(u, (1, -1), (0, 0))
    # 1.5 photons were read as 1, giving the (0, 1, 1, 0) amplitude
    with pytest.raises(ValueError, match="non-negative integers, got 1.5"):
        amplitude(ChipParams().matrix(), (0, 1.5, 1.5, 0), (0, 1, 1, 0))


def test_photon_cap():
    u = dc_matrix(0.5)
    over = (MAX_PHOTONS + 1, 0)
    with pytest.raises(ValueError):
        apply(u, FockState.basis_state(over))
    with pytest.raises(ValueError):
        amplitude(u, over, over)


def test_non_unitary_rejected_by_expansion_engine():
    bad = np.array([[1.0, 0.0], [0.0, 0.5]])
    assert not is_unitary(bad)
    with pytest.raises(NonUnitaryError):
        apply(bad, FockState.basis_state((1, 0)))
    # the permanent route is a raw matrix functional; it accepts any square
    # matrix so loss-tap submatrices stay computable
    assert amplitude(bad, (0, 1), (0, 1)) == pytest.approx(0.5)


def test_non_finite_matrix_rejected():
    for bad in (np.full((2, 2), np.nan), np.array([[np.inf, 0.0], [0.0, 1.0]])):
        with pytest.raises(ValueError) as info:
            output_distribution(bad, (1, 1))
        assert not isinstance(info.value, NonUnitaryError)
        with pytest.raises(ValueError):
            amplitude(bad, (1, 1), (1, 1))
        with pytest.raises(ValueError) as info:
            apply(bad, FockState.basis_state((1, 1)))
        assert not isinstance(info.value, NonUnitaryError)


def test_output_distribution_validates_input():
    u = dc_matrix(0.5)
    with pytest.raises(ValueError):
        output_distribution(u, (1, 1, 0))
    with pytest.raises(ValueError):
        output_distribution(u, (2, -1))
    # both returned the (0, 1, 1, 0) statistics: 1.5 photons were read as 1
    chip = ChipParams().matrix()
    for draw in (lambda occ: output_distribution(chip, occ),
                 lambda occ: sample_output_counts(chip, occ, rng_seed=1, shots=10)):
        with pytest.raises(ValueError, match="non-negative integers, got 1.5"):
            draw((0, 1.5, 1.5, 0))


def test_output_distribution_sums_to_one():
    rng = np.random.default_rng(3)
    u = unitary_group.rvs(4, random_state=rng)
    dist = output_distribution(u, (1, 2, 0, 1))
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)
    assert all(sum(occ) == 4 for occ in dist)


def test_output_distribution_matches_chip_herald_rate():
    dist = output_distribution(ChipParams().matrix(), (0, 2, 2, 0))
    # herald pattern (1, x, y, 1) mass equals the two-pair herald rate
    mass = sum(p for occ, p in dist.items() if occ[0] == 1 and occ[3] == 1)
    assert mass == pytest.approx(4 / 81, abs=1e-12)


def test_sampling_is_deterministic_per_seed():
    u = ChipParams().matrix()
    a = sample_output_counts(u, (0, 2, 2, 0), rng_seed=9, shots=500)
    b = sample_output_counts(u, (0, 2, 2, 0), rng_seed=9, shots=500)
    assert a[0] == b[0]
    assert np.array_equal(a[1], b[1])
    c = sample_output_counts(u, (0, 2, 2, 0), rng_seed=10, shots=500)
    assert not np.array_equal(a[1], c[1])


def test_sampling_matches_distribution():
    u = ChipParams().matrix()
    shots = 20000
    occs, counts = sample_output_counts(u, (0, 2, 2, 0), rng_seed=77, shots=shots)
    dist = output_distribution(u, (0, 2, 2, 0))
    emp = {occ: c / shots for occ, c in zip(occs, counts)}
    tv = 0.5 * sum(abs(emp.get(o, 0.0) - p) for o, p in dist.items())
    tv += 0.5 * sum(p for o, p in emp.items() if o not in dist)
    assert tv < 0.02


def test_big_unitary_energy_conservation():
    # photons in equals photons out for every populated term
    rng = np.random.default_rng(8)
    u = unitary_group.rvs(5, random_state=rng)
    out = apply(u, FockState.basis_state((2, 0, 1, 0, 1)))
    assert out.photon_sectors() == [4]
    assert out.norm_squared() == pytest.approx(1.0, abs=1e-12)


def test_inner_product_invariance():
    rng = np.random.default_rng(12)
    u = unitary_group.rvs(3, random_state=rng)
    a = random_state(rng, 3, 3)
    b = random_state(rng, 3, 3)
    before = inner_product(a, b)
    after = inner_product(apply(u, a), apply(u, b))
    assert abs(before - after) < 1e-11
