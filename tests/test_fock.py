"""Sparse Fock-state container, NOON construction, and basis enumeration."""

import json
import math

import numpy as np
import pytest

from noonchip.fock import (
    FockState,
    NoonSpec,
    basis_occupations,
    inner_product,
    make_noon,
    marginal_distribution,
    multinomial,
    state_fidelity,
    tensor,
)


def test_basis_state_single_term():
    s = FockState.basis_state((0, 2, 2, 0))
    assert s.mode_count == 4
    assert s.amplitude((0, 2, 2, 0)) == 1.0 + 0j
    assert s.amplitude((2, 0, 0, 2)) == 0j
    assert s.norm_squared() == pytest.approx(1.0, abs=1e-15)


def test_vacuum():
    v = FockState.vacuum(3)
    assert v.items() == [((0, 0, 0), 1.0 + 0j)]
    assert v.photon_sectors() == [0]


def test_constructor_validation():
    with pytest.raises(ValueError):
        FockState(2, {(1,): 1.0})  # wrong tuple length
    with pytest.raises(ValueError):
        FockState(2, {(1, -1): 1.0})  # negative occupation
    with pytest.raises(ValueError):
        FockState(2, {(1, 0): 1.2})  # norm^2 > 1 + tol


def test_pruning_below_epsilon():
    s = FockState(1, {(0,): 1.0, (1,): 1e-15})
    assert s.amplitude((1,)) == 0j
    assert len(s.items()) == 1


def test_items_sorted_lexicographically():
    s = FockState(2, {(2, 0): 0.5, (0, 2): 0.5, (1, 1): 0.5})
    occs = [occ for occ, _ in s.items()]
    assert occs == sorted(occs)


def test_norm_and_normalized():
    s = FockState(2, {(1, 0): 0.3, (0, 1): 0.4})
    assert s.norm() == pytest.approx(0.5, abs=1e-15)
    n = s.normalized()
    assert n.norm_squared() == pytest.approx(1.0, abs=1e-14)
    assert n.amplitude((1, 0)) == pytest.approx(0.6)


def test_photon_sectors():
    s = FockState(2, {(0, 0): 0.5, (1, 1): 0.5, (2, 2): 0.5})
    assert s.photon_sectors() == [0, 2, 4]


def test_immutable_amplitudes_view():
    s = FockState.basis_state((1, 0))
    with pytest.raises(TypeError):
        s.amplitudes[(0, 1)] = 1.0


def test_make_noon_four_photon_pi():
    spec = NoonSpec(n=4, m=0, alpha=math.pi)
    s = make_noon(spec)
    r = 1.0 / math.sqrt(2.0)
    assert abs(s.amplitude((4, 0)) - r) < 1e-15
    assert abs(s.amplitude((0, 4)) + r) < 1e-15
    assert s.norm_squared() == pytest.approx(1.0, abs=1e-15)


def test_make_noon_unbalanced_pair():
    s = make_noon(NoonSpec(n=3, m=1))
    r = 1.0 / math.sqrt(2.0)
    assert abs(s.amplitude((3, 1)) - r) < 1e-15
    assert abs(s.amplitude((1, 3)) - r) < 1e-15


def test_make_noon_equal_indices_single_term():
    # n == m collapses to one basis vector; no double counting
    s = make_noon(NoonSpec(n=2, m=2))
    assert s.items() == [((2, 2), 1.0 + 0j)]


def test_noon_spec_validation():
    with pytest.raises(ValueError):
        NoonSpec(n=1, m=2)
    with pytest.raises(ValueError):
        NoonSpec(n=-1, m=0)


def test_tensor_product():
    a = FockState(1, {(0,): 1 / math.sqrt(2), (1,): 1 / math.sqrt(2)})
    b = FockState.basis_state((2,))
    t = tensor(a, b)
    assert t.mode_count == 2
    assert t.amplitude((0, 2)) == pytest.approx(1 / math.sqrt(2))
    assert t.amplitude((1, 2)) == pytest.approx(1 / math.sqrt(2))
    assert t.norm_squared() == pytest.approx(1.0, abs=1e-14)


def test_inner_product_antilinear_first_argument():
    a = FockState(1, {(0,): 1j})
    b = FockState(1, {(0,): 1.0})
    assert inner_product(a, b) == pytest.approx(-1j)
    assert inner_product(b, a) == pytest.approx(1j)


def test_inner_product_orthogonal():
    a = FockState.basis_state((2, 0))
    b = FockState.basis_state((0, 2))
    assert inner_product(a, b) == 0j


def test_state_fidelity_phase_invariant():
    rng = np.random.default_rng(7)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps /= np.linalg.norm(amps)
    occs = [(0, 2), (1, 1), (2, 0), (0, 0)]
    a = FockState(2, dict(zip(occs, amps)))
    b = FockState(2, {o: amp * np.exp(0.83j) for o, amp in zip(occs, amps)})
    assert state_fidelity(a, b) == pytest.approx(1.0, abs=1e-12)
    assert state_fidelity(a, a) == pytest.approx(1.0, abs=1e-12)


def test_marginal_distribution_full_and_partial():
    r = 1.0 / math.sqrt(2.0)
    s = FockState(2, {(2, 0): r, (0, 2): 1j * r})
    full = marginal_distribution(s, (0, 1))
    assert full[(2, 0)] == pytest.approx(0.5, abs=1e-15)
    assert full[(0, 2)] == pytest.approx(0.5, abs=1e-15)
    part = marginal_distribution(s, (0,))
    assert part[(2,)] == pytest.approx(0.5, abs=1e-15)
    assert part[(0,)] == pytest.approx(0.5, abs=1e-15)


def test_marginal_sums_to_one():
    rng = np.random.default_rng(3)
    occs = list(basis_occupations(3, 3))
    amps = rng.normal(size=len(occs)) + 1j * rng.normal(size=len(occs))
    amps /= np.linalg.norm(amps)
    s = FockState(3, dict(zip(occs, amps)))
    for modes in [(0,), (1, 2), (0, 1, 2)]:
        assert sum(marginal_distribution(s, modes).values()) == pytest.approx(
            1.0, abs=1e-12
        )


def test_basis_occupations_count_matches_stars_and_bars():
    for n in range(9):
        for m in range(1, 9):
            occs = list(basis_occupations(n, m))
            assert len(occs) == math.comb(n + m - 1, n)
            assert len(set(occs)) == len(occs)
            assert all(sum(o) == n and len(o) == m for o in occs)


def test_basis_occupations_lexicographic():
    occs = list(basis_occupations(3, 3))
    assert occs == sorted(occs)
    assert occs[0] == (0, 0, 3)
    assert occs[-1] == (3, 0, 0)


def test_json_round_trip():
    rng = np.random.default_rng(11)
    occs = list(basis_occupations(4, 2))
    amps = rng.normal(size=len(occs)) + 1j * rng.normal(size=len(occs))
    amps /= np.linalg.norm(amps)
    s = FockState(2, dict(zip(occs, amps)))
    back = FockState.from_json(s.to_json())
    assert back.mode_count == s.mode_count
    for occ, amp in s.items():
        assert back.amplitude(occ) == amp  # exact: repr round trip


def test_json_dict_shape():
    d = FockState.basis_state((0, 1)).to_json_dict()
    assert d["modes"] == 2
    assert d["terms"] == [{"occ": [0, 1], "re": 1.0, "im": 0.0}]
    json.dumps(d)  # serializable as-is


def test_scaled():
    s = FockState.basis_state((1,)).scaled(0.5j)
    assert s.amplitude((1,)) == 0.5j
    with pytest.raises(ValueError):
        FockState.basis_state((1,)).scaled(2.0)  # would exceed unit norm


def test_allclose():
    a = FockState.basis_state((1, 0))
    b = FockState(2, {(1, 0): 1.0, (0, 1): 1e-13})
    assert a.allclose(b, tol=1e-12)
    assert not a.allclose(FockState.basis_state((0, 1)))


def test_multinomial():
    assert multinomial(2, [0.5, 0.5]) == {(0, 2): 0.25, (1, 1): 0.5, (2, 0): 0.25}
    # count vectors that need a zero-probability outcome are left out
    assert multinomial(2, [1.0, 0.0]) == {(2, 0): 1.0}
    assert sum(multinomial(4, [0.2, 0.3, 0.5]).values()) == pytest.approx(1.0, abs=1e-15)
