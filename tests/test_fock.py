"""Sparse Fock-state container, NOON construction, and basis enumeration."""

import itertools
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noonchip.fock import (
    FockState,
    basis_occupations,
    inner_product,
    make_noon,
    marginal_distribution,
    multinomial,
    nonnegative_ints,
    probability,
    split,
    state_fidelity,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.one_of(
    st.integers(0, 2**70), st.integers(0, 2**62).map(np.int64), st.integers(0, 2**31 - 1).map(np.int32),
), max_size=6))
def test_count_rule_accepts_non_negative_whole_numbers(values):
    got = nonnegative_ints(values, len(values))
    assert got == tuple(values) and all(type(n) is int for n in got)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(
    st.integers(max_value=-1),
    st.floats(), st.integers(0, 2**53).map(float), st.booleans(), st.text(), st.none(),
))
@example(math.inf)
@example(-math.inf)
@example(math.nan)
@example("2")
@example(1.5)
@example(2.0)
@example(True)
@example(np.True_)
@example(np.float64(2.0))
@example(int(sys.float_info.max) + 1)  # past a float's range, as is_number
def test_count_rule_rejects_everything_else(bad):
    with pytest.raises(ValueError):
        nonnegative_ints([1, bad])


def test_count_rule_checks_the_length():
    assert nonnegative_ints(iter([2, np.int32(1)]), 2) == (2, 1)
    with pytest.raises(ValueError, match="has 1 modes, expected 2"):
        nonnegative_ints([1], 2)
    with pytest.raises(ValueError, match="got 2.0"):  # 2.0 counted as 2
        nonnegative_ints(iter([2.0, np.int32(1)]), 2)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(st.floats(), st.integers(-3, 3), st.booleans(), st.text(), st.none()))
@example(math.nextafter(1.0, 2.0))
@example(math.inf)
@example(math.nan)
def test_probability_rule_takes_exactly_numbers_in_the_unit_interval(value):
    if isinstance(value, (int, float)) and not isinstance(value, bool) and 0.0 <= value <= 1.0:
        got = probability("p", value)
        assert type(got) is float and got == value
    else:
        with pytest.raises(ValueError, match=r"p must lie in \[0, 1\], got "):
            probability("p", value)


def test_basis_state_single_term():
    s = FockState.basis_state((0, 2, 2, 0))
    assert s.mode_count == 4
    assert s.amplitude((0, 2, 2, 0)) == 1.0 + 0j
    assert s.amplitude((2, 0, 0, 2)) == 0j
    assert s.norm_squared() == pytest.approx(1.0, abs=1e-15)


def test_constructor_validation():
    with pytest.raises(ValueError):
        FockState(2, {(1,): 1.0})  # wrong tuple length
    with pytest.raises(ValueError):
        FockState(2, {(1, -1): 1.0})  # negative occupation
    with pytest.raises(ValueError):
        FockState(2, {(1, 0): 1.2})  # norm^2 > 1 + tol
    # keys from outside still pass the count rule, though the package's own
    # producers reuse keys they took from a sector or a state
    for key in ((1.0, 0), (True, 0), (1, 0, 0)):
        with pytest.raises(ValueError):
            FockState(2, {key: 1.0})
    # an infinity raised OverflowError, None a TypeError
    for bad in (math.inf, math.nan, None, 0.5):
        with pytest.raises(ValueError, match="non-negative integers"):
            FockState.basis_state((bad,))
    # FockState(2.0, ...) was accepted with the float mode count 2.0
    for bad in (2.0, True, np.float64(2.0), -1):
        with pytest.raises(ValueError, match="non-negative integers"):
            FockState(bad, {(1, 0): 1.0})
    assert type(FockState(np.int64(2), {(1, 0): 1.0}).mode_count) is int


def test_pruning_below_epsilon():
    s = FockState(1, {(0,): 1.0, (1,): 1e-15})
    assert s.amplitude((1,)) == 0j
    assert len(s.items()) == 1


def test_nan_amplitude_is_rejected_not_pruned():
    # abs(nan) > PRUNE_EPS is False, so a NaN term was dropped as if tiny
    nan = math.nan
    for build in (
        lambda: FockState(2, {(1, 0): nan, (0, 1): 0.5}),
        lambda: FockState(2, {(1, 0): complex(nan, 1.0)}),
        lambda: make_noon(2, 0, alpha=nan),
        lambda: make_noon(2, 0).scaled(nan),
    ):
        with pytest.raises(ValueError, match="is not a number <= 1"):
            build()


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
    s = make_noon(n=4, m=0, alpha=math.pi)
    r = 1.0 / math.sqrt(2.0)
    assert abs(s.amplitude((4, 0)) - r) < 1e-15
    assert abs(s.amplitude((0, 4)) + r) < 1e-15
    assert s.norm_squared() == pytest.approx(1.0, abs=1e-15)


def test_make_noon_unbalanced_pair():
    s = make_noon(n=3, m=1)
    r = 1.0 / math.sqrt(2.0)
    assert abs(s.amplitude((3, 1)) - r) < 1e-15
    assert abs(s.amplitude((1, 3)) - r) < 1e-15


def test_make_noon_equal_indices_single_term():
    # n == m collapses to one basis vector; no double counting
    s = make_noon(n=2, m=2)
    assert s.items() == [((2, 2), 1.0 + 0j)]


def test_noon_spec_validation():
    with pytest.raises(ValueError):
        make_noon(n=1, m=2)
    with pytest.raises(ValueError):
        make_noon(n=-1, m=0)
    # the count rule: 1.5 photons were accepted, and strings raised TypeError
    with pytest.raises(ValueError, match="non-negative integers"):
        make_noon(1.5, 0.5)
    with pytest.raises(ValueError, match="non-negative integers"):
        make_noon("3", "1")


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


@st.composite
def states_and_modes(draw):
    """A state of up to 12 terms on 1-5 modes and a non-empty subset of its modes."""
    modes = draw(st.integers(1, 5))
    occs = draw(st.lists(st.tuples(*[st.integers(0, 3)] * modes), min_size=1, max_size=12,
                         unique=True))
    parts = st.floats(-1.0, 1.0, allow_subnormal=False)
    amps = np.array([complex(draw(parts), draw(parts)) for _ in occs])
    norm = np.linalg.norm(amps)
    if norm > 1.0:
        amps /= norm
    subset = draw(st.lists(st.integers(0, modes - 1), min_size=1, max_size=modes))
    return FockState(modes, dict(zip(occs, amps))), subset


@settings(max_examples=200, deadline=None, derandomize=True)
@given(states_and_modes())
def test_split_reassembles_the_state_and_matches_the_marginal(case):
    state, modes = case
    parts = split(state, modes)
    selected = sorted(set(modes))
    kept = [m for m in range(state.mode_count) if m not in selected]
    rebuilt = {}
    for counts, part in parts.items():
        assert part  # no empty part
        for rest, amp in part.items():
            occ = [0] * state.mode_count
            for m, n in zip(selected + kept, counts + rest):
                occ[m] = n
            rebuilt[tuple(occ)] = amp
    assert rebuilt == dict(state.amplitudes)
    marginal = marginal_distribution(state, modes)
    assert list(parts) == list(marginal)
    for counts, part in parts.items():
        norm = 0.0
        for amp in part.values():  # the marginal's own order of summation
            norm += abs(amp) ** 2
        assert norm == marginal[counts]


def test_split_rejects_missing_or_out_of_range_modes():
    state = FockState.basis_state((1, 0, 2))
    assert split(state, (2, 0, 2)) == {(1, 2): {(0,): 1.0}}
    for modes in ((), (3,), (0, -1)):
        with pytest.raises(ValueError):
            split(state, modes)
    with pytest.raises(ValueError, match="mode 3 out of range"):
        split(state, (3,))


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
    # exactly the sorted filter of the cube: output_distribution and
    # multinomial take their key order from this enumeration
    for n in range(9):
        for m in range(1, 7):
            cube = itertools.product(range(n + 1), repeat=m)
            assert list(basis_occupations(n, m)) == sorted(occ for occ in cube if sum(occ) == n)
    # checked at the call, not when the generator is first iterated
    with pytest.raises(ValueError, match="non-negative integers"):
        basis_occupations(1.5, 2)


def test_json_round_trip():
    rng = np.random.default_rng(11)
    occs = list(basis_occupations(4, 2))
    amps = rng.normal(size=len(occs)) + 1j * rng.normal(size=len(occs))
    amps /= np.linalg.norm(amps)
    s = FockState(2, dict(zip(occs, amps)))
    back = FockState.from_json_dict(json.loads(json.dumps(s.to_json_dict())))
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
    # four distinguishable photons through a balanced coupler: hom_dip's classical arm
    assert multinomial(4, (0.5, 0.5)) == {
        (0, 4): 1 / 16, (1, 3): 1 / 4, (2, 2): 3 / 8, (3, 1): 1 / 4, (4, 0): 1 / 16
    }
    # count vectors that need a zero-probability outcome are left out
    assert multinomial(2, [1.0, 0.0]) == {(2, 0): 1.0}
    assert sum(multinomial(4, [0.2, 0.3, 0.5]).values()) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError, match="non-negative integers"):
        multinomial(1.5, [0.5, 0.5])
