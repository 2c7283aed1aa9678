"""Sparse Fock-state container, NOON construction, and basis enumeration."""

import itertools
import json
import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noonchip.fock import (
    MAX_COUNT,
    NORM_TOL,
    PRUNE_EPS,
    FockState,
    basis_occupations,
    check_keys,
    count,
    inner_product,
    make_noon,
    marginal_distribution,
    multinomial,
    is_number,
    json_list,
    nonnegative_ints,
    number,
    probabilities,
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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(
    st.integers(-3, 2**70), st.integers(0, 2**62).map(np.int64), st.floats(), st.booleans(),
    st.text(), st.none(),
))
@example(MAX_COUNT)
@example(MAX_COUNT + 1)
@example(np.True_)
def test_count_is_the_sequence_rule_for_one_value(value):
    try:
        (want,) = nonnegative_ints([value])
    except ValueError:
        with pytest.raises(ValueError, match=r"^x must be an integer >= 0 in a float's range, got "):
            count("x", value)
    else:
        got = count("x", value)
        assert got == want and type(got) is int


def test_count_bounds_are_inclusive_and_named():
    assert count("x", 1, lo=1) == 1 and count("x", np.int64(3), hi=3) == 3
    with pytest.raises(ValueError, match=r"^x must be an integer >= 1 in a float's range, got 0$"):
        count("x", 0, lo=1)
    with pytest.raises(ValueError, match=r"^x must be an integer in \[2, 3\], got 4$"):
        count("x", 4, lo=2, hi=3)


def test_number_rule_passes_numbers_through_as_given():
    for value in (0, -2.5, np.float32(1.5), np.int64(-3), sys.float_info.max):
        assert number("x", value) is value
    for bad in (math.nan, math.inf, True, "0.5", None, 1j, MAX_COUNT * 2):
        with pytest.raises(ValueError, match="^x must be a finite number, got "):
            number("x", bad)


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


def test_number_rules_take_numpy_scalars():
    # a float32 phase or probability raised, though the count rule took numpy ints
    got = probability("p", np.float32(0.5))
    assert type(got) is float and got == 0.5
    assert all(is_number(x) for x in (np.float32(1.5), np.float16(-2), np.int64(-3), np.uint8(7)))
    bad = (np.True_, np.complex128(1.0), np.float32("nan"), np.float64("inf"))
    assert not any(is_number(x) for x in bad)


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
        with pytest.raises(ValueError, match="mode_count must be an integer"):
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
        lambda: make_noon(2, 0).scaled(nan),
    ):
        with pytest.raises(ValueError, match="is not a number <= 1"):
            build()


def raw_terms(amps):
    """The terms of a map in its order, each amplitude as the raw bytes of its two parts."""
    return [(occ, struct.pack("<2d", a.real, a.imag)) for occ, a in amps.items()]


def dict_from_checked(amps):
    """The dict comprehension that built a checked state's terms before the
    array constructor: prune, then 0j + a."""
    return {occ: 0j + a for occ, a in amps.items() if not abs(a) <= PRUNE_EPS}


def test_array_constructor_prunes_and_rounds_as_the_dict_it_replaced():
    eps_up = math.nextafter(PRUNE_EPS, 1.0)
    amps = {(0, 2): complex(-0.0, 0.6), (2, 0): complex(0.8, -0.0), (1, 1): PRUNE_EPS,
            (3, 0): complex(0.0, -PRUNE_EPS), (0, 3): eps_up, (1, 2): -0.0}
    state = FockState._from_checked(2, amps, list(amps.values()))
    assert raw_terms(state.amplitudes) == raw_terms(dict_from_checked(amps))
    assert list(state.amplitudes) == [(0, 2), (2, 0), (0, 3)]  # the keys' order, not sorted
    # a zero part comes out +0.0, as the constructor's own 0j + a gives it
    assert [math.copysign(1.0, x) for a in list(state.amplitudes.values())[:2] for x in (a.real, a.imag)] == [1.0] * 4
    assert raw_terms(state.amplitudes) == raw_terms(FockState(2, amps).amplitudes)
    # the norm bound: over 1 + NORM_TOL, or NaN, raises the constructor's message
    for values in ([1.0, math.sqrt(2 * NORM_TOL)], [complex(math.nan, 0.0), 0.5]):
        with pytest.raises(ValueError, match=r"^state norm\^2 = \S+ is not a number <= 1$"):
            FockState._from_checked(1, [(0,), (1,)], values)
    assert len(FockState._from_checked(1, [(0,), (1,)], [1.0, math.sqrt(0.5 * NORM_TOL)])) == 2
    assert len(FockState._from_checked(3, [], np.zeros(0, dtype=complex))) == 0


def test_scaled_matches_the_dict_it_replaced():
    rng = np.random.default_rng(9)
    occs = list(basis_occupations(3, 3))
    for _ in range(50):
        values = rng.normal(size=len(occs)) + 1j * rng.normal(size=len(occs))
        values[rng.random(len(occs)) < 0.2] = 0.0
        values.real[rng.random(len(occs)) < 0.2] = -0.0
        values /= 2 * np.linalg.norm(values)
        state = FockState(3, dict(zip(occs, values.tolist())))
        for factor in (1.5, -1.0, complex(rng.normal(), rng.normal()), 1j, 0.0):
            if abs(factor) < 2.0:
                want = dict_from_checked({occ: complex(a * factor) for occ, a in state.amplitudes.items()})
                assert raw_terms(state.scaled(factor).amplitudes) == raw_terms(want)


def test_items_sorted_lexicographically():
    s = FockState(2, {(2, 0): 0.5, (0, 2): 0.5, (1, 1): 0.5})
    occs = [occ for occ, _ in s.items()]
    assert occs == sorted(occs)


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
    with pytest.raises(ValueError, match="n must be an integer"):
        make_noon(1.5, 0.5)
    with pytest.raises(ValueError, match="n must be an integer"):
        make_noon("3", "1")
    # the phase is a number: NaN failed only at the norm bound, True ran as 1.0
    # and a string raised TypeError
    for alpha in (math.nan, math.inf, True, "0.5"):
        with pytest.raises(ValueError, match="alpha must be a finite number"):
            make_noon(2, 0, alpha=alpha)


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


def test_probabilities_is_the_sum_to_one_rule():
    probs = probabilities("weights", (0.25, np.float64(0.75), 0))
    assert probs == [0.25, 0.75, 0.0] and all(type(p) is float for p in probs)
    with pytest.raises(ValueError, match=r"^weights sum to 0.9, expected 1$"):
        probabilities("weights", [0.5, 0.4])
    with pytest.raises(ValueError, match=r"^weights sum to 0, expected 1$"):
        probabilities("weights", [])
    for bad in (1.5, -0.5, math.nan, True, "0.5"):
        with pytest.raises(ValueError, match=r"^weights must lie in \[0, 1\], got "):
            probabilities("weights", [bad, 0.0])
    # the rounding of a computed sure outcome is read as 1; more is not
    assert probabilities("weights", [1.0 + 4e-16, 0.0]) == [1.0, 0.0]
    with pytest.raises(ValueError, match="must lie in"):
        probabilities("weights", [1.0 + 1e-8, 0.0])


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
    with pytest.raises(ValueError, match="n_photons must be an integer"):
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


def test_json_terms_pass_the_count_rule_before_the_repeat_rule():
    # "occupation [0, 2, 2, 0.0] is given twice"
    terms = [{"occ": occ, "re": 0.6, "im": 0.0} for occ in ([0, 2, 2, 0], [0, 2, 2, 0.0])]
    with pytest.raises(ValueError) as info:
        FockState.from_json_dict({"modes": 4, "terms": terms})
    assert str(info.value) == "expected non-negative integers, got 0.0"
    with pytest.raises(ValueError, match=r"occupation \[0, 2, 2, 0\] is given twice"):
        FockState.from_json_dict({"modes": 4, "terms": terms[:1] * 2})


def test_check_keys_is_the_json_object_rule():
    data = {"a": 1, "c": 2}
    assert check_keys(data, "block", ("a",), ("b", "c")) is data
    for bad, required, message in (
        ([1], ("a",), "block must be a JSON object, got [1]"),
        ({"c": 2}, ("a",), "block needs the key a"),
        ({}, ("a", "b"), "block needs the keys a, b"),
        ({"a": 1, "b": 2, "z": 3, "y": 4}, ("a",), "block takes only the keys a, b, c; got 'y', 'z'"),
    ):
        with pytest.raises(ValueError) as info:
            check_keys(bad, "block", required, ("b", "c"))
        assert str(info.value) == message


def test_json_list_is_the_json_array_rule():
    for value in ([], [1, "a"], (0.5,)):
        assert json_list("grid", value) is value
    for bad in (5, "ab", {"a": 1}, None, range(2)):
        with pytest.raises(ValueError) as info:
            json_list("grid", bad)
        assert str(info.value) == f"grid must be a list, got {bad!r}"


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
    with pytest.raises(ValueError, match="n_photons must be an integer"):
        multinomial(1.5, [0.5, 0.5])
    # (2.0, -1.0) gave {(0, 2): 1.0, (2, 0): 4.0}, (0.5, 0.4) a sum of 0.81 and
    # a string a TypeError from **
    for probs in ((2.0, -1.0), ("0.5", 0.5), (0.5, True), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="multinomial probabilities must lie in"):
            multinomial(2, probs)
    with pytest.raises(ValueError, match="sum to 0.9, expected 1"):
        multinomial(2, (0.5, 0.4))
