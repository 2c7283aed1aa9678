"""Heralded projection: rates, conditional states, phase dependence."""

import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from noonchip.circuit import ChipParams
from noonchip.evolve import apply
from noonchip.fock import MAX_COUNT, FockState, make_noon, split, state_fidelity
from noonchip.herald import HeraldPattern, heralded_output, project

ROOT_HALF = 1.0 / math.sqrt(2.0)


def test_pattern_validation():
    p = HeraldPattern({0: 1, 3: 1})
    assert p.modes() == (0, 3)
    assert p.photon_count() == 2
    # a fractional count or mode was truncated: {0: 1.5} heralded {0: 1}; a
    # whole float or a bool counted as its integer; a string mode such as "3"
    # is JSON, which only HeraldPattern.from_json_dict parses
    for bad in ({0: -1}, {-1: 1}, {0: 1.5}, {1.7: 1}, {0: math.inf}, {None: 1}, {"x": 1},
                {0: 2.0}, {0: True}, {True: 1}, [(0, 1)], {"3": 1}):
        with pytest.raises(ValueError):
            HeraldPattern(bad)
    assert HeraldPattern({3: 1, np.int64(1): np.int32(2)}).requirements == {3: 1, 1: 2}
    with pytest.raises(ValueError):
        HeraldPattern({})


@given(st.dictionaries(st.integers(0, MAX_COUNT) | st.integers(0, 12), st.integers(0, 12), min_size=1))
def test_pattern_json_round_trips(requirements):
    p = HeraldPattern(requirements)
    assert HeraldPattern.from_json_dict(p.to_json_dict()) == p
    assert HeraldPattern.from_json_dict(json.loads(json.dumps(p.to_json_dict()))) == p


def test_pattern_json_key_is_str_of_a_mode():
    assert HeraldPattern.from_json_dict({"3": 1, "0": 2}).requirements == {0: 2, 3: 1}
    # a key of more digits than MAX_COUNT is refused before int() reads it
    for key in (3, "1" * (len(str(MAX_COUNT)) + 1), "1" * 5000):
        with pytest.raises(ValueError) as info:
            HeraldPattern.from_json_dict({key: 1})
        assert str(info.value) == f"a pattern key is a mode written as str(mode), got {key!r}"
    with pytest.raises(ValueError, match="expected non-negative integers"):
        HeraldPattern.from_json_dict({"9" * len(str(MAX_COUNT)): 1})  # beyond MAX_COUNT
    with pytest.raises(ValueError, match="a count pattern maps modes to counts, got"):
        HeraldPattern.from_json_dict([["0", 1]])


def test_two_pair_herald_rate_device_couplers():
    res = heralded_output(
        ChipParams(), FockState.basis_state((0, 2, 2, 0)), HeraldPattern({0: 1, 3: 1})
    )
    assert res.probability == pytest.approx(4 / 81, abs=1e-12)


def test_two_pair_herald_rate_balanced_couplers():
    chip = ChipParams(eta3=0.5, eta4=0.5)
    res = heralded_output(
        chip, FockState.basis_state((0, 2, 2, 0)), HeraldPattern({0: 1, 3: 1})
    )
    assert res.probability == pytest.approx(1 / 16, abs=1e-12)


def test_three_pair_herald_rate_device_couplers():
    chip = ChipParams(phi=math.pi / 2)
    res = heralded_output(
        chip, FockState.basis_state((0, 3, 3, 0)), HeraldPattern({0: 1, 3: 1})
    )
    assert res.probability == pytest.approx(4 / 243, abs=1e-12)


def test_three_pair_herald_rate_balanced_couplers():
    chip = ChipParams(eta3=0.5, eta4=0.5, phi=math.pi / 2)
    res = heralded_output(
        chip, FockState.basis_state((0, 3, 3, 0)), HeraldPattern({0: 1, 3: 1})
    )
    assert res.probability == pytest.approx(3 / 64, abs=1e-12)


def test_two_pair_conditional_state():
    res = heralded_output(
        ChipParams(), FockState.basis_state((0, 2, 2, 0)), HeraldPattern({0: 1, 3: 1})
    )
    cond = res.conditional_state
    assert cond.mode_count == 2
    assert res.kept_modes == (1, 2)
    target = make_noon(n=2, m=0)
    assert state_fidelity(cond, target) == pytest.approx(1.0, abs=1e-10)
    # equal weights on the two extremal terms
    assert abs(cond.amplitude((2, 0))) == pytest.approx(ROOT_HALF, abs=1e-12)
    assert abs(cond.amplitude((0, 2))) == pytest.approx(ROOT_HALF, abs=1e-12)


def test_three_pair_conditional_state_quadrature():
    chip = ChipParams(phi=math.pi / 2)
    res = heralded_output(
        chip, FockState.basis_state((0, 3, 3, 0)), HeraldPattern({0: 1, 3: 1})
    )
    target = make_noon(n=4, m=0, alpha=math.pi)
    assert state_fidelity(res.conditional_state, target) == pytest.approx(
        1.0, abs=1e-10
    )


def test_three_pair_output_amplitude_closed_form():
    # heralded six-photon amplitude carries the phase i e^{3 i phi}
    for phi in (0.3, 1.1, 2.7):
        out = apply(
            ChipParams(phi=phi).matrix(), FockState.basis_state((0, 3, 3, 0))
        )
        pref = 1j * cmath.exp(3j * phi) * math.sqrt(4 / 243)
        assert abs(out.amplitude((1, 4, 0, 1)) - pref * math.sin(phi) * ROOT_HALF) < 1e-12
        assert abs(out.amplitude((1, 0, 4, 1)) + pref * math.sin(phi) * ROOT_HALF) < 1e-12
        assert abs(out.amplitude((1, 3, 1, 1)) + pref * math.cos(phi) * ROOT_HALF) < 1e-12
        assert abs(out.amplitude((1, 1, 3, 1)) + pref * math.cos(phi) * ROOT_HALF) < 1e-12


def test_three_pair_phase_sweep_state_family():
    # conditional state interpolates between the two NOON flavors while the
    # herald rate stays flat
    for phi in np.linspace(0.05, 2 * math.pi, 32):
        res = heralded_output(
            ChipParams(phi=phi),
            FockState.basis_state((0, 3, 3, 0)),
            HeraldPattern({0: 1, 3: 1}),
        )
        assert res.probability == pytest.approx(4 / 243, abs=1e-12)
        s, c = math.sin(phi), math.cos(phi)
        ref = FockState(
            2,
            {
                (4, 0): s * ROOT_HALF,
                (0, 4): -s * ROOT_HALF,
                (3, 1): -c * ROOT_HALF,
                (1, 3): -c * ROOT_HALF,
            },
        )
        assert state_fidelity(res.conditional_state, ref) == pytest.approx(
            1.0, abs=1e-10
        )


def test_phi_zero_gives_unbalanced_flavor():
    res = heralded_output(
        ChipParams(phi=0.0),
        FockState.basis_state((0, 3, 3, 0)),
        HeraldPattern({0: 1, 3: 1}),
    )
    target = make_noon(n=3, m=1, alpha=0.0)
    assert state_fidelity(res.conditional_state, target) == pytest.approx(
        1.0, abs=1e-10
    )


def test_herald_completeness():
    # exact-count patterns over the herald modes partition the output state,
    # and the parts of split are those projections
    out = apply(ChipParams(phi=0.4).matrix(), FockState.basis_state((0, 2, 2, 0)))
    parts = split(out, (0, 3))
    total = 0.0
    for ni in range(5):
        for nl in range(5 - ni):
            result = project(out, HeraldPattern({0: ni, 3: nl}))
            total += result.probability
            assert result.is_null == ((ni, nl) not in parts)
            if not result.is_null:
                assert result.probability == FockState(2, parts[ni, nl]).norm_squared()
    assert total == pytest.approx(1.0, abs=1e-12)
    assert sum(FockState(2, part).norm_squared() for part in parts.values()) == pytest.approx(
        1.0, abs=1e-12
    )


def test_null_herald_is_flagged_not_raised():
    res = project(FockState.basis_state((0, 1)), HeraldPattern({0: 1}))
    assert res.is_null
    assert res.probability == 0.0
    assert res.conditional_state.mode_count == 1
    assert res.conditional_state.items() == []


def test_conditional_state_is_normalized():
    res = heralded_output(
        ChipParams(phi=0.9), FockState.basis_state((0, 2, 2, 0)), HeraldPattern({0: 1, 3: 1})
    )
    assert res.conditional_state.norm_squared() == pytest.approx(1.0, abs=1e-12)


def test_multi_count_herald():
    out = apply(ChipParams().matrix(), FockState.basis_state((0, 2, 2, 0)))
    res = project(out, HeraldPattern({0: 2, 3: 0}))
    assert 0.0 < res.probability < 1.0
    assert res.conditional_state.photon_sectors() == [2]


def test_herald_result_json():
    res = heralded_output(
        ChipParams(), FockState.basis_state((0, 2, 2, 0)), HeraldPattern({0: 1, 3: 1})
    )
    d = res.to_json_dict()
    assert d["probability"] == pytest.approx(4 / 81, abs=1e-12)
    assert d["kept_modes"] == [1, 2]
    assert d["pattern"] == {"0": 1, "3": 1}
    back = FockState.from_json_dict(d["state"])
    assert state_fidelity(back, res.conditional_state) == pytest.approx(1.0, abs=1e-12)
