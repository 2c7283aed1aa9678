"""Fringe scans, period estimation, and the backward readout pass."""

import math

import numpy as np
import pytest

from noonchip.analysis import (
    FringeSample,
    FringeScenario,
    ReverseResult,
    fringe_period,
    fringe_scan,
    precision_bounds,
    probe_fringe_scan,
    reverse_pass,
)
from noonchip.circuit import ChipParams
from noonchip.fock import FockState, make_noon
from noonchip.herald import HeraldPattern, heralded_output


def grid(n, span):
    return np.linspace(0.0, span, n, endpoint=False)


def test_single_photon_fringe_values():
    scenario = FringeScenario(
        ChipParams(), FockState.basis_state((0, 1, 0, 0)), {1: 1}
    )
    for phi in grid(32, 4 * math.pi):
        (sample,) = fringe_scan(scenario, [phi])
        assert sample.probability == pytest.approx(
            (1 - math.cos(phi)) / 6, abs=1e-12
        )


def test_single_photon_fringe_period():
    scenario = FringeScenario(
        ChipParams(), FockState.basis_state((0, 1, 0, 0)), {1: 1}
    )
    samples = fringe_scan(scenario, grid(256, 4 * math.pi))
    period = fringe_period(samples)
    assert period == pytest.approx(2 * math.pi, rel=1e-9)


def test_six_photon_fringe_values_and_period():
    scenario = FringeScenario(
        ChipParams(), FockState.basis_state((0, 3, 3, 0)), {0: 1, 1: 4, 2: 0, 3: 1}
    )
    for phi in grid(16, 4 * math.pi):
        (sample,) = fringe_scan(scenario, [phi])
        want = (2 / 243) * math.sin(phi) ** 2
        assert sample.probability == pytest.approx(want, abs=1e-12)
    samples = fringe_scan(scenario, grid(256, 4 * math.pi))
    assert fringe_period(samples) == pytest.approx(math.pi, rel=1e-9)


def test_six_photon_fringe_is_twice_as_fast():
    one = fringe_scan(
        FringeScenario(ChipParams(), FockState.basis_state((0, 1, 0, 0)), {1: 1}),
        grid(256, 4 * math.pi),
    )
    six = fringe_scan(
        FringeScenario(
            ChipParams(), FockState.basis_state((0, 3, 3, 0)), {0: 1, 1: 4, 2: 0, 3: 1}
        ),
        grid(256, 4 * math.pi),
    )
    ratio = fringe_period(one) / fringe_period(six)
    assert ratio == pytest.approx(2.0, rel=1e-9)


def test_probe_two_photon_state():
    state = make_noon(n=2, m=0)
    thetas = grid(64, 2 * math.pi)
    samples = probe_fringe_scan(state, (1, 1), thetas)
    for s, theta in zip(samples, thetas):
        assert s.probability == pytest.approx((1 + math.cos(2 * theta)) / 2, abs=1e-12)
    assert fringe_period(samples) == pytest.approx(math.pi, rel=1e-9)


def test_probe_four_photon_quadrature_state():
    # twice-super-resolved: a four-photon phase picks up 4 theta
    state = make_noon(n=4, m=0, alpha=math.pi)
    thetas = grid(64, 2 * math.pi)
    samples = probe_fringe_scan(state, (2, 2), thetas)
    for s, theta in zip(samples, thetas):
        want = (3 / 8) * (1 - math.cos(4 * theta))
        assert s.probability == pytest.approx(want, abs=1e-12)
    assert fringe_period(samples) == pytest.approx(math.pi / 2, rel=1e-9)


def test_probe_unbalanced_four_photon_state():
    state = make_noon(n=3, m=1)
    thetas = grid(64, 2 * math.pi)
    samples = probe_fringe_scan(state, (4, 0), thetas)
    for s, theta in zip(samples, thetas):
        assert s.probability == pytest.approx((1 - math.cos(2 * theta)) / 4, abs=1e-12)
    assert fringe_period(samples) == pytest.approx(math.pi, rel=1e-9)


def test_probe_single_photon_baseline():
    state = make_noon(n=1, m=0)
    thetas = grid(64, 2 * math.pi)
    samples = probe_fringe_scan(state, (1, 0), thetas)
    assert fringe_period(samples) == pytest.approx(2 * math.pi, rel=1e-9)


def test_fringe_period_flat_returns_none():
    samples = [(float(t), 0.25) for t in grid(64, 2 * math.pi)]
    assert fringe_period(samples) is None


def test_fringe_period_needs_enough_samples():
    with pytest.raises(ValueError):
        fringe_period([(0.0, 0.1), (1.0, 0.2), (2.0, 0.1)])


def test_fringe_period_needs_uniform_grid():
    xs = [0.0, 0.1, 0.25, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    with pytest.raises(ValueError):
        fringe_period([(x, math.sin(x)) for x in xs])


def test_fringe_pattern_is_a_count_pattern():
    single = FockState.basis_state((0, 1, 0, 0))
    assert FringeScenario(ChipParams(), single, {1: 1}).pattern == HeraldPattern({1: 1})
    for pattern in ({1: -1}, {}):
        with pytest.raises(ValueError):
            FringeScenario(ChipParams(), single, pattern)


def test_fringe_period_rejects_samples_that_are_not_finite_numbers():
    xs = [0.1 * i for i in range(10)]
    cases = [
        [(x, math.nan) for x in xs],
        [(x, math.inf if i == 3 else math.cos(3 * x)) for i, x in enumerate(xs)],
        [(str(x), str(math.cos(3 * x))) for x in xs],
        [(x, True if i == 5 else math.cos(3 * x)) for i, x in enumerate(xs)],
    ]
    for samples in cases:
        with pytest.raises(ValueError, match="not a pair of finite numbers"):
            fringe_period(samples)


def test_fringe_period_is_finite_or_raises_near_the_float_limit():
    # a ramp fits best at the slowest frequency searched, a period of four spans:
    # on a uniform grid of steps 1e307 the refined frequency underflowed and the
    # period came back as inf, with numpy's overflow warning
    for count in (8, 9):
        xs = [i * 1e307 for i in range(-count, count + 1)]
        ramp = [0.1 + 0.05 * i / len(xs) for i in range(len(xs))]
        with pytest.raises(ValueError, match="overflow the period fit"):
            fringe_period(list(zip(xs, ramp)))
        assert fringe_period(list(zip(range(len(xs)), ramp))) == pytest.approx(4 * len(xs))
    # a period of two steps is still in range there, and far from the limit
    for step in (1e307, 1e300):
        xs = [i * step for i in range(-8, 9)]
        period = fringe_period([(x, 0.5 + 0.4 * (-1) ** i) for i, x in enumerate(xs)])
        assert period == pytest.approx(2 * step, rel=1e-6)


def test_fringe_period_accepts_tuples_and_samples():
    xs = grid(64, 4 * math.pi)
    tuples = [(float(x), 0.5 + 0.4 * math.cos(3 * x)) for x in xs]
    samples = [FringeSample(float(x), 0.5 + 0.4 * math.cos(3 * x)) for x in xs]
    want = 2 * math.pi / 3
    assert fringe_period(tuples) == pytest.approx(want, rel=1e-9)
    assert fringe_period(samples) == pytest.approx(want, rel=1e-9)


def test_fringe_period_with_noise():
    rng = np.random.default_rng(6)
    xs = grid(128, 4 * math.pi)
    ys = 0.5 + 0.3 * np.cos(2 * xs + 0.4) + rng.normal(0, 0.01, len(xs))
    period = fringe_period(list(zip(map(float, xs), map(float, ys))))
    assert period == pytest.approx(math.pi, rel=0.02)


def test_precision_bounds():
    shot, heisenberg = precision_bounds(4)
    assert shot == pytest.approx(0.5)
    assert heisenberg == pytest.approx(0.25)
    for bad in (0, 1.5, True, "2"):
        with pytest.raises(ValueError):
            precision_bounds(bad)


def test_reverse_pure_state_interferes():
    state = make_noon(n=2, m=0)
    res = reverse_pass([(1.0, state)])
    assert res.conditional_distribution[(1, 1)] == pytest.approx(1.0, abs=1e-10)
    assert res.conditional_distribution.get((2, 0), 0.0) == pytest.approx(0.0, abs=1e-10)
    assert res.full_extraction_probability == pytest.approx(4 / 9, abs=1e-12)


def test_reverse_dephased_mixture_does_not():
    ensemble = [
        (0.5, FockState.basis_state((2, 0))),
        (0.5, FockState.basis_state((0, 2))),
    ]
    res = reverse_pass(ensemble)
    cond = res.conditional_distribution
    assert cond[(1, 1)] == pytest.approx(0.5, abs=1e-10)
    assert cond[(2, 0)] == pytest.approx(0.25, abs=1e-10)
    assert cond[(0, 2)] == pytest.approx(0.25, abs=1e-10)


def test_reverse_without_interference_coupler():
    state = make_noon(n=2, m=0)
    res = reverse_pass([(1.0, state)], ChipParams(eta2=0.0))
    assert res.conditional_distribution.get((1, 1), 0.0) == pytest.approx(0.0, abs=1e-12)


def test_reverse_ensemble_weights_validated():
    with pytest.raises(ValueError):
        reverse_pass([(0.7, FockState.basis_state((2, 0)))])


def test_reverse_ensemble_weights_are_probabilities():
    # weights summing to 1 were taken as they were: 1.5 and -0.5 gave a
    # conditional distribution, NaN an empty one, neither raised
    two_zero, zero_two = FockState.basis_state((2, 0)), FockState.basis_state((0, 2))
    for weights in ((1.5, -0.5), (math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError, match="ensemble weight"):
            reverse_pass(list(zip(weights, (two_zero, zero_two))))


def test_reverse_pass_of_empty_state():
    # a null herald's empty state: the full-extraction probability was the int 0
    res = reverse_pass([(1.0, FockState(2, {}))])
    assert res == ReverseResult({}, 0.0, {})
    assert type(res.full_extraction_probability) is float


def sagnac_round_trip(chip):
    """(forward herald result, reverse-pass result) of |0,2,2,0> heralded on {0: 1, 3: 1}."""
    state = FockState.basis_state((0, 2, 2, 0))
    forward = heralded_output(chip, state, HeraldPattern({0: 1, 3: 1}))
    return forward, reverse_pass([(1.0, forward.conditional_state)], chip)


def test_sagnac_round_trip():
    forward, res = sagnac_round_trip(ChipParams(0.5, 0.5, 1 / 3, 1 / 3, 0.0))
    assert forward.probability == pytest.approx(4 / 81, abs=1e-12)
    assert res.conditional_distribution[(1, 1)] == pytest.approx(1.0, abs=1e-10)
    assert res.full_extraction_probability == pytest.approx(4 / 9, abs=1e-12)


def test_sagnac_detection_distribution_normalized():
    _, res = sagnac_round_trip(ChipParams(0.5, 0.5, 1 / 3, 1 / 3, 0.4))
    assert sum(res.detection_distribution.values()) == pytest.approx(1.0, abs=1e-9)
    assert sum(res.conditional_distribution.values()) == pytest.approx(1.0, abs=1e-9)
