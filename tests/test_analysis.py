"""Fringe scans, period estimation, and the backward readout pass."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noonchip import evolve
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
from noonchip.circuit import ChipParams, DirectionalCoupler, Interferometer, PhaseShifter, compile_circuit
from noonchip.fock import FockState, make_noon, marginal_distribution
from noonchip.herald import HeraldPattern, heralded_output
from noonchip.scenarios import preset, run_fringe


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
    with pytest.raises(ValueError, match="has 3 modes, expected 2"):
        probe_fringe_scan(state, (1, 0, 0), thetas)


def test_scans_check_each_phase_by_its_phase_shifter():
    # a phase went through float() first: '0.5' ran as 0.5 and True as 1.0
    scenario = FringeScenario(ChipParams(), FockState.basis_state((0, 1, 0, 0)), {1: 1})
    for phase in ("0.5", True):
        with pytest.raises(ValueError, match="phase shifter phi must be a finite number"):
            fringe_scan(scenario, [0.0, phase])
        with pytest.raises(ValueError, match="phase shifter phi must be a finite number"):
            probe_fringe_scan(make_noon(2, 0), (1, 1), [0.0, phase])
    # a float32 grid runs as its float64 cast
    narrow = grid(16, 4 * math.pi).astype(np.float32)
    assert fringe_scan(scenario, narrow) == fringe_scan(scenario, narrow.astype(np.float64))


# -- the node-sampled scan against one chip evaluation per phase -----------------


def per_phase(matrix_at, state, modes, wanted, phases):
    """The scan as one matrix, apply and marginal per phase: the oracle."""
    samples = []
    for x in phases:
        evolved = evolve.apply(matrix_at(x), state)
        samples.append(FringeSample(float(x), marginal_distribution(evolved, modes).get(wanted, 0.0)))
    return samples


def per_phase_fringe(scenario, phases):
    pattern = scenario.pattern
    return per_phase(lambda phi: replace(scenario.chip, phi=phi).matrix(), scenario.input_state,
                     pattern.modes(), pattern.counts(), phases)


def per_phase_probe(state, pattern, thetas):
    def probe(theta):
        return compile_circuit(Interferometer(2, (PhaseShifter(theta, 0), DirectionalCoupler(0.5, (0, 1)))))
    return per_phase(probe, state, (0, 1), tuple(pattern), thetas)


def assert_matches_per_phase(samples, oracle):
    assert [s.phi for s in samples] == [s.phi for s in oracle]
    for s, o in zip(samples, oracle):
        assert type(s.probability) is float and 0.0 <= s.probability <= 1.0, s
        assert abs(s.probability - o.probability) <= 1e-15, (s, o)


def preset_scan(name):
    config = preset(name)
    scenario = FringeScenario(config.chip_params(), config.input_state(4), config.sweep_pattern())
    return scenario, config.sweep_grid()


@pytest.mark.parametrize("name", ["fig3a", "fig3b"])
def test_scan_matches_per_phase_loop_on_preset_grids(name):
    scenario, phases = preset_scan(name)
    assert_matches_per_phase(fringe_scan(scenario, phases), per_phase_fringe(scenario, phases))


@st.composite
def chip_scans(draw):
    n = draw(st.integers(1, 6))
    occupation = [0] * 4
    for mode in draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)):
        occupation[mode] += 1
    # counts on some modes of one output with n photons, so most patterns can happen
    output = [0] * 4
    for mode in draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)):
        output[mode] += 1
    modes = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True))
    chip = ChipParams(*(draw(st.floats(0.0, 1.0)) for _ in range(4)))
    phases = draw(st.lists(st.floats(-100.0, 100.0), min_size=2 * n + 2, max_size=300))
    scenario = FringeScenario(chip, FockState.basis_state(tuple(occupation)), {m: output[m] for m in modes})
    return scenario, phases


@settings(max_examples=100, deadline=None, derandomize=True)
@given(chip_scans())
def test_scan_matches_per_phase_loop_on_drawn_chips(case):
    scenario, phases = case
    assert_matches_per_phase(fringe_scan(scenario, phases), per_phase_fringe(scenario, phases))


def test_probe_scan_matches_per_phase_loop():
    thetas = list(grid(64, 2 * math.pi)) + [-3.5, 0.0, 0.0, 100.0]
    for n in range(1, 5):
        for alpha in (0.0, math.pi / 3, math.pi):
            state = make_noon(n, 0, alpha)
            for k in range(n + 1):
                assert_matches_per_phase(probe_fringe_scan(state, (k, n - k), thetas),
                                         per_phase_probe(state, (k, n - k), thetas))


def test_scan_takes_every_phase_its_phase_shifter_takes():
    # huge phases go through cos and sin of the phase itself, never m * phi
    phases = [1e300, -1e300, 1.7976931348623157e308, 10**300, np.float32(0.5), np.float32(-2.25),
              np.int64(3), np.int64(-7), np.int64(2**62), 0, -0.0, 5e-324, 2.0, 2.0, 2.0, math.pi, math.pi]
    for scenario in (preset_scan("fig3a")[0], preset_scan("fig3b")[0]):
        assert_matches_per_phase(fringe_scan(scenario, phases), per_phase_fringe(scenario, phases))
    state = make_noon(4, 0)
    assert_matches_per_phase(probe_fringe_scan(state, (2, 2), phases), per_phase_probe(state, (2, 2), phases))


def count_apply_calls(monkeypatch):
    calls = []
    apply = evolve.apply

    def counted(*args, **kwargs):
        calls.append(None)
        return apply(*args, **kwargs)
    monkeypatch.setattr(evolve, "apply", counted)
    return calls


@pytest.mark.parametrize("name, evaluations", [("fig3a", 3), ("fig3b", 13), ("fig3b-4point", 4)])
def test_scan_costs_at_most_2n_plus_1_chip_evaluations(monkeypatch, name, evaluations):
    # one photon: 3 nodes; six photons: 13 nodes; four phases are fewer than 13
    calls = count_apply_calls(monkeypatch)
    run_fringe(preset(name))
    assert len(calls) == evaluations


def test_long_grids_check_every_phase_before_any_evaluation(monkeypatch):
    calls = count_apply_calls(monkeypatch)
    scenario = FringeScenario(ChipParams(), FockState.basis_state((0, 1, 0, 0)), {1: 1})
    for bad in ("0.5", True, math.nan):
        phases = list(grid(256, 4 * math.pi))
        phases[200] = bad
        with pytest.raises(ValueError, match="phase shifter phi must be a finite number"):
            fringe_scan(scenario, phases)
        with pytest.raises(ValueError, match="phase shifter phi must be a finite number"):
            probe_fringe_scan(make_noon(2, 0), (1, 1), phases)
    assert calls == []
    assert fringe_scan(scenario, []) == [] == probe_fringe_scan(make_noon(2, 0), (1, 1), iter([]))


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
        # not pairs: these raised TypeError or "too many values to unpack"
        [1] * 8,
        [None] * 8,
        [(1, 2, 3)] * 8,
    ]
    for samples in cases:
        with pytest.raises(ValueError, match="not a pair of finite numbers"):
            fringe_period(samples)
    # the first bad sample is named
    mixed = [(x, math.cos(3 * x)) for x in xs[:4]] + [(0.4, 0.1, 0.2), None]
    with pytest.raises(ValueError, match=r"^fringe sample \(0\.4, 0\.1, 0\.2\) is not"):
        fringe_period(mixed)


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
    # a mixture reads out as the weighted sum of its members, bit for bit
    mixed = [(0.25, make_noon(n=2, m=0)), (0.75, FockState.basis_state((1, 1)))]
    parts = [reverse_pass([(1.0, state)]).detection_distribution for _, state in mixed]
    outcomes = set(parts[0]) | set(parts[1])
    assert reverse_pass(mixed).detection_distribution == {
        occ: 0.25 * parts[0].get(occ, 0.0) + 0.75 * parts[1].get(occ, 0.0) for occ in outcomes
    }


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


def test_reverse_pass_checks_the_chips_couplers_as_its_circuit_does():
    # 1 - eta was taken before any rule saw eta: True ran as eta 1, a string
    # raised TypeError, 1.5 was reported as a loss tap transmission of -0.5
    state = make_noon(n=2, m=0)
    for name in ("eta2", "eta3", "eta4"):
        for bad in (True, "0.3", 1.5, math.nan, None):
            chip = replace(ChipParams(), **{name: bad})
            with pytest.raises(ValueError) as info:
                reverse_pass([(1.0, state)], chip)
            assert str(info.value) == f"directional coupler eta must lie in [0, 1], got {bad!r}"
    # two bad couplers: the first in the chip circuit's order names itself
    chip = ChipParams(eta2="bad-eta2", eta3="bad-eta3", eta4="bad-eta4")
    with pytest.raises(ValueError, match="bad-eta3"):
        reverse_pass([(1.0, state)], chip)
    with pytest.raises(ValueError, match="bad-eta3"):
        chip.circuit()


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
