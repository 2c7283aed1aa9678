"""Acceptance checks: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v tests/test_acceptance.py` for one line per criterion;
the printed [PASS]/[FAIL] markers carry the measured numbers.
"""

import cmath
import math
import time

import numpy as np
from scipy.stats import unitary_group

from noonchip import coinc, detect, evolve
from noonchip.analysis import (
    FringeScenario,
    fringe_period,
    fringe_scan,
    probe_fringe_scan,
    reverse_pass,
)
from noonchip.circuit import ChipParams, dc_matrix
from noonchip.fock import (
    FockState,
    basis_occupations,
    make_noon,
    state_fidelity,
)
from noonchip.herald import HeraldPattern, heralded_output

PATTERN_IL = HeraldPattern({0: 1, 3: 1})
ROOT_HALF = 1.0 / math.sqrt(2.0)


def report(cid, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] {cid}: {description}{suffix}")
    assert ok, f"{cid} failed: {description}{suffix}"


def test_c01_two_pair_herald_rates():
    start = time.perf_counter()
    device = heralded_output(
        ChipParams(), FockState.basis_state((0, 2, 2, 0)), PATTERN_IL
    )
    balanced = heralded_output(
        ChipParams(eta3=0.5, eta4=0.5), FockState.basis_state((0, 2, 2, 0)), PATTERN_IL
    )
    elapsed = time.perf_counter() - start
    ok = (
        abs(device.probability - 4 / 81) < 1e-12
        and abs(balanced.probability - 1 / 16) < 1e-12
        and elapsed < 1.0
    )
    report(
        "C1",
        "two-pair herald rates 4/81 and 1/16 within 1e-12, under one second",
        ok,
        f"got {device.probability!r}, {balanced.probability!r} in {elapsed:.3f}s",
    )


def test_c02_three_pair_herald_rates():
    device = heralded_output(
        ChipParams(phi=math.pi / 2), FockState.basis_state((0, 3, 3, 0)), PATTERN_IL
    )
    balanced = heralded_output(
        ChipParams(eta3=0.5, eta4=0.5, phi=math.pi / 2),
        FockState.basis_state((0, 3, 3, 0)),
        PATTERN_IL,
    )
    ok = (
        abs(device.probability - 4 / 243) < 1e-12
        and abs(balanced.probability - 3 / 64) < 1e-12
    )
    report(
        "C2",
        "three-pair herald rates 4/243 and 3/64 within 1e-12",
        ok,
        f"got {device.probability!r}, {balanced.probability!r}",
    )


def test_c03_heralded_state_family():
    quad = heralded_output(
        ChipParams(phi=math.pi / 2), FockState.basis_state((0, 3, 3, 0)), PATTERN_IL
    )
    f_quad = state_fidelity(
        quad.conditional_state, make_noon(4, 0, alpha=math.pi)
    )
    zero = heralded_output(
        ChipParams(phi=0.0), FockState.basis_state((0, 3, 3, 0)), PATTERN_IL
    )
    f_zero = state_fidelity(zero.conditional_state, make_noon(3, 1))
    family_ok = True
    for phi in np.linspace(0.05, 2 * math.pi, 32):
        res = heralded_output(
            ChipParams(phi=float(phi)), FockState.basis_state((0, 3, 3, 0)), PATTERN_IL
        )
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
        family_ok &= state_fidelity(res.conditional_state, ref) >= 1 - 1e-10
        family_ok &= abs(res.probability - 4 / 243) < 1e-12
    ok = f_quad >= 1 - 1e-10 and f_zero >= 1 - 1e-10 and family_ok
    report(
        "C3",
        "heralded six-photon states match both flavors and the full phase family",
        ok,
        f"fidelities {f_quad:.2e} loss {1 - f_quad:.1e}, {1 - f_zero:.1e}",
    )


def test_c04_twin_fock_expansions():
    expansions = {
        (2, 2): {(4, 0): math.sqrt(3 / 8), (2, 2): 0.5, (0, 4): math.sqrt(3 / 8)},
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
    worst = 0.0
    ok = True
    for occ_in, expected in expansions.items():
        out = apply_to_basis(occ_in)
        got = dict(out.items())
        ok &= set(got) == set(expected)
        anchor = min(expected)
        phase = got[anchor] / abs(got[anchor])
        for occ, coeff in expected.items():
            d = abs(got[occ] / phase - coeff)
            worst = max(worst, d)
            ok &= d < 1e-12
    report(
        "C4",
        "balanced-coupler twin-Fock expansions term by term within 1e-12",
        ok,
        f"worst deviation {worst:.1e}",
    )


def apply_to_basis(occ):
    return evolve.apply(dc_matrix(0.5), FockState.basis_state(occ))


def test_c05_eight_photon_amplitudes():
    u = ChipParams(phi=math.pi / 2).matrix()
    out = evolve.apply(u, FockState.basis_state((0, 4, 4, 0)))
    checks = []
    a32 = out.amplitude((2, 3, 2, 1))
    a23 = out.amplitude((2, 2, 3, 1))
    checks.append(
        abs(math.hypot(abs(a32), abs(a23)) - 1 / (27 * math.sqrt(3))) < 1e-10
    )
    checks.append(abs(a23 / a32 - (-1j)) < 1e-10)  # quadrature between the terms
    checks.append(abs(abs(out.amplitude((2, 4, 0, 2))) - 7 * math.sqrt(6) / 162) < 1e-10)
    checks.append(abs(abs(out.amplitude((2, 2, 2, 2))) - 1 / 27) < 1e-10)
    checks.append(abs(abs(out.amplitude((1, 6, 0, 1))) - math.sqrt(5) / 54) < 1e-10)
    checks.append(abs(abs(out.amplitude((1, 4, 2, 1))) - math.sqrt(3) / 162) < 1e-10)
    # independent engine: the same two anchors through matrix permanents
    checks.append(
        abs(abs(evolve.amplitude(u, (0, 4, 4, 0), (2, 2, 2, 2))) - 1 / 27) < 1e-10
    )
    checks.append(
        abs(abs(evolve.amplitude(u, (0, 4, 4, 0), (2, 4, 0, 2))) - 7 * math.sqrt(6) / 162)
        < 1e-10
    )
    ok = all(checks)
    report(
        "C5",
        "eight-photon branch amplitudes match closed forms within 1e-10",
        ok,
        f"{sum(checks)}/{len(checks)} anchors",
    )


def test_c06_cascade_resolution():
    tree4 = detect.SplitterTree(1, tuple((f"J{i}", 0.25) for i in range(4)))
    treek = detect.SplitterTree(2, tuple((f"K{i}", 0.25) for i in range(4)))
    four = detect.cascade_resolve_probability(tree4, ("J0", "J1", "J2", "J3"))
    split = detect.cascade_resolve_probability(
        tree4, ("J0", "J1", "J2")
    ) * detect.cascade_resolve_probability(treek, ("K0",))
    ok = abs(four - 3 / 32) < 1e-12 and abs(split - 3 / 128) < 1e-12
    report(
        "C6",
        "cascade resolution probabilities 3/32 and 3/128 within 1e-12",
        ok,
        f"got {four!r}, {split!r}",
    )


def test_c07_fringe_periods():
    grid = np.linspace(0.0, 4 * math.pi, 256, endpoint=False)
    single = fringe_scan(
        FringeScenario(ChipParams(), FockState.basis_state((0, 1, 0, 0)), {1: 1}), grid
    )
    six = fringe_scan(
        FringeScenario(
            ChipParams(), FockState.basis_state((0, 3, 3, 0)), {0: 1, 1: 4, 2: 0, 3: 1}
        ),
        grid,
    )
    p1 = fringe_period(single)
    p6 = fringe_period(six)
    thetas = np.linspace(0.0, 2 * math.pi, 128, endpoint=False)
    probe1 = fringe_period(
        probe_fringe_scan(make_noon(1, 0), (1, 0), thetas)
    )
    probe2 = fringe_period(
        probe_fringe_scan(make_noon(2, 0), (1, 1), thetas)
    )
    probe4 = fringe_period(
        probe_fringe_scan(make_noon(4, 0, alpha=math.pi), (2, 2), thetas)
    )
    ok = (
        abs(p1 - 2 * math.pi) < 0.02 * 2 * math.pi
        and abs(p6 - math.pi) < 0.02 * math.pi
        and abs(p1 / p6 - 2.0) < 0.04
        and abs(probe1 / probe2 - 2.0) < 0.04
        and abs(probe1 / probe4 - 4.0) < 0.08
    )
    report(
        "C7",
        "fringe periods 2pi and pi; super-resolution ratios 2 and 4 within 2%",
        ok,
        f"chip ratio {p1 / p6:.6f}, probe ratios {probe1 / probe2:.6f}, {probe1 / probe4:.6f}",
    )


def test_c08_window_profile():
    cfg = coinc.CoincidenceConfig()
    exact_ok = (
        abs(coinc.window_profile(5.8, cfg) - 1.0) < 1e-12
        and abs(coinc.window_profile(7.25, cfg) - 0.5) < 1e-12
        and abs(coinc.window_profile(8.7, cfg) - 0.0) < 1e-12
    )
    delays = [0.6 * i for i in range(20)]
    empirical = coinc.empirical_window_profile(delays, cfg, trials=100_000, seed=11)
    dev = max(
        abs(e - coinc.window_profile(d, cfg)) for d, e in zip(delays, empirical)
    )
    ok = exact_ok and dev < 0.01
    report(
        "C8",
        "trapezoid window exact at 5.8/7.25/8.7 ns; 1e5-trial study deviates < 0.01",
        ok,
        f"max Monte Carlo deviation {dev:.4f}",
    )


def test_c09_two_photon_interference():
    amp = evolve.amplitude(dc_matrix(0.5), (1, 1), (1, 1))
    from noonchip.source import hom_dip

    v = hom_dip(1.0)
    ok = abs(amp) < 1e-12 and abs(v - 1 / 3) < 1e-10
    report(
        "C9",
        "coincidence amplitude vanishes; two-pair dip visibility 1/3",
        ok,
        f"|amp| {abs(amp):.1e}, V {v!r}",
    )


def test_c10_engine_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(200):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(0, 5))
        if m > 1:
            u = unitary_group.rvs(m, random_state=rng)
        else:
            u = np.array([[np.exp(1j * rng.uniform(0, 2 * math.pi))]])
        occ = [0] * m
        for _ in range(n):
            occ[int(rng.integers(0, m))] += 1
        occ = tuple(occ)
        expanded = evolve.apply(u, FockState.basis_state(occ))
        for target in basis_occupations(n, m):
            worst = max(
                worst, abs(expanded.amplitude(target) - evolve.amplitude(u, occ, target))
            )
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 120.0
    report(
        "C10",
        "expansion and permanent engines agree on 200 random unitaries within 1e-10",
        ok,
        f"worst {worst:.1e} in {elapsed:.1f}s",
    )


def test_c11_backward_readout():
    pure = reverse_pass([(1.0, make_noon(2, 0))])
    dephased = reverse_pass(
        [
            (0.5, FockState.basis_state((2, 0))),
            (0.5, FockState.basis_state((0, 2))),
        ]
    )
    p_pure = pure.conditional_distribution.get((1, 1), 0.0)
    p_mix = dephased.conditional_distribution.get((1, 1), 0.0)
    chip = ChipParams(0.5, 0.5, 1 / 3, 1 / 3, 0.0)
    forward = heralded_output(chip, FockState.basis_state((0, 2, 2, 0)), PATTERN_IL)
    full = reverse_pass([(1.0, forward.conditional_state)], chip)
    ok = (
        abs(p_pure - 1.0) < 1e-10
        and abs(p_mix - 0.5) < 1e-10
        and abs(forward.probability - 4 / 81) < 1e-12
        and abs(full.conditional_distribution.get((1, 1), 0.0) - 1.0) < 1e-10
    )
    report(
        "C11",
        "backward pass: coherent state rebunches fully, dephased mixture gives 1/2",
        ok,
        f"P(1,1) pure {p_pure!r}, dephased {p_mix!r}",
    )


def test_c12_seeded_sampling():
    u = ChipParams().matrix()
    shots = 100_000
    occs, counts = evolve.sample_output_counts(u, (0, 2, 2, 0), rng_seed=2024, shots=shots)
    dist = evolve.output_distribution(u, (0, 2, 2, 0))
    emp = {occ: c / shots for occ, c in zip(occs, counts)}
    tv = 0.5 * sum(abs(emp.get(o, 0.0) - p) for o, p in dist.items())
    tv += 0.5 * sum(p for o, p in emp.items() if o not in dist)
    occs2, counts2 = evolve.sample_output_counts(u, (0, 2, 2, 0), rng_seed=2024, shots=shots)
    identical = occs == occs2 and np.array_equal(counts, counts2)
    ok = tv < 0.01 and identical
    report(
        "C12",
        "1e5-shot sampling within TV 0.01 of exact; reruns are bit-identical",
        ok,
        f"TV {tv:.4f}, identical {identical}",
    )


def heralded_counts(chip, occupation):
    """Photon-count distribution of the state heralded by PATTERN_IL."""
    result = heralded_output(chip, FockState.basis_state(occupation), PATTERN_IL)
    return {occ: abs(a) ** 2 for occ, a in result.conditional_state.amplitudes.items()}


def test_c13_perturbed_couplers():
    ideal = ChipParams(eta1=0.5, eta2=0.5, phi=math.pi / 2)
    measured = ChipParams(eta1=0.542, eta2=0.530, phi=math.pi / 2)
    f4 = detect.fidelity(heralded_counts(measured, (0, 2, 2, 0)), heralded_counts(ideal, (0, 2, 2, 0)))
    f6 = detect.fidelity(heralded_counts(measured, (0, 3, 3, 0)), heralded_counts(ideal, (0, 3, 3, 0)))
    ok = f4 > 0.9 and f6 > 0.9
    report(
        "C13",
        "measured coupler splitting ratios keep distribution fidelities above 0.9",
        ok,
        f"four-photon {f4:.6f}, six-photon {f6:.6f}",
    )
