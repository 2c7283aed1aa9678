"""Dual evolution engines: polynomial expansion and permanent transitions."""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import unitary_group

from noonchip.circuit import ChipParams, compile_circuit, dc_matrix, with_loss
from noonchip.evolve import (
    MAX_PHOTONS,
    NonUnitaryError,
    _norms,
    amplitude,
    apply,
    is_unitary,
    output_distribution,
    sample_output_counts,
)
from noonchip.fock import PRUNE_EPS, FockState, basis_occupations, inner_product, split
from noonchip.herald import HeraldPattern, condition, project


def random_state(rng, n_photons, n_modes):
    occs = list(basis_occupations(n_photons, n_modes))
    amps = rng.normal(size=len(occs)) + 1j * rng.normal(size=len(occs))
    amps /= np.linalg.norm(amps)
    return FockState(n_modes, dict(zip(occs, amps)))


def haar(rng, m):
    if m == 1:
        return np.array([[np.exp(1j * rng.uniform(0, 2 * np.pi))]])
    return unitary_group.rvs(m, random_state=rng)


def random_occupation(rng, n_photons, n_modes):
    occ = [0] * n_modes
    for _ in range(n_photons):
        occ[int(rng.integers(0, n_modes))] += 1
    return tuple(occ)


def dict_expansion(u, state):
    """Test-only oracle: apply as a dict of monomials, one photon at a time.

    Each a_k^dag is replaced by sum_j U[j, k] a_j^dag and the monomials are
    collected in a dict keyed by occupation, with no tables and no vectors.
    """
    out = {}
    for occ, amp in state.amplitudes.items():
        poly = {(0,) * state.mode_count: amp / math.sqrt(math.prod(map(math.factorial, occ)))}
        for k, s_k in enumerate(occ):
            for _ in range(s_k):
                raised = {}
                for mono, coeff in poly.items():
                    for j in range(len(occ)):
                        bumped = mono[:j] + (mono[j] + 1,) + mono[j + 1:]
                        raised[bumped] = raised.get(bumped, 0j) + coeff * u[j, k]
                poly = raised
        for target, coeff in poly.items():
            value = coeff * math.sqrt(math.prod(map(math.factorial, target)))
            out[target] = out.get(target, 0j) + value
    return FockState(state.mode_count, out)


def test_apply_matches_dict_expansion():
    rng = np.random.default_rng(61)
    cases = []
    for m in range(1, 7):
        u = haar(rng, m)
        for n in (0, 1, 3, MAX_PHOTONS):
            cases.append((u, FockState.basis_state(random_occupation(rng, n, m))))
        # one superposition over the 0- to 3-photon sectors, vacuum included
        terms = {}
        for n in range(4):
            for occ in rng.permutation(list(basis_occupations(n, m)))[:3]:
                terms[tuple(int(x) for x in occ)] = complex(rng.normal(), rng.normal())
        norm = math.sqrt(sum(abs(a) ** 2 for a in terms.values()))
        cases.append((u, FockState(m, {occ: a / norm for occ, a in terms.items()})))
        cases.append((u, FockState(m, {})))
    # a loss tap on every chip mode: four environment modes that start empty
    circ = ChipParams(eta1=0.4, eta3=0.3, phi=1.1).circuit()
    for mode in range(4):
        circ = with_loss(circ, mode, 0.6 + 0.1 * mode)
    lossy = compile_circuit(circ)
    for occ in ((0, 2, 2, 0), (1, 1, 1, 1), (0, 3, 3, 0)):
        cases.append((lossy, FockState.basis_state(occ + (0,) * 4)))
    for u, state in cases:
        got, want = apply(u, state), dict_expansion(u, state)
        assert set(got.amplitudes) == set(want.amplitudes), state
        for occ, a in want.amplitudes.items():
            assert abs(got.amplitudes[occ] - a) <= 1e-13, (state, occ)


def raw_terms(amps):
    """The terms of a map in its order, each amplitude as the raw bytes of its two parts."""
    return [(occ, struct.pack("<2d", a.real, a.imag)) for occ, a in amps.items()]


def test_apply_builds_its_state_as_the_dict_it_replaced(monkeypatch):
    # apply hands _from_checked each sector's keys in the order its photon
    # number first appears in the input; the old build zipped the same keys
    # and values into a dict and pruned it with 0j + a
    passed = []
    from_checked = FockState._from_checked.__func__

    def spy(cls, mode_count, keys, values):
        keys = list(keys)
        passed.append((keys, np.asarray(values).tolist()))
        return from_checked(cls, mode_count, keys, values)

    monkeypatch.setattr(FockState, "_from_checked", classmethod(spy))
    rng = np.random.default_rng(28)
    states = []
    for m in (2, 3, 4):
        for photons in ((3, 1), (0, 2, 4), (1,)):
            terms = {}
            for n in photons:
                for occ in rng.permutation(list(basis_occupations(n, m)))[:2]:
                    terms[tuple(int(x) for x in occ)] = complex(rng.normal(), rng.normal())
            norm = math.sqrt(sum(abs(a) ** 2 for a in terms.values()))
            states.append((haar(rng, m), FockState(m, {occ: a / norm for occ, a in terms.items()})))
    states.append((ChipParams(phi=0.7).matrix(), FockState.basis_state((0, 3, 3, 0))))
    states.append((np.eye(2), FockState(2, {(1, 0): 0.6, (0, 0): 0.8})))  # exact zeros to prune
    pruned = multi_sector = 0
    for u, state in states:
        passed.clear()
        got = apply(u, state)
        ((keys, values),) = passed
        order = list(dict.fromkeys(sum(occ) for occ in state.amplitudes))
        assert keys == [occ for n in order for occ in basis_occupations(n, state.mode_count)]
        old = {occ: 0j + a for occ, a in zip(keys, values) if not abs(a) <= PRUNE_EPS}
        assert raw_terms(got.amplitudes) == raw_terms(old)
        pruned += len(got) < len(keys)
        multi_sector += len(order) > 1
    assert pruned >= 2 and multi_sector >= 6


def test_herald_condition_matches_the_dict_it_replaced():
    out = apply(ChipParams(phi=0.4).matrix(), FockState.basis_state((0, 3, 3, 0)))
    for reqs in ({0: 1, 3: 1}, {0: 0}, {1: 2, 2: 1}):
        part = split(out, reqs).get(tuple(reqs[m] for m in sorted(reqs)), {})
        norm2, state = condition(part, 4 - len(reqs))
        assert norm2 == sum(abs(a) ** 2 for a in part.values())
        norm = math.sqrt(norm2)
        want = {occ: 0j + a / norm for occ, a in part.items() if not abs(a / norm) <= PRUNE_EPS}
        assert raw_terms(state.amplitudes) == raw_terms(want)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 6), st.lists(st.integers(0, MAX_PHOTONS), min_size=1, max_size=3),
       st.integers(0, 2**32 - 1), st.complex_numbers(max_magnitude=1.0))
@example(6, [MAX_PHOTONS], 0, 0.5j)
@example(4, [6, 0], 1, 1e-15)
def test_checked_keys_are_what_the_constructor_would_build(modes, photons, seed, factor):
    # apply, herald conditioning and scaled skip the count rule on
    # keys they took from a sector or a state: each result must equal what the
    # checking constructor builds from its own terms
    rng = np.random.default_rng(seed)
    terms = {random_occupation(rng, n, modes): complex(rng.normal(), rng.normal()) for n in photons}
    norm = math.sqrt(sum(abs(a) ** 2 for a in terms.values()))
    evolved = apply(haar(rng, modes), FockState(modes, {occ: a / norm for occ, a in terms.items()}))
    states = [evolved, evolved.scaled(factor)]
    if modes > 1:
        counts = {occ[0] for occ in evolved.amplitudes}
        for n in (min(counts), max(counts), MAX_PHOTONS + 1):  # the last heralds nothing
            states.append(project(evolved, HeraldPattern({0: n})).conditional_state)
    for x in states:
        assert FockState(x.mode_count, dict(x.amplitudes)).items() == x.items()
        for occ, a in x.amplitudes.items():
            assert type(occ) is tuple and len(occ) == x.mode_count
            assert all(type(n) is int for n in occ)
            assert abs(a) > PRUNE_EPS


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
        u = haar(rng, m)
        occ = random_occupation(rng, n, m)
        expanded = apply(u, FockState.basis_state(occ))
        for target in basis_occupations(n, m):
            d = abs(expanded.amplitude(target) - amplitude(u, occ, target))
            assert d < 1e-10
    # the benchmark's shapes: (1,...,1) on a 6-mode Haar unitary, and
    # (0,n,n,0) up to MAX_PHOTONS on the chip at seeded settings
    shapes = [((1,) * 6, unitary_group.rvs(6, random_state=rng)) for _ in range(3)]
    for n in range(1, MAX_PHOTONS // 2 + 1):
        etas = {f"eta{i}": float(rng.uniform(0.1, 0.9)) for i in range(1, 5)}
        chip = ChipParams(**etas, phi=float(rng.uniform(0.0, 2.0 * np.pi)))
        shapes.append(((0, n, n, 0), chip.matrix()))
    for occ, u in shapes:
        by_permanent = output_distribution(u, occ)
        by_apply = {t: abs(a) ** 2 for t, a in apply(u, FockState.basis_state(occ)).amplitudes.items()}
        assert abs(sum(by_permanent.values()) - 1.0) <= 1e-9
        for t in set(by_permanent) | set(by_apply):
            assert abs(by_permanent.get(t, 0.0) - by_apply.get(t, 0.0)) <= 1e-10, (occ, t)


def test_norms_match_math_sqrt_bit_for_bit():
    # the float factorial table is exact while every product it takes stays
    # below 2^53; lifting MAX_PHOTONS past that must fail here, not round
    assert math.factorial(MAX_PHOTONS) ** 2 < 2**53
    sector = list(basis_occupations(MAX_PHOTONS, 4))
    t = np.array(sector)
    for s in sector:
        expected = [math.sqrt(math.prod(map(math.factorial, s + occ))) for occ in sector]
        assert _norms(s, t).tolist() == expected, s


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
    # an over-cap term raises beside a valid one
    with pytest.raises(ValueError, match=f"{MAX_PHOTONS + 1} photons exceeds"):
        apply(u, FockState(2, {(1, 0): 0.6, (0, MAX_PHOTONS + 1): 0.8}))
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
    # anything but a square 2-D matrix is not unitary: these raised numpy's
    # broadcast or matmul errors, and the 1-D [1] passed
    for shape_bad in (np.eye(3)[:, :2], np.eye(2, 3), np.eye(2)[None], np.array([1.0])):
        assert not is_unitary(shape_bad)


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


def test_sampling_draws_are_pinned_and_the_sum_rule_is_fock_probabilities():
    # the counts the draws gave before the sum check went through fock.probabilities
    occs, counts = sample_output_counts(ChipParams().matrix(), (0, 2, 2, 0), rng_seed=9, shots=500)
    assert {occ: n for occ, n in zip(occs, counts.tolist()) if n} == {
        (0, 0, 0, 4): 36, (0, 0, 1, 3): 45, (0, 0, 2, 2): 11, (0, 1, 0, 3): 31, (0, 1, 1, 2): 61,
        (0, 1, 2, 1): 12, (0, 2, 0, 2): 7, (0, 2, 1, 1): 13, (0, 2, 2, 0): 5, (1, 0, 1, 2): 17,
        (1, 0, 2, 1): 13, (1, 1, 0, 2): 15, (1, 1, 2, 0): 14, (1, 2, 0, 1): 11, (1, 2, 1, 0): 11,
        (2, 0, 0, 2): 27, (2, 0, 1, 1): 9, (2, 0, 2, 0): 6, (2, 1, 0, 1): 15, (2, 1, 1, 0): 31,
        (2, 2, 0, 0): 2, (3, 0, 1, 0): 28, (3, 1, 0, 0): 43, (4, 0, 0, 0): 37}
    # bar couplers and a phase: the sure outcome's |e^{i phi}|^2 rounds above 1
    bar = ChipParams(1.0, 1.0, 1.0, 1.0, phi=0.063).matrix()
    assert output_distribution(bar, (0, 0, 1, 0)) == {(0, 0, 1, 0): 1.0000000000000004}
    occs, counts = sample_output_counts(bar, (0, 0, 1, 0), rng_seed=3, shots=4)
    assert occs == [(0, 0, 1, 0)] and counts.tolist() == [4]
    # a matrix that is not unitary: each value is a probability, and they sum to 1
    with pytest.raises(ValueError, match=r"^output probabilities sum to 0.25, expected 1$"):
        sample_output_counts(0.5 * np.eye(2), (1, 0), rng_seed=0, shots=3)
    with pytest.raises(ValueError, match=r"^output probabilities must lie in \[0, 1\], got 1.44$"):
        sample_output_counts(1.2 * np.eye(2), (1, 0), rng_seed=0, shots=3)


def test_sampling_seed_and_shots_are_counts():
    u = ChipParams().matrix()
    occ = (0, 2, 2, 0)
    # None drew from OS entropy, True was seed 1, 2.0 and True shots raised
    # numpy's TypeError and -1 shots "negative dimensions"
    for seed, shots in ((None, 50), (True, 50), (1.0, 50), (-1, 50), (1, 2.0), (1, True), (1, -1)):
        with pytest.raises(ValueError, match=f"{'seed' if shots == 50 else 'shots'} must be an integer"):
            sample_output_counts(u, occ, rng_seed=seed, shots=shots)
    occs, counts = sample_output_counts(u, occ, rng_seed=np.int64(4), shots=np.int32(0))
    assert counts.sum() == 0 and len(occs) == len(counts)


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
