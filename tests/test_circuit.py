"""Circuit elements, compilation order, chip layout, loss taps, JSON I/O."""

import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from noonchip.circuit import (
    ChipParams,
    DirectionalCoupler,
    Interferometer,
    LossTap,
    PhaseShifter,
    circuit_from_json_dict,
    circuit_to_json_dict,
    compile_circuit,
    dc_matrix,
    with_loss,
)
from noonchip.evolve import apply, is_unitary
from noonchip.fock import FockState
from noonchip.herald import HeraldPattern, heralded_output


def test_dc_matrix_form():
    eta = 0.3
    u = dc_matrix(eta)
    t = math.sqrt(eta)
    r = math.sqrt(1 - eta)
    assert u[0, 0] == pytest.approx(t)
    assert u[1, 1] == pytest.approx(t)
    assert u[0, 1] == pytest.approx(1j * r)
    assert u[1, 0] == pytest.approx(1j * r)


@pytest.mark.parametrize("eta", [0.0, 1e-6, 1 / 3, 0.5, 0.9, 1.0])
def test_dc_matrix_unitary(eta):
    u = dc_matrix(eta)
    assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-15


def test_dc_matrix_eta_bounds():
    for bad in (-0.1, 1.1, math.nan, True, "0.5"):
        with pytest.raises(ValueError, match="eta must lie in"):
            dc_matrix(bad)


def test_element_matrix_embedding():
    u = compile_circuit(Interferometer(4, (DirectionalCoupler(0.5, (1, 2)),)))
    core = dc_matrix(0.5)
    assert u[0, 0] == 1.0 and u[3, 3] == 1.0
    assert np.allclose(u[1:3, 1:3], core)
    assert u[0, 1] == 0.0 and u[3, 2] == 0.0
    p = compile_circuit(Interferometer(3, (PhaseShifter(0.7, 2),)))
    assert p[2, 2] == pytest.approx(np.exp(0.7j))
    assert p[0, 0] == 1.0


def test_compile_applies_later_elements_on_the_left():
    circ = Interferometer(
        2, (DirectionalCoupler(0.5, (0, 1)), PhaseShifter(math.pi, 0))
    )
    u = compile_circuit(circ)
    expected = np.diag([-1.0 + 0j, 1.0]) @ dc_matrix(0.5)
    assert np.max(np.abs(u - expected)) < 1e-15


def test_two_balanced_couplers_swap_modes():
    circ = Interferometer(
        2, (DirectionalCoupler(0.5, (0, 1)), DirectionalCoupler(0.5, (0, 1)))
    )
    u = compile_circuit(circ)
    assert np.max(np.abs(u - np.array([[0, 1j], [1j, 0]]))) < 1e-15


def test_random_circuits_compile_to_unitaries():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        m = int(rng.integers(2, 6))
        elems = []
        for _ in range(int(rng.integers(1, 9))):
            if rng.random() < 0.5:
                lo = int(rng.integers(0, m - 1))
                elems.append(DirectionalCoupler(float(rng.random()), (lo, lo + 1)))
            else:
                elems.append(
                    PhaseShifter(float(rng.uniform(0, 2 * math.pi)), int(rng.integers(0, m)))
                )
        u = compile_circuit(Interferometer(m, tuple(elems)))
        assert np.max(np.abs(u.conj().T @ u - np.eye(m))) < 1e-12


def embedded_product(circ):
    """Test oracle: each element embedded into the identity on all modes, the
    products taken over the full matrices, later elements on the left."""
    u = np.eye(circ.mode_count, dtype=np.complex128)
    for elem in circ.elements:
        e = np.eye(circ.mode_count, dtype=np.complex128)
        if isinstance(elem, PhaseShifter):
            e[elem.mode, elem.mode] = complex(math.cos(elem.phi), math.sin(elem.phi))
        else:
            eta = elem.eta if isinstance(elem, DirectionalCoupler) else elem.transmission
            idx = list(elem.modes)
            e[np.ix_(idx, idx)] = dc_matrix(eta)
        u = e @ u
    return u


def random_circuit(rng):
    """Couplers on any two distinct modes in either order, phases, and loss
    taps into fresh environment modes that later elements may touch too.  Two
    signal modes at least: on one mode the oracle's 1x1 products go through
    another numpy path than the 2x2 blocks and round differently."""
    m = int(rng.integers(2, 9))
    elems = []
    for _ in range(int(rng.integers(1, 14))):
        kind = rng.random()
        if kind < 0.45:
            a, b = (int(x) for x in rng.choice(m, size=2, replace=False))
            elems.append(DirectionalCoupler(float(rng.random()), (a, b)))
        elif kind < 0.85:
            elems.append(PhaseShifter(float(rng.uniform(-10, 10)), int(rng.integers(0, m))))
        else:
            elems.append(LossTap(float(rng.random()), int(rng.integers(0, m)), m))
            m += 1
    return Interferometer(m, tuple(elems))


def test_compile_circuit_matches_embedded_product_bit_for_bit():
    rng = np.random.default_rng(18)
    taps = 0
    for _ in range(1500):
        circ = random_circuit(rng)
        taps += circ.mode_count - circ.signal_mode_count
        assert np.array_equal(compile_circuit(circ), embedded_product(circ))
    assert taps > 100
    for phi in np.linspace(0.0, 4.0 * math.pi, 257):
        circ = ChipParams(phi=float(phi)).circuit()
        assert np.array_equal(compile_circuit(circ), embedded_product(circ))


def test_chip_circuit_layout():
    circ = ChipParams(0.5, 0.5, 1 / 3, 1 / 3, 0.2).circuit()
    assert circ.mode_count == 4
    kinds = [type(e).__name__ for e in circ.elements]
    assert kinds == [
        "DirectionalCoupler",
        "PhaseShifter",
        "DirectionalCoupler",
        "DirectionalCoupler",
        "DirectionalCoupler",
    ]


def test_chip_params_matrix_unitary_and_periodic():
    p = ChipParams(phi=0.37)
    u = p.matrix()
    assert is_unitary(u, tol=1e-12)
    u2 = replace(p, phi=0.37 + 2 * math.pi).matrix()
    assert np.max(np.abs(u - u2)) < 1e-12


def test_chip_matrix_is_its_compiled_circuit_bit_for_bit():
    # the oracle is the embedded product of the paper's layout, built here:
    # DC1(1,2), Phase(phi, 2), DC3(0,1), DC4(2,3), DC2(1,2).  A float32 eta
    # equals the float of its value, yet gives other blocks, as 1 - eta stays float32
    rng = np.random.default_rng(28)
    eta_sets = []
    for _ in range(60):
        etas = [np.float32(x) for x in rng.random(4)]
        eta_sets += [[float(x) for x in etas], etas]
    eta_sets += [[0.0, 1.0, -0.0, 1 / 3], [1, 0, np.float64(0.5), np.float32(1 / 3)]]
    for etas in eta_sets:
        for phi in rng.normal(scale=4.0, size=3).tolist() + [0.0]:
            eta1, eta2, eta3, eta4 = etas
            layout = Interferometer(4, (
                DirectionalCoupler(eta1, (1, 2)), PhaseShifter(phi, 2), DirectionalCoupler(eta3, (0, 1)),
                DirectionalCoupler(eta4, (2, 3)), DirectionalCoupler(eta2, (1, 2))))
            assert np.array_equal(ChipParams(*etas, phi=phi).matrix(), embedded_product(layout))
    last_float32 = ChipParams(*eta_sets[0][:3], np.float32(eta_sets[0][3])).matrix()
    assert not np.array_equal(last_float32, ChipParams(*eta_sets[0]).matrix())


def test_chip_matrix_is_fresh():
    chip = ChipParams(0.4, 0.6, 0.3, 0.2, phi=0.9)
    first = chip.matrix()
    first[:] = 7.0
    assert np.array_equal(chip.matrix(), compile_circuit(chip.circuit()))


def chip_error(build):
    with pytest.raises(ValueError) as info:
        build()
    return str(info.value)


def test_chip_matrix_rejects_bad_settings_as_its_circuit_does():
    bad_etas = ([0.5], "0.5", math.nan, 1.5, None, True)
    for name in ("eta1", "eta2", "eta3", "eta4"):
        for bad in bad_etas:
            chip = replace(ChipParams(), **{name: bad})
            message = chip_error(chip.matrix)
            assert message == f"directional coupler eta must lie in [0, 1], got {bad!r}"
            assert message == chip_error(chip.circuit)
    message = chip_error(ChipParams(phi="0.5").matrix)
    assert message == "phase shifter phi must be a finite number, got '0.5'"
    # two bad settings: the first in the circuit's element order names itself
    for a, b in itertools.combinations(("eta1", "phi", "eta3", "eta4", "eta2"), 2):
        chip = replace(ChipParams(), **{a: "bad-" + a, b: "bad-" + b})
        assert "bad-" + a in chip_error(chip.matrix)
        assert chip_error(chip.matrix) == chip_error(chip.circuit)


def test_chip_params_defaults():
    p = ChipParams()
    assert p.eta1 == 0.5 and p.eta2 == 0.5
    assert p.eta3 == pytest.approx(1 / 3)
    assert p.eta4 == pytest.approx(1 / 3)
    assert p.phi == 0.0


def test_transparent_outer_couplers_never_herald():
    # eta3 = eta4 = 1 keeps all photons on the inner pair, so the
    # single-photon herald on each outer mode can never fire
    chip = ChipParams(eta3=1.0, eta4=1.0, phi=0.9)
    res = heralded_output(
        chip, FockState.basis_state((0, 2, 2, 0)), HeraldPattern({0: 1, 3: 1})
    )
    assert res.probability == 0.0
    assert res.is_null


def test_with_loss_adds_environment_mode():
    circ = Interferometer(2, (DirectionalCoupler(0.5, (0, 1)),))
    lossy = with_loss(circ, 0, 0.7)
    assert lossy.mode_count == 3
    assert lossy.signal_mode_count == 2
    u = compile_circuit(lossy)
    assert is_unitary(u, tol=1e-12)


def test_loss_tap_transmission_probability():
    # photon survives a bare 0.7 tap with probability 0.7
    circ = with_loss(Interferometer(1, ()), 0, 0.7)
    out = apply(compile_circuit(circ), FockState.basis_state((1, 0)))
    assert abs(out.amplitude((1, 0))) ** 2 == pytest.approx(0.7, abs=1e-12)
    assert abs(out.amplitude((0, 1))) ** 2 == pytest.approx(0.3, abs=1e-12)


def test_loss_tap_bounds():
    with pytest.raises(ValueError):
        with_loss(Interferometer(1, ()), 0, 1.2)
    with pytest.raises(ValueError):
        with_loss(Interferometer(1, ()), 0, -0.1)


def test_element_mode_range_validation():
    with pytest.raises(ValueError):
        Interferometer(2, (DirectionalCoupler(0.5, (1, 2)),))
    with pytest.raises(ValueError):
        Interferometer(2, (PhaseShifter(0.1, 5),))
    with pytest.raises(ValueError):
        Interferometer(2, (DirectionalCoupler(0.5, (1, 1)),))
    # a fractional mode reached compile_circuit and failed there as an IndexError
    for elem in (DirectionalCoupler(0.5, (0.5, 1)), PhaseShifter(0.1, -1), LossTap(0.5, 0, 1.5)):
        with pytest.raises(ValueError, match="non-negative integers"):
            Interferometer(2, (elem,))
    # a bool mode passed the count rule and numpy read it as a mask: on two
    # modes compile_circuit gave a wrong matrix, on three an IndexError; a
    # mode count of 2.0 was kept as a float
    with pytest.raises(ValueError, match="got True"):
        compile_circuit(Interferometer(2, (PhaseShifter(0.3, True),)))
    with pytest.raises(ValueError, match="got True"):
        Interferometer(3, (PhaseShifter(0.3, True),))
    for bad in (2.0, True):
        with pytest.raises(ValueError, match="interferometer mode_count must be an integer"):
            Interferometer(bad, ())
    assert type(Interferometer(np.int64(2), ()).mode_count) is int


def test_coupler_needs_exactly_two_distinct_modes():
    # three modes reached compile_circuit and failed there unpacking them, one
    # mode raised an IndexError
    for modes in ((0, 1, 2), (1,), (), (2, 2)):
        with pytest.raises(ValueError, match="coupler needs two distinct modes"):
            DirectionalCoupler(0.5, modes)


def test_json_round_trip_preserves_matrix():
    circ = ChipParams(0.42, 0.5, 0.3, 0.35, 1.1).circuit()
    back = circuit_from_json_dict(json.loads(json.dumps(circuit_to_json_dict(circ))))
    assert np.max(np.abs(compile_circuit(back) - compile_circuit(circ))) < 1e-15


def test_json_round_trip_with_loss():
    circ = with_loss(with_loss(ChipParams(0.5, 0.5, 1 / 3, 1 / 3, 0.0).circuit(), 0, 2 / 3), 3, 2 / 3)
    back = circuit_from_json_dict(json.loads(json.dumps(circuit_to_json_dict(circ))))
    assert back.mode_count == circ.mode_count
    assert back.signal_mode_count == 4
    assert np.max(np.abs(compile_circuit(back) - compile_circuit(circ))) < 1e-15


def test_json_rejects_unknown_element_type():
    with pytest.raises(ValueError):
        circuit_from_json_dict({"modes": 2, "elements": [{"type": "squeezer"}]})


def test_json_rejects_labels_key():
    # port labels were read and kept, but no result ever depended on them
    data = {**circuit_to_json_dict(ChipParams().circuit()), "labels": {"zz": 99}}
    with pytest.raises(ValueError, match="labels"):
        circuit_from_json_dict(data)


@pytest.mark.parametrize("build, message", [
    (lambda x: DirectionalCoupler(x, (0, 1)), "directional coupler eta"),
    (lambda x: PhaseShifter(x, 0), "phase shifter phi"),
    (lambda x: LossTap(x, 0, 1), "loss tap transmission"),
], ids=["coupler", "phase", "loss"])
def test_element_rejects_non_finite_setting(build, message):
    # an infinite phase reached math.cos and failed as "math domain error"
    for value in (math.inf, -math.inf, math.nan, "0.5", True):
        with pytest.raises(ValueError, match=message):
            build(value)
