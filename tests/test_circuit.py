"""Circuit elements, compilation order, chip layout, loss taps, JSON I/O."""

import json
import math

import numpy as np
import pytest

from noonchip.circuit import (
    ChipParams,
    DirectionalCoupler,
    Interferometer,
    LossTap,
    PhaseShifter,
    chip_circuit,
    circuit_from_json_dict,
    circuit_to_json_dict,
    compile_circuit,
    dc_matrix,
    element_matrix,
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
    u = element_matrix(DirectionalCoupler(0.5, (1, 2)), 4)
    core = dc_matrix(0.5)
    assert u[0, 0] == 1.0 and u[3, 3] == 1.0
    assert np.allclose(u[1:3, 1:3], core)
    assert u[0, 1] == 0.0 and u[3, 2] == 0.0
    p = element_matrix(PhaseShifter(0.7, 2), 3)
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


def test_chip_circuit_layout():
    circ = chip_circuit(0.5, 0.5, 1 / 3, 1 / 3, 0.2)
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
    u2 = p.with_phi(0.37 + 2 * math.pi).matrix()
    assert np.max(np.abs(u - u2)) < 1e-12


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


def test_json_round_trip_preserves_matrix():
    circ = chip_circuit(0.42, 0.5, 0.3, 0.35, 1.1)
    back = circuit_from_json_dict(json.loads(json.dumps(circuit_to_json_dict(circ))))
    assert np.max(np.abs(compile_circuit(back) - compile_circuit(circ))) < 1e-15


def test_json_round_trip_with_loss():
    circ = with_loss(with_loss(chip_circuit(0.5, 0.5, 1 / 3, 1 / 3, 0.0), 0, 2 / 3), 3, 2 / 3)
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
