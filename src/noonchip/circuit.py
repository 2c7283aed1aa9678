"""Linear-optical circuits: directional couplers, phase shifters, loss taps.

A directional coupler with transmissivity eta acts on its mode pair as

    [[ sqrt(eta),          i sqrt(1 - eta) ],
     [ i sqrt(1 - eta),    sqrt(eta)       ]]

and creation operators transform as a_k^dag -> sum_j U[j, k] a_j^dag, i.e.
columns index input modes and rows index output modes.  Loss is modeled as a
coupler into a fresh environment mode, which keeps the compiled matrix
unitary on the enlarged space.

The four-mode reconfigurable circuit reproduced here (modes 0..3, inputs
labeled a, b, c, d and outputs i, j, k, l) is

    DC2(1,2) . [DC3(0,1) (+) DC4(2,3)] . Phase(phi, 2) . DC1(1,2)

with device values eta1 = eta2 = 1/2 and eta3 = eta4 = 1/3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from .fock import check_keys, is_number, nonnegative_ints, probability


@dataclass(frozen=True)
class DirectionalCoupler:
    eta: float
    modes: tuple[int, int]

    def __post_init__(self):
        probability("directional coupler eta", self.eta)
        if self.modes[0] == self.modes[1]:
            raise ValueError("coupler needs two distinct modes")


@dataclass(frozen=True)
class PhaseShifter:
    phi: float
    mode: int

    def __post_init__(self):
        if not is_number(self.phi):
            raise ValueError(f"phase shifter phi must be a finite number, got {self.phi!r}")


@dataclass(frozen=True)
class LossTap:
    """Routes amplitude sqrt(1 - transmission) into a dedicated environment mode."""

    transmission: float
    mode: int
    env_mode: int

    def __post_init__(self):
        probability("loss tap transmission", self.transmission)
        if self.mode == self.env_mode:
            raise ValueError("loss tap needs a distinct environment mode")


Element = Union[DirectionalCoupler, PhaseShifter, LossTap]


@dataclass(frozen=True)
class Interferometer:
    """Ordered element list on mode_count modes (environment modes included)."""

    mode_count: int
    elements: tuple[Element, ...] = ()

    def __post_init__(self):
        for elem in self.elements:
            if max(nonnegative_ints(_element_modes(elem))) >= self.mode_count:
                raise ValueError(f"element {elem} references a mode outside 0..{self.mode_count - 1}")

    @property
    def signal_mode_count(self) -> int:
        """Mode count excluding loss-tap environment modes."""
        return self.mode_count - sum(isinstance(e, LossTap) for e in self.elements)


def _element_modes(elem: Element) -> tuple[int, ...]:
    if isinstance(elem, DirectionalCoupler):
        return elem.modes
    if isinstance(elem, PhaseShifter):
        return (elem.mode,)
    return (elem.mode, elem.env_mode)


def dc_matrix(eta: float) -> np.ndarray:
    """2x2 directional-coupler matrix for transmissivity eta."""
    probability("eta", eta)
    t = math.sqrt(eta)
    r = 1j * math.sqrt(1.0 - eta)
    return np.array([[t, r], [r, t]], dtype=np.complex128)


def element_matrix(elem: Element, mode_count: int) -> np.ndarray:
    """Element embedded into the identity on mode_count modes."""
    u = np.eye(mode_count, dtype=np.complex128)
    if isinstance(elem, DirectionalCoupler):
        block = dc_matrix(elem.eta)
        idx = list(elem.modes)
        u[np.ix_(idx, idx)] = block
    elif isinstance(elem, PhaseShifter):
        u[elem.mode, elem.mode] = complex(math.cos(elem.phi), math.sin(elem.phi))
    else:
        block = dc_matrix(elem.transmission)
        idx = [elem.mode, elem.env_mode]
        u[np.ix_(idx, idx)] = block
    return u


def compile_circuit(circ: Interferometer) -> np.ndarray:
    """Total mode transformation: later elements multiply from the left."""
    u = np.eye(circ.mode_count, dtype=np.complex128)
    for elem in circ.elements:
        u = element_matrix(elem, circ.mode_count) @ u
    return u


def chip_circuit(eta1: float, eta2: float, eta3: float, eta4: float, phi: float) -> Interferometer:
    """The four-mode heralding circuit; see the module docstring for layout."""
    elements = (
        DirectionalCoupler(eta1, (1, 2)),
        PhaseShifter(phi, 2),
        DirectionalCoupler(eta3, (0, 1)),
        DirectionalCoupler(eta4, (2, 3)),
        DirectionalCoupler(eta2, (1, 2)),
    )
    return Interferometer(4, elements)


@dataclass(frozen=True)
class ChipParams:
    """Coupler transmissivities and heater phase of the four-mode circuit."""

    eta1: float = 0.5
    eta2: float = 0.5
    eta3: float = 1.0 / 3.0
    eta4: float = 1.0 / 3.0
    phi: float = 0.0

    def circuit(self) -> Interferometer:
        return chip_circuit(self.eta1, self.eta2, self.eta3, self.eta4, self.phi)

    def matrix(self) -> np.ndarray:
        return compile_circuit(self.circuit())

    def with_phi(self, phi: float) -> "ChipParams":
        return replace(self, phi=phi)


def with_loss(circ: Interferometer, mode: int, transmission: float) -> Interferometer:
    """Appends a loss tap on the given mode, enlarging the circuit by one mode."""
    if not 0 <= mode < circ.mode_count:
        raise ValueError(f"mode {mode} out of range")
    tap = LossTap(transmission, mode, circ.mode_count)
    return Interferometer(circ.mode_count + 1, circ.elements + (tap,))


# -- serialization ---------------------------------------------------------
#
# {"modes": M, "elements": [
#    {"type": "dc", "eta": 0.5, "modes": [1, 2]},
#    {"type": "phase", "phi": 1.57, "mode": 2},
#    {"type": "loss", "t": 0.667, "mode": 0}]}
#
# "modes" counts signal modes only; environment modes for loss taps are
# assigned in element order after the signal modes on load.  A key outside
# this form is rejected, and so is a setting that is not a finite number or a
# mode that is not an integer (fock.is_number: a bool or a string is neither).

#: the keys each element type takes
ELEMENT_KEYS = {"dc": ("type", "eta", "modes"), "phase": ("type", "phi", "mode"),
                "loss": ("type", "t", "mode")}


def circuit_to_json_dict(circ: Interferometer) -> dict:
    elements = []
    for elem in circ.elements:
        if isinstance(elem, DirectionalCoupler):
            elements.append({"type": "dc", "eta": elem.eta, "modes": list(elem.modes)})
        elif isinstance(elem, PhaseShifter):
            elements.append({"type": "phase", "phi": elem.phi, "mode": elem.mode})
        else:
            elements.append({"type": "loss", "t": elem.transmission, "mode": elem.mode})
    return {"modes": circ.signal_mode_count, "elements": elements}


def circuit_from_json_dict(data: dict) -> Interferometer:
    check_keys(data, "circuit", ("modes", "elements"))
    elements: list[Element] = []
    next_env = data["modes"]
    if not is_number(next_env, int):
        raise ValueError(f"circuit modes must be an integer, got {next_env!r}")
    for entry in data.get("elements", []):
        kind = entry["type"]
        if kind not in ELEMENT_KEYS:
            raise ValueError(f"unknown element type {kind!r}")
        check_keys(entry, f"{kind} element", ELEMENT_KEYS[kind])
        modes = entry["modes"] if kind == "dc" else [entry["mode"]]
        if not all(is_number(m, int) for m in modes):
            raise ValueError(f"{kind} element modes must be integers, got {modes!r}")
        if kind == "dc":
            a, b = modes
            elements.append(DirectionalCoupler(entry["eta"], (a, b)))
        elif kind == "phase":
            elements.append(PhaseShifter(entry["phi"], modes[0]))
        else:
            elements.append(LossTap(entry["t"], modes[0], next_env))
            next_env += 1
    return Interferometer(next_env, tuple(elements))
