"""Linear-optical circuits: directional couplers, phase shifters, loss taps.

A directional coupler with transmissivity eta acts on its mode pair as

    [[ sqrt(eta),          i sqrt(1 - eta) ],
     [ i sqrt(1 - eta),    sqrt(eta)       ]]

and creation operators transform as a_k^dag -> sum_j U[j, k] a_j^dag, i.e.
columns index input modes and rows index output modes.  Loss is modeled as a
coupler into a fresh environment mode, which keeps the compiled matrix
unitary on the enlarged space.  Each element knows its modes, and
compile_circuit applies it to those rows of the running matrix only.

The four-mode reconfigurable circuit reproduced here (modes 0..3, inputs
labeled a, b, c, d and outputs i, j, k, l) is

    DC2(1,2) . [DC3(0,1) (+) DC4(2,3)] . Phase(phi, 2) . DC1(1,2)

with device values eta1 = eta2 = 1/2 and eta3 = eta4 = 1/3, the defaults of
ChipParams, which builds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from .fock import check_keys, count, json_list, nonnegative_ints, number, probability


@dataclass(frozen=True)
class DirectionalCoupler:
    eta: float
    modes: tuple[int, int]

    def __post_init__(self):
        probability("directional coupler eta", self.eta)
        modes = tuple(self.modes) if isinstance(self.modes, Iterable) else ()  # a bare 3 is no pair
        if len(modes) != 2 or modes[0] == modes[1]:
            raise ValueError("coupler needs two distinct modes")
        object.__setattr__(self, "modes", modes)


@dataclass(frozen=True)
class PhaseShifter:
    phi: float
    mode: int

    def __post_init__(self):
        number("phase shifter phi", self.phi)

    @property
    def modes(self) -> tuple[int]:
        return (self.mode,)


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

    @property
    def modes(self) -> tuple[int, int]:
        return (self.mode, self.env_mode)


Element = Union[DirectionalCoupler, PhaseShifter, LossTap]


@dataclass(frozen=True)
class Interferometer:
    """Ordered element list on mode_count modes (environment modes included)."""

    mode_count: int
    elements: tuple[Element, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "mode_count", count("interferometer mode_count", self.mode_count))
        for elem in self.elements:
            if max(nonnegative_ints(elem.modes)) >= self.mode_count:
                raise ValueError(f"element {elem} references a mode outside 0..{self.mode_count - 1}")

    @property
    def signal_mode_count(self) -> int:
        """Mode count excluding loss-tap environment modes."""
        return self.mode_count - sum(isinstance(e, LossTap) for e in self.elements)


def dc_matrix(eta: float) -> np.ndarray:
    """2x2 directional-coupler matrix for transmissivity eta."""
    probability("eta", eta)
    t = math.sqrt(eta)
    r = 1j * math.sqrt(1.0 - eta)
    return np.array([[t, r], [r, t]], dtype=np.complex128)


def compile_circuit(circ: Interferometer) -> np.ndarray:
    """Total mode transformation: each element replaces its own rows of the
    matrix so far by its 2x2 block times them, later elements on the left.
    The block goes through BLAS, which rounds as a full matrix product does
    (a scalar multiply differs in the last bit): a phase is e^{i phi} times
    the identity on its row taken twice, both rows of the product equal, and a
    coupler's symmetric block takes its rows ascending, the order a full
    product sums in, as one strided view of the matrix."""
    u = np.eye(circ.mode_count, dtype=np.complex128)
    for elem in circ.elements:
        if isinstance(elem, PhaseShifter):
            rows = [elem.mode] * 2
            block = complex(math.cos(elem.phi), math.sin(elem.phi)) * np.eye(2)
        else:
            a, b = sorted(elem.modes)
            rows = slice(a, b + 1, b - a)
            block = dc_matrix(elem.eta if isinstance(elem, DirectionalCoupler) else elem.transmission)
        u[rows] = block @ u[rows]
    return u


@dataclass(frozen=True)
class ChipParams:
    """Coupler transmissivities and heater phase of the four-mode circuit."""

    eta1: float = 0.5
    eta2: float = 0.5
    eta3: float = 1.0 / 3.0
    eta4: float = 1.0 / 3.0
    phi: float = 0.0

    def circuit(self) -> Interferometer:
        """The four-mode heralding circuit; see the module docstring for layout."""
        return Interferometer(4, (
            DirectionalCoupler(self.eta1, (1, 2)),
            PhaseShifter(self.phi, 2),
            DirectionalCoupler(self.eta3, (0, 1)),
            DirectionalCoupler(self.eta4, (2, 3)),
            DirectionalCoupler(self.eta2, (1, 2)),
        ))

    def matrix(self) -> np.ndarray:
        return compile_circuit(self.circuit())


def with_loss(circ: Interferometer, mode: int, transmission: float) -> Interferometer:
    """Appends a loss tap on the given mode, enlarging the circuit by one mode."""
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
# assigned in element order after the signal modes on load.  Each object and list
# passes fock.check_keys or fock.json_list before it is read; a setting that is not a
# finite number, or a mode or mode count that fails fock's count rule, is rejected.

#: the keys each element type takes besides "type"
ELEMENT_KEYS = {"dc": ("eta", "modes"), "phase": ("phi", "mode"), "loss": ("t", "mode")}


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
    check_keys(data, "circuit", ("modes",), ("elements",))
    elements: list[Element] = []
    next_env = count("circuit modes", data["modes"])
    for entry in json_list("circuit elements", data.get("elements", [])):
        kind = check_keys(entry, "element", ("type",), sum(ELEMENT_KEYS.values(), ()))["type"]
        if not isinstance(kind, str) or kind not in ELEMENT_KEYS:
            raise ValueError(f"unknown element type {kind!r}")
        check_keys(entry, f"{kind} element", ("type",) + ELEMENT_KEYS[kind])
        if kind == "dc":
            elements.append(DirectionalCoupler(entry["eta"], entry["modes"]))
        elif kind == "phase":
            elements.append(PhaseShifter(entry["phi"], entry["mode"]))
        else:
            elements.append(LossTap(entry["t"], entry["mode"], next_env))
            next_env += 1
    return Interferometer(next_env, tuple(elements))
