"""noonchip: heralded photon-number path entanglement on a four-mode chip.

Simulates multimode Fock-state evolution through reconfigurable
directional-coupler circuits, projective heralding, splitter-cascade click
statistics, pair-source contamination, clocked coincidence counting, and
super-resolved phase fringes.
"""

from .circuit import ChipParams, compile_circuit, dc_matrix, with_loss
from .evolve import amplitude, apply
from .fock import (
    FockState,
    inner_product,
    make_noon,
    marginal_distribution,
    state_fidelity,
)
from .herald import HeraldPattern, HeraldResult, heralded_output, project

__version__ = "0.1.0"

__all__ = [
    "ChipParams",
    "FockState",
    "HeraldPattern",
    "HeraldResult",
    "__version__",
    "amplitude",
    "apply",
    "compile_circuit",
    "dc_matrix",
    "heralded_output",
    "inner_product",
    "make_noon",
    "marginal_distribution",
    "project",
    "state_fidelity",
    "with_loss",
]
