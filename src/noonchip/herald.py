"""Projection onto exact photon counts of herald modes.

A herald pattern demands exact counts on a subset of modes; projecting keeps
the matching component, records its squared norm as the herald probability,
and returns the renormalized conditional state on the remaining modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from . import evolve
from .circuit import ChipParams
from .fock import FockState, Occupation


@dataclass(frozen=True)
class HeraldPattern:
    """Exact counts required on some modes, e.g. {0: 1, 3: 1}: a herald, or
    the counted pattern of a fringe scan."""

    requirements: Mapping[int, int]

    def __post_init__(self):
        reqs = {int(m): int(n) for m, n in dict(self.requirements).items()}
        for m, n in reqs.items():
            if m < 0 or n < 0:
                raise ValueError(f"invalid count requirement {m}: {n}")
        if not reqs:
            raise ValueError("a count pattern needs at least one mode")
        object.__setattr__(self, "requirements", reqs)

    def modes(self) -> tuple[int, ...]:
        return tuple(sorted(self.requirements))

    def photon_count(self) -> int:
        return sum(self.requirements.values())


@dataclass(frozen=True)
class HeraldResult:
    """Outcome of a projective herald.

    probability is the squared norm of the kept component; the conditional
    state lives on the remaining modes (ascending original index) and is
    normalized.  An impossible herald is flagged by probability 0 and an
    empty conditional state, not an exception.
    """

    probability: float
    conditional_state: FockState
    kept_modes: tuple[int, ...]
    pattern: HeraldPattern = field(repr=False)

    @property
    def is_null(self) -> bool:
        return self.probability == 0.0

    def to_json_dict(self) -> dict:
        return {
            "probability": self.probability,
            "null": self.is_null,
            "kept_modes": list(self.kept_modes),
            "pattern": {str(m): n for m, n in sorted(self.pattern.requirements.items())},
            "state": self.conditional_state.to_json_dict(),
        }


def project(state: FockState, pattern: HeraldPattern) -> HeraldResult:
    """Projects onto the herald counts and strips the heralded modes."""
    for m in pattern.modes():
        if not 0 <= m < state.mode_count:
            raise ValueError(f"herald mode {m} out of range for {state.mode_count}-mode state")
    kept = tuple(m for m in range(state.mode_count) if m not in pattern.requirements)
    if not kept:
        raise ValueError("herald pattern covers every mode; nothing to condition on")

    reqs = pattern.requirements
    amps: dict[Occupation, complex] = {}
    for occ, amp in state.amplitudes.items():
        if all(occ[m] == n for m, n in reqs.items()):
            key = tuple(occ[m] for m in kept)
            amps[key] = amps.get(key, 0j) + amp

    probability = sum(abs(a) ** 2 for a in amps.values())
    if probability == 0.0:
        empty = FockState(len(kept), {})
        return HeraldResult(0.0, empty, kept, pattern)
    raw = FockState(len(kept), amps)
    return HeraldResult(raw.norm_squared(), raw.normalized(), kept, pattern)


def heralded_output(chip: ChipParams, input_state: FockState, pattern: HeraldPattern) -> HeraldResult:
    """Runs the chip on the input and projects onto the herald pattern."""
    evolved = evolve.apply(chip.matrix(), input_state)
    return project(evolved, pattern)
