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
from .fock import FockState, Occupation, nonnegative_ints, split


@dataclass(frozen=True)
class HeraldPattern:
    """Exact counts required on some modes, e.g. {0: 1, 3: 1}: a herald, or
    the counted pattern of a fringe scan."""

    requirements: Mapping[int, int]

    def __post_init__(self):
        given = dict(self.requirements)  # a JSON object's string keys are parsed as ints
        modes = nonnegative_ints(int(m) if isinstance(m, str) else m for m in given)
        reqs = dict(zip(modes, nonnegative_ints(given.values())))
        if len(reqs) != len(given):  # e.g. "3" and "03"
            raise ValueError(f"two keys of {given!r} name the same mode")
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
    reqs = pattern.requirements
    part = split(state, reqs).get(tuple(reqs[m] for m in pattern.modes()), {})
    kept = tuple(m for m in range(state.mode_count) if m not in reqs)
    return HeraldResult(*condition(part, len(kept)), kept, pattern)


def condition(part: Mapping[Occupation, complex], mode_count: int) -> tuple[float, FockState]:
    """(squared norm, normalized state) of one part of fock.split on the
    mode_count modes not heralded; an empty part, a null herald, gives 0.0."""
    if mode_count == 0:
        raise ValueError("herald pattern covers every mode; nothing to condition on")
    raw = FockState(mode_count, part)
    return (raw.norm_squared(), raw.normalized()) if part else (0.0, raw)


def heralded_output(chip: ChipParams, input_state: FockState, pattern: HeraldPattern) -> HeraldResult:
    """Runs the chip on the input and projects onto the herald pattern."""
    evolved = evolve.apply(chip.matrix(), input_state)
    return project(evolved, pattern)
