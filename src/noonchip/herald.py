"""Projection onto exact photon counts of herald modes.

A herald pattern demands exact counts on a subset of modes; projecting keeps
the matching component, records its squared norm as the herald probability,
and returns the renormalized conditional state on the remaining modes.
Patterns take int modes and counts; HeraldPattern.from_json_dict and
to_json_dict read and write a pattern's JSON form, whose keys are modes
written as str(mode).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from . import evolve
from .circuit import ChipParams
from .fock import MAX_COUNT, FockState, Occupation, nonnegative_ints, split

#: the most digits a mode can have; a longer pattern key names no mode
_MODE_DIGITS = len(str(MAX_COUNT))


@dataclass(frozen=True)
class HeraldPattern:
    """Exact counts required on some modes, e.g. {0: 1, 3: 1}: a herald, or
    the counted pattern of a fringe scan.  Modes and counts both follow the
    count rule (fock.nonnegative_ints), so a string mode such as "3" fails."""

    requirements: Mapping[int, int]

    def __post_init__(self):
        if not isinstance(self.requirements, Mapping):
            raise ValueError(f"a count pattern maps modes to counts, got {self.requirements!r}")
        reqs = dict(sorted(zip(nonnegative_ints(self.requirements),
                               nonnegative_ints(self.requirements.values()))))
        if not reqs:
            raise ValueError("a count pattern needs at least one mode")
        object.__setattr__(self, "requirements", reqs)  # in ascending mode order

    @classmethod
    def from_json_dict(cls, data) -> "HeraldPattern":
        """A JSON object of counts as a pattern.  A key names mode m only when it
        is str(m), the form to_json_dict writes, so "03", "+3", " 3", "1_0", "٣"
        and a key of more digits than any mode has name no mode."""
        if not isinstance(data, dict):
            raise ValueError(f"a count pattern maps modes to counts, got {data!r}")
        for key in data:
            if not (isinstance(key, str) and len(key) <= _MODE_DIGITS and key.isdecimal()
                    and str(int(key)) == key):
                raise ValueError(f"a pattern key is a mode written as str(mode), got {key!r}")
        return cls({int(key): n for key, n in data.items()})

    def to_json_dict(self) -> dict[str, int]:
        return {str(m): n for m, n in self.requirements.items()}

    def modes(self) -> tuple[int, ...]:
        return tuple(self.requirements)

    def counts(self) -> tuple[int, ...]:  # in the order of modes()
        return tuple(self.requirements.values())

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
            "pattern": self.pattern.to_json_dict(),
            "state": self.conditional_state.to_json_dict(),
        }


def project(state: FockState, pattern: HeraldPattern) -> HeraldResult:
    """Projects onto the herald counts and strips the heralded modes."""
    reqs = pattern.requirements
    part = split(state, reqs).get(pattern.counts(), {})
    kept = tuple(m for m in range(state.mode_count) if m not in reqs)
    return HeraldResult(*condition(part, len(kept)), kept, pattern)


def condition(part: Mapping[Occupation, complex], mode_count: int) -> tuple[float, FockState]:
    """(squared norm, normalized state) of one part of fock.split on the
    mode_count modes not heralded; an empty part, a null herald, gives 0.0.
    The part's keys, cut from a state's checked keys, are not checked again."""
    if mode_count == 0:
        raise ValueError("herald pattern covers every mode; nothing to condition on")
    norm2 = sum((abs(a) ** 2 for a in part.values()), 0.0)  # split's terms: each above PRUNE_EPS, norm2 <= 1
    norm = math.sqrt(norm2)
    return norm2, FockState._from_checked(mode_count, part, [a / norm for a in part.values()])


def heralded_output(chip: ChipParams, input_state: FockState, pattern: HeraldPattern) -> HeraldResult:
    """Runs the chip on the input and projects onto the herald pattern."""
    evolved = evolve.apply(chip.matrix(), input_state)
    return project(evolved, pattern)
