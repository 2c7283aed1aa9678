"""Named scenario configurations and their runners.

A ScenarioConfig captures one reproducible computation: circuit settings, an
input state, optional herald pattern, detection topology, and sweep settings.
Each kind reads a fixed set of the optional fields (OPTIONAL_FIELDS) and
cannot run without some of them (REQUIRED_FIELDS); a config that sets any
other field is rejected.  A ScenarioConfig checks only this structure; each
value is checked where it is read, by what it builds or by the runner.  Configs
serialize to JSON and round-trip identically, and every preset below
reproduces one of the chip's benchmark curves:

* fig2a          heralded two-photon path entanglement at phi = 0
* fig2b-sagnac   readout of the heralded state through the reverse pass
* fig3a          single-photon fringe, period 2 pi
* fig3b          heralded four-photon fringe, period pi (sixfold coincidence)
* fig3b-4point   the same at only four phase settings (no period fit)
* fig4           heralded |4::0> generation at phi = pi/2
* fig4-contamination   higher-order-pair contamination of the fig4 signature
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Mapping, TypeVar

import numpy as np

from . import analysis, detect, evolve, herald, source
from .circuit import ChipParams, Interferometer, circuit_from_json_dict, compile_circuit
from .fock import NORM_TOL, FockState, is_number

T = TypeVar("T")


class ConfigError(ValueError):
    """A scenario configuration is malformed or inconsistent."""


class NumericError(RuntimeError):
    """A computation produced numerically invalid results."""


def load_json(path, what: str):
    """Parsed JSON file; a missing file or bad JSON raises ConfigError."""
    file = Path(path)
    if not file.is_file():
        raise ConfigError(f"{what} file not found: {file}")
    try:
        return json.loads(file.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {file}: {exc}") from exc


def _parse(what: str, build: Callable[[], T]) -> T:
    """build(); a KeyError, TypeError or ValueError from it is bad <what> input,
    and so is an OverflowError (a JSON number too large for a float)."""
    try:
        return build()
    except KeyError as exc:
        raise ConfigError(f"bad {what}: missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


def _block(block: dict, what: str):
    """The JSON an inline or file block holds."""
    return block["inline"] if "inline" in block else load_json(block["file"], what)


def _one_of(block, name: str, keys: tuple[str, ...]) -> None:
    if not isinstance(block, dict) or len(block) != 1 or next(iter(block)) not in keys:
        raise ConfigError(f"{name} must give exactly one of: {', '.join(keys)}")
    if not isinstance(block.get("file", ""), str):
        raise ConfigError(f"{name}.file must be a path string")


def _count_pattern(data) -> herald.HeraldPattern:
    """A JSON object of counts as a HeraldPattern.  A key names mode m only
    when it is str(m), the form HeraldResult.to_json_dict writes, so "03",
    "+3", " 3", "1_0" and "٣" name no mode."""
    if not isinstance(data, dict):
        raise ValueError(f"a count pattern maps modes to counts, got {data!r}")
    for key in data:
        if str(int(key)) != key:  # int("x") raises on its own
            raise ValueError(f"a pattern key is a mode written as str(mode), got {key!r}")
    return herald.HeraldPattern({int(key): n for key, n in data.items()})


#: the optional fields each scenario kind reads; setting any other is an error
OPTIONAL_FIELDS = {
    "simulate": ("herald",),
    "sagnac": ("herald",),
    "fringe": ("sweep",),
    "contamination": ("herald", "detection", "signal_photons"),
}

#: the optional fields a scenario kind cannot run without
REQUIRED_FIELDS = {
    "sagnac": ("herald",),
    "fringe": ("sweep",),
    "contamination": ("herald", "signal_photons"),
}


@dataclass
class ScenarioConfig:
    name: str
    kind: str  # one of OPTIONAL_FIELDS
    circuit: dict
    input: dict
    herald: dict[str, int] | None = None
    detection: dict | None = None
    sweep: dict | None = None
    signal_photons: int | None = None

    def __post_init__(self):
        if self.kind not in OPTIONAL_FIELDS:
            raise ConfigError(f"unknown scenario kind {self.kind!r}")
        _one_of(self.circuit, "circuit", ("chip", "file", "inline"))
        _one_of(self.input, "input", ("occupation", "state", "spdc"))
        given = [
            name
            for name in ("herald", "detection", "sweep", "signal_photons")
            if getattr(self, name) is not None
        ]
        unread = [name for name in given if name not in OPTIONAL_FIELDS[self.kind]]
        if unread:
            raise ConfigError(f"{self.kind} scenarios do not read: {', '.join(unread)}")
        missing = [name for name in REQUIRED_FIELDS.get(self.kind, ()) if name not in given]
        if missing:
            raise ConfigError(f"{self.kind} scenarios need: {', '.join(missing)}")
        if self.detection is not None:
            _one_of(self.detection, "detection", ("file", "inline"))
        sweep = self.sweep
        if sweep is not None and not (isinstance(sweep, dict) and set(sweep) == {"grid", "pattern"}):
            raise ConfigError("sweep takes exactly a grid and a pattern")

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, data) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        extra = set(data) - set(cls.__dataclass_fields__)
        if extra:
            raise ConfigError(f"unknown config fields: {', '.join(sorted(extra))}")
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_file(cls, path) -> "ScenarioConfig":
        """Loads a config; relative circuit and detection file paths are taken
        relative to the config file's directory."""
        config = cls.from_json_dict(load_json(path, "config"))
        base_dir = Path(path).resolve().parent
        for block in (config.circuit, config.detection):
            if block is not None and "file" in block:
                block["file"] = str(base_dir / block["file"])
        return config

    # -- resolution ---------------------------------------------------------

    def chip_params(self) -> ChipParams:
        if "chip" not in self.circuit:
            raise ConfigError(f"{self.kind} scenarios need circuit.chip settings")
        return _parse("chip settings", lambda: ChipParams(**self.circuit["chip"]))

    def interferometer(self) -> Interferometer:
        if "chip" in self.circuit:
            return self.chip_params().circuit()
        data = _block(self.circuit, "circuit")
        return _parse("circuit", lambda: circuit_from_json_dict(data))

    def input_state(self, mode_count: int) -> FockState:
        if "spdc" in self.input:
            params = self.spdc_params()
            if mode_count != 4:
                raise ConfigError("the pair-source input is defined on the four-mode chip")
            return source.spdc_chip_input(params)
        if "occupation" in self.input:
            state = _parse("input.occupation", lambda: FockState.basis_state(self.input["occupation"]))
        else:
            state = _parse("input.state", lambda: FockState.from_json_dict(self.input["state"]))
            if abs(state.norm_squared() - 1.0) > NORM_TOL:
                raise ConfigError(f"input.state must be normalized (norm^2 = {state.norm_squared()!r})")
        if state.mode_count != mode_count:
            raise ConfigError(f"input has {state.mode_count} modes, circuit has {mode_count}")
        return state

    def spdc_params(self) -> source.SpdcParams:
        if "spdc" not in self.input:
            raise ConfigError("this scenario needs a pair-source input block")
        return _parse("pair-source settings", lambda: source.SpdcParams(**self.input["spdc"]))

    def herald_pattern(self) -> herald.HeraldPattern | None:
        if self.herald is None:
            return None
        return _parse("herald pattern", lambda: _count_pattern(self.herald))

    def detection_topology(self) -> tuple[list[detect.SplitterTree], detect.DetectorModel]:
        """The detection block's trees and model; detect.paper_6fold_topology() without one."""
        if self.detection is None:
            return detect.paper_6fold_topology()
        data = _block(self.detection, "detection topology")
        return _parse("detection topology", lambda: detect.topology_from_json_dict(data))

    def sweep_grid(self) -> np.ndarray:
        grid = self.sweep["grid"]
        if not (isinstance(grid, (list, tuple)) and all(is_number(x) for x in grid)):
            raise ConfigError("sweep.grid must be a list of finite numbers")
        return np.asarray([float(x) for x in grid])

    def sweep_pattern(self) -> herald.HeraldPattern:
        return _parse("sweep pattern", lambda: _count_pattern(self.sweep["pattern"]))


# -- presets -----------------------------------------------------------------


def _chip_block(phi: float) -> dict:
    return {"chip": asdict(ChipParams(phi=phi))}


_DENSE_GRID = [4.0 * math.pi * i / 256 for i in range(256)]
_FOUR_POINTS = [math.pi / 2.0, math.pi, 3.0 * math.pi / 2.0, 2.0 * math.pi]
_HERALD_IL = {"0": 1, "3": 1}
_SIX_FOLD = {"0": 1, "1": 4, "2": 0, "3": 1}

#: the named benchmark scenarios, as ScenarioConfig fields without the name
PRESETS: dict[str, dict] = {
    "fig2a": dict(
        kind="simulate",
        circuit=_chip_block(0.0),
        input={"occupation": [0, 2, 2, 0]},
        herald=_HERALD_IL,
    ),
    "fig4": dict(
        kind="simulate",
        circuit=_chip_block(math.pi / 2.0),
        input={"occupation": [0, 3, 3, 0]},
        herald=_HERALD_IL,
    ),
    "fig2b-sagnac": dict(
        kind="sagnac",
        circuit=_chip_block(0.0),
        input={"occupation": [0, 2, 2, 0]},
        herald=_HERALD_IL,
    ),
    "fig3a": dict(
        kind="fringe",
        circuit=_chip_block(0.0),
        input={"occupation": [0, 1, 0, 0]},
        sweep={"grid": _DENSE_GRID, "pattern": {"1": 1}},
    ),
    "fig3b": dict(
        kind="fringe",
        circuit=_chip_block(0.0),
        input={"occupation": [0, 3, 3, 0]},
        sweep={"grid": _DENSE_GRID, "pattern": _SIX_FOLD},
    ),
    "fig3b-4point": dict(
        kind="fringe",
        circuit=_chip_block(0.0),
        input={"occupation": [0, 3, 3, 0]},
        sweep={"grid": _FOUR_POINTS, "pattern": _SIX_FOLD},
    ),
    "fig4-contamination": dict(
        kind="contamination",
        circuit=_chip_block(math.pi / 2.0),
        input={"spdc": {"xi": 0.085, "n_max": 4}},
        herald=_HERALD_IL,
        signal_photons=4,
    ),
}

PRESET_NAMES = tuple(sorted(PRESETS))


def preset(name: str) -> ScenarioConfig:
    """One of the named benchmark scenarios; raises ConfigError if unknown."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    return ScenarioConfig(name=name, **copy.deepcopy(PRESETS[name]))


# -- runners -------------------------------------------------------------------


def _dump_json(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


@dataclass
class ScenarioOutput:
    """Result of a scenario run: summary lines plus named output files."""

    summary: list[str]
    files: dict[str, str] = field(default_factory=dict)


def _distribution_files(
    output: ScenarioOutput, dist: Mapping, fmt: str, list_outcomes: bool = True
) -> None:
    """Writes distribution.{csv,json} and, unless told not to, one summary
    line per outcome."""
    if fmt == "json":
        output.files["distribution.json"] = _dump_json(detect.outcome_map(dist))
    else:
        output.files["distribution.csv"] = detect.distribution_csv_text(dist)
    if list_outcomes:
        for occ, p in sorted(dist.items()):
            output.summary.append(f"  {detect.format_outcome(occ)}  {p!r}")


def run_simulate(config: ScenarioConfig, fmt: str = "csv") -> ScenarioOutput:
    if config.kind == "sagnac":
        return run_sagnac(config, fmt)
    if config.kind != "simulate":
        raise ConfigError(f"expected a simulate scenario, got kind {config.kind!r}")
    circ = config.interferometer()
    # user inputs address signal modes; loss-tap environment modes start empty
    state = config.input_state(circ.signal_mode_count)
    if state.mode_count != circ.mode_count:
        pad = (0,) * (circ.mode_count - state.mode_count)
        state = FockState(circ.mode_count, {occ + pad: a for occ, a in state.amplitudes.items()})
    evolved = evolve.apply(compile_circuit(circ), state)
    pattern = config.herald_pattern()
    output = ScenarioOutput(summary=[])
    if pattern is None:
        state_out = evolved
        output.summary.append(f"output distribution over {len(evolved)} occupations")
    else:
        result = herald.project(evolved, pattern)
        output.files["herald.json"] = _dump_json(result.to_json_dict())
        output.summary.append(f"herald probability: {result.probability!r}")
        if result.is_null:
            output.summary.append("herald impossible for this input (flagged, empty state)")
            return output
        state_out = result.conditional_state
        output.summary.append(
            f"conditional state on modes {result.kept_modes}: {len(state_out)} terms"
        )
    output.files["state.json"] = _dump_json(state_out.to_json_dict())
    dist = {occ: abs(a) ** 2 for occ, a in state_out.amplitudes.items()}
    _distribution_files(output, dist, fmt, list_outcomes=pattern is not None)
    return output


def run_sagnac(config: ScenarioConfig, fmt: str = "csv") -> ScenarioOutput:
    """Heralds the input on the forward pass and reads the conditional state
    out through analysis.reverse_pass.  For the input (0, 2, 2, 0) and one
    herald photon on each outer mode, the ideal heralded state is
    (|2,0> + |0,2>)/sqrt(2), read out as a |1,1> coincidence with certainty;
    a null herald reads out as the empty state, every probability 0.0."""
    if config.kind != "sagnac":
        raise ConfigError(f"expected a sagnac scenario, got kind {config.kind!r}")
    chip = config.chip_params()
    state = config.input_state(chip.circuit().mode_count)
    forward = herald.heralded_output(chip, state, config.herald_pattern())
    result = analysis.reverse_pass([(1.0, forward.conditional_state)], chip)
    output = ScenarioOutput(summary=[])
    body = {
        "herald_probability": forward.probability,
        "full_extraction_probability": result.full_extraction_probability,
        "detection_distribution": detect.outcome_map(result.detection_distribution),
        "conditional_distribution": detect.outcome_map(result.conditional_distribution),
    }
    output.files["sagnac.json"] = _dump_json(body)
    output.summary.append(f"herald probability: {forward.probability!r}")
    output.summary.append(f"full extraction probability: {result.full_extraction_probability!r}")
    _distribution_files(output, result.conditional_distribution, fmt)
    return output


def run_fringe(config: ScenarioConfig, fmt: str = "csv") -> ScenarioOutput:
    if config.kind != "fringe":
        raise ConfigError(f"expected a fringe scenario, got kind {config.kind!r}")
    chip = config.chip_params()
    state = config.input_state(chip.circuit().mode_count)
    scenario = analysis.FringeScenario(chip, state, config.sweep_pattern())
    samples = analysis.fringe_scan(scenario, config.sweep_grid())

    output = ScenarioOutput(summary=[])
    if fmt == "json":
        output.files["fringe.json"] = _dump_json(
            {"samples": [{"phi": s.phi, "probability": s.probability} for s in samples]}
        )
    else:
        output.files["fringe.csv"] = detect.csv_text(
            ("phi", "probability"), [(repr(s.phi), repr(s.probability)) for s in samples]
        )

    note = None
    period = None
    try:
        period = analysis.fringe_period(samples)
    except ValueError as exc:
        note = f"insufficient for fit: {exc}"
    if period is None and note is None:
        note = "no fringe: samples are constant"
    output.files["period.json"] = _dump_json(
        {"period": period, "samples": len(samples), "note": note}
    )
    if period is not None:
        output.summary.append(f"fringe period: {period!r}")
    else:
        output.summary.append(note)
    return output


def run_contamination(config: ScenarioConfig, fmt: str = "csv") -> ScenarioOutput:
    if config.kind != "contamination":
        raise ConfigError(f"expected a contamination scenario, got kind {config.kind!r}")
    chip = config.chip_params()
    params = config.spdc_params()
    pattern = config.herald_pattern()
    trees, model = config.detection_topology()
    report = source.contamination_report(chip, params, pattern, config.signal_photons, trees, model)
    output = ScenarioOutput(summary=[])
    output.files["contamination.json"] = _dump_json(report.to_json_dict())
    output.summary.append(
        f"target sector: {report.target_sector} pairs "
        f"({report.herald_photons} herald + {report.signal_photons} signal photons)"
    )
    output.summary.append(f"true event probability: {report.true_event_probability!r}")
    output.summary.append(f"false event probability: {report.false_event_probability!r}")
    output.summary.append(f"false-to-true ratio: {report.false_to_true_ratio!r}")
    for sector in report.sectors:
        if sector.mislabeled:
            channels = ", ".join(
                f"{detect.format_outcome(occ)} ({rate!r})"
                for occ, rate in sorted(sector.interpreted_rates.items())
            )
            output.summary.append(
                f"sector {sector.n_pairs} mislabeled as target; interpreted counts: {channels}"
            )
    return output
