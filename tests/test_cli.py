"""Command-line entry points: exit codes, presets, determinism, file output."""

import argparse
import csv
import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noonchip import cli, coinc, detect
from noonchip.circuit import ChipParams, circuit_to_json_dict, with_loss
from noonchip.coinc import PulseEvent
from noonchip.evolve import NonUnitaryError
from noonchip.scenarios import (
    KINDS,
    PRESET_NAMES,
    ConfigError,
    NumericError,
    ScenarioConfig,
    preset,
    run_contamination,
    run_fringe,
    run_sagnac,
    run_simulate,
)


def run_cli(argv):
    # argparse raises SystemExit on its own errors; fold that into the code
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def assert_one_config_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1, err
    return err


def read_dir(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_preset_round_trips_through_json():
    for name in PRESET_NAMES:
        config = preset(name)
        back = ScenarioConfig.from_json_dict(json.loads(json.dumps(config.to_json_dict())))
        assert back == config


def test_preset_unknown_name():
    with pytest.raises(ConfigError):
        preset("nope")


def test_config_validation_errors():
    base = dict(
        name="x",
        kind="simulate",
        circuit={"chip": {"eta1": 0.5, "eta2": 0.5, "eta3": 1 / 3, "eta4": 1 / 3, "phi": 0.0}},
        input={"occupation": [0, 2, 2, 0]},
    )
    with pytest.raises(ConfigError):
        ScenarioConfig(**{**base, "kind": "banana"})
    with pytest.raises(ConfigError):
        ScenarioConfig(**{**base, "kind": "fringe"})  # fringe needs a sweep
    with pytest.raises(ConfigError):
        ScenarioConfig(**{**base, "kind": "contamination"})  # needs signal_photons
    with pytest.raises(ConfigError):
        ScenarioConfig(**{**base, "kind": "sagnac"})  # needs a herald
    with pytest.raises(ConfigError):
        ScenarioConfig.from_json_dict({**base, "surprise": 1})
    sweep = {"grid": [0.0, 1.0], "pattern": {"1": 1}}
    contamination = {"kind": "contamination", "signal_photons": 4, "herald": {"0": 1, "3": 1}}
    unread = [
        {"seed": 1},  # no scenario draws random numbers
        {"detection": {"file": "topology.json"}},
        {"sweep": sweep},
        {"signal_photons": 2},
        {"kind": "fringe", "sweep": sweep, "herald": {"0": 1}},
        {"kind": "sagnac", "detection": {"file": "topology.json"}},
        {"kind": "fringe", "sweep": {**sweep, "steps": 4}},
        {"kind": "fringe", "sweep": {**sweep, "parameter": "phi"}},
        {"kind": "fringe", "sweep": {"grid": [0.0]}},
        {**contamination, "detection": {"inline": {}, "file": "topology.json"}},
        {**contamination, "detection": {"preset": "paper-6fold"}},
    ]
    # the values inside these blocks are checked where they are read: see the
    # exit-2 tables below
    for extra in unread:
        with pytest.raises(ConfigError):
            ScenarioConfig.from_json_dict({**base, **extra})


def assert_damaged_presets_exit_2(tmp_path, capsys, cases):
    """Each (command, preset, key path, value) run with that one value set;
    returns the error lines."""
    errors = []
    for command, name, keys, value in cases:
        data = preset(name).to_json_dict()
        block = data
        for key in keys[:-1]:
            block = block[key]
        block[keys[-1]] = value
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        assert run_cli([command, "--config", str(path)]) == 2, (keys, value)
        errors.append(assert_one_config_error(capsys))
    return errors


def test_wrong_config_types_exit_2(tmp_path, capsys):
    # each of these ended in a traceback (exit 1) when the runner first used it
    no_labels = {**circuit_to_json_dict(ChipParams().circuit()), "labels": None}
    assert_damaged_presets_exit_2(tmp_path, capsys, [
        ("simulate", "fig2a", ("herald",), [1]),
        ("simulate", "fig2a", ("herald",), [["0", 1], ["3", 1]]),
        ("simulate", "fig2a", ("input", "occupation"), 5),
        ("simulate", "fig2a", ("input", "occupation"), [0, 2, 2, True]),
        ("simulate", "fig2a", ("circuit", "chip", "eta1"), "a"),
        ("fringe", "fig3b-4point", ("sweep", "pattern"), [1]),
        ("fringe", "fig3b-4point", ("sweep", "grid"), 5),
        ("fringe", "fig3b-4point", ("sweep", "grid", 0), True),
        ("fringe", "fig3b-4point", ("sweep", "grid", 0), "0.5"),
        ("simulate", "fig2a", ("circuit",), {"inline": no_labels}),
        ("contamination", "fig4-contamination", ("signal_photons",), [1]),
        ("simulate", "fig2a", ("name",), [1, None]),  # read by nothing: ran with exit 0
    ])
    # the library count rule took 2.0 as 2; a count is a JSON integer
    errors = assert_damaged_presets_exit_2(tmp_path, capsys, [
        ("simulate", "fig2a", ("herald", "0"), 1.0),
        ("simulate", "fig2a", ("input", "occupation"), [0, 2.0, 2, 0]),
        ("fringe", "fig3b-4point", ("sweep", "pattern", "1"), 4.0),
        ("contamination", "fig4-contamination", ("signal_photons",), 4.0),
    ])
    assert all("non-negative integers" in err for err in errors[:3])
    assert "signal_photons must be an integer" in errors[3]
    # an amplitude part is a JSON number: true ran as 1.0 (herald probability 0.0494)
    # and "0" failed inside complex()
    states = [{"modes": 4, "terms": [{"occ": [0, 2, 2, 0], "re": 1.0, "im": 0.0, **part}]}
              for part in ({"re": True}, {"im": "0"})]
    errors = assert_damaged_presets_exit_2(tmp_path, capsys, [
        ("simulate", "fig2a", ("input",), {"state": state}) for state in states
    ])
    assert all("must be finite numbers" in err for err in errors)


def test_fields_that_change_no_result_exit_2(tmp_path, capsys):
    # each had one legal or effective value: a sweep parameter of "phi", an
    # overlap of 1.0 and the paper-6fold detection preset, which is also what a
    # config without a detection block runs
    assert_damaged_presets_exit_2(tmp_path, capsys, [
        ("fringe", "fig3b-4point", ("sweep", "parameter"), "phi"),
        ("contamination", "fig4-contamination", ("input", "spdc", "overlap"), 1.0),
        ("contamination", "fig4-contamination", ("detection",), {"preset": "paper-6fold"}),
    ])


def test_detector_id_that_is_no_string_exits_2(tmp_path, capsys):
    # each ran with exit 0 under the id "None", "5" or "True"
    trees, model = detect.paper_6fold_topology()
    topologies = []
    for det in (None, 5, True):
        topologies.append(detect.topology_to_json_dict(trees, model))
        topologies[-1]["trees"][1]["leaves"][0]["det"] = det
        del topologies[-1]["efficiency"]["J1"]
    errors = assert_damaged_presets_exit_2(tmp_path, capsys, [
        ("contamination", "fig4-contamination", ("detection",), {"inline": topology})
        for topology in topologies
    ])
    assert all("detector ids must be strings" in err for err in errors)


def test_malformed_input_state_exits_2(tmp_path, capsys):
    # a KeyError or TypeError traceback (exit 1) before; a NaN amplitude was dropped;
    # float modes ended in a TypeError traceback, bool and float occupations ran as
    # integers, and a repeated occupation silently replaced the earlier term
    nan_term = {"occ": [0, 2, 2, 0], "re": math.nan, "im": 0.0}
    terms = [[{"occ": occ, "re": 1.0, "im": 0.0}]
             for occ in ([0, 2, 2, 0], [0, True, True, 0], [0, 2.0, 2, 0])]
    assert_damaged_presets_exit_2(tmp_path, capsys, [
        ("simulate", "fig2a", ("input",), {"state": {"modes": 4}}),
        ("simulate", "fig2a", ("input",), {"state": [1, 2]}),
        ("simulate", "fig2a", ("input",), {"state": {"modes": 4, "terms": [nan_term]}}),
        ("simulate", "fig2a", ("input",), {"state": {"modes": 4.0, "terms": terms[0]}}),
        ("simulate", "fig2a", ("input",), {"state": {"modes": 4, "terms": terms[1]}}),
        ("simulate", "fig2a", ("input",), {"state": {"modes": 4, "terms": terms[2]}}),
        ("simulate", "fig2a", ("input",), {"state": {"modes": 4, "terms": terms[0] * 2}}),
    ])


def test_unnormalized_input_state_exits_2(tmp_path, capsys):
    # taken as it was before: amplitude 0.1 gave herald probability 4.94e-4
    small = [{"occ": [0, 2, 2, 0], "re": 0.1, "im": 0.0}]
    errors = assert_damaged_presets_exit_2(tmp_path, capsys, [
        ("simulate", "fig2a", ("input",), {"state": {"modes": 4, "terms": terms}})
        for terms in (small, [])
    ])
    assert all("input.state" in err for err in errors)


def test_inline_circuit_labels_and_non_finite_phase_exit_2(tmp_path, capsys):
    # labels changed no result and were accepted; an infinite phase failed
    # in math.cos as "math domain error", which named neither field nor element
    labelled = {**circuit_to_json_dict(ChipParams().circuit()), "labels": {"zz": 99}}
    infinite = circuit_to_json_dict(ChipParams().circuit())
    infinite["elements"][1]["phi"] = math.inf
    errors = assert_damaged_presets_exit_2(tmp_path, capsys, [
        ("simulate", "fig2a", ("circuit",), {"inline": labelled}),
        ("simulate", "fig2a", ("circuit",), {"inline": infinite}),
    ])
    assert "labels" in errors[0] and "phase shifter phi" in errors[1]


def test_detector_efficiency_out_of_range_exits_2(tmp_path, capsys):
    trees, model = detect.paper_6fold_topology()
    topologies = []
    for value in (1.5, math.nan):
        topologies.append(detect.topology_to_json_dict(trees, model))
        topologies[-1]["efficiency"]["J1"] = value
    errors = assert_damaged_presets_exit_2(tmp_path, capsys, [
        ("contamination", "fig4-contamination", ("detection",), {"inline": topology})
        for topology in topologies
    ])
    assert all("efficiency for 'J1' must lie in [0, 1]" in err for err in errors)


def test_string_or_bool_where_a_number_or_mode_belongs_exits_2(tmp_path, capsys):
    # each ran with exit 0: float("0.5") read the string, and a bool passed
    # as the integer 0 or 1
    text_eta = circuit_to_json_dict(ChipParams().circuit())
    text_eta["elements"][0]["eta"] = "0.5"
    bool_mode = circuit_to_json_dict(ChipParams().circuit())
    bool_mode["elements"][0]["modes"] = [True, 2]
    trees, model = detect.paper_6fold_topology()
    text_leaf = detect.topology_to_json_dict(trees, model)
    text_leaf["trees"][0]["leaves"][0]["p"] = "1.0"
    text_efficiency = {**detect.topology_to_json_dict(trees, model), "efficiency": {"Di": "0.5"}}
    errors = assert_damaged_presets_exit_2(tmp_path, capsys, [
        ("simulate", "fig2a", ("circuit",), {"inline": text_eta}),
        ("simulate", "fig2a", ("circuit",), {"inline": bool_mode}),
        ("contamination", "fig4-contamination", ("detection",), {"inline": text_leaf}),
        ("contamination", "fig4-contamination", ("detection",), {"inline": text_efficiency}),
    ])
    assert "'0.5'" in errors[0] and "True" in errors[1]
    assert "'1.0'" in errors[2] and "'0.5'" in errors[3]


def test_coincidence_bool_setting_exits_2(tmp_path, capsys):
    # a clock period of true ran as 1 ns
    cfg = tmp_path / "coinc.json"
    cfg.write_text(json.dumps({"t_clk": True}))
    assert run_cli(["coincidence", "--profile", "--config", str(cfg)]) == 2
    assert_one_config_error(capsys)


def test_out_of_range_herald_mode_exits_2(tmp_path, capsys):
    errors = assert_damaged_presets_exit_2(tmp_path, capsys, [
        ("simulate", "fig2a", ("herald",), {"7": 1}),
    ])
    assert "mode 7" in errors[0]


def test_herald_keys_naming_one_mode_exit_2(tmp_path, capsys):
    # "3" and "03" both read as mode 3: fig2a heralded {0: 1, 3: 0} with exit 0
    errors = assert_damaged_presets_exit_2(tmp_path, capsys, [
        ("simulate", "fig2a", ("herald",), {"0": 1, "3": 1, "03": 0}),
    ])
    assert "written as str(mode)" in errors[0]


#: keys int() reads as a mode that are not str(mode) of it
NOT_MODE_KEYS = ("٣", "３", "+3", " 3", "03", "1_0", "-0")


def test_pattern_keys_other_than_str_mode_exit_2(tmp_path, capsys):
    # in place of "3", the first five ran as mode 3 with exit 0; "1_0" and "-0"
    # exited 2 only as mode 10 out of range and as a second mode 0
    cases = []
    for key in NOT_MODE_KEYS:
        cases.append(("simulate", "fig2a", ("herald",), {"0": 1, key: 1}))
        cases.append(("fringe", "fig3b-4point", ("sweep", "pattern"),
                      {"0": 1, "1": 4, "2": 0, key: 1}))
    errors = assert_damaged_presets_exit_2(tmp_path, capsys, cases)
    assert all("written as str(mode)" in err for err in errors)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.text() | st.sampled_from(NOT_MODE_KEYS) | st.integers(-3, 12).map(str))
def test_pattern_key_is_read_exactly_when_it_is_str_of_a_mode(key):
    config = ScenarioConfig(**{**preset("fig2a").to_json_dict(), "herald": {key: 1}})
    try:
        mode = int(key)
    except ValueError:
        mode = -1
    try:
        config.herald_pattern()
    except ConfigError:
        assert not (mode >= 0 and key == str(mode)), key
    else:
        assert mode >= 0 and key == str(mode), key


def test_file_entry_that_is_no_path_string_is_a_config_error():
    # only from_file checked the entry: {"file": 5} failed in load_json with a
    # TypeError, and {"file": None} was accepted at construction; only a
    # simulate scenario takes a circuit file
    for name, block, entry in (("fig4-contamination", "detection", {"file": 5}),
                               ("fig2a", "circuit", {"file": None})):
        with pytest.raises(ConfigError, match=f"{block}.file must be a path string"):
            ScenarioConfig.from_json_dict({**preset(name).to_json_dict(), block: entry})


def test_odd_photon_contamination_prints_one_config_error_line(tmp_path, capsys):
    # the library's ValueError reaches cli.main, which prints the line the
    # runner's own ConfigError re-raise printed
    errors = assert_damaged_presets_exit_2(tmp_path, capsys, [
        ("contamination", "fig4-contamination", ("signal_photons",), 3),
    ])
    assert errors == [
        "config error: herald plus signal photons is odd (5); pair sectors cannot produce it\n"
    ]


def test_out_of_range_fields_exit_2(tmp_path, capsys):
    # a negative signal or sweep count ran to all-zero results with exit 0; a
    # sagnac config without a herald heralded {0: 1, 3: 1}; an n_max of NaN
    # ended in a TypeError traceback and 3.5 or true ran as an integer
    assert_damaged_presets_exit_2(tmp_path, capsys, [
        ("contamination", "fig4-contamination", ("signal_photons",), -2),
        ("fringe", "fig3b-4point", ("sweep", "pattern", "1"), -1),
        ("simulate", "fig2b-sagnac", ("herald",), None),
        ("contamination", "fig4-contamination", ("input", "spdc", "n_max"), math.nan),
        ("contamination", "fig4-contamination", ("input", "spdc", "n_max"), 3.5),
        ("contamination", "fig4-contamination", ("input", "spdc", "n_max"), True),
    ])


def test_fringe_long_grid_bad_phase_exits_2(tmp_path, capsys):
    # fig3a's 256 phases take the node-sampled scan, which checks every phase first
    errors = assert_damaged_presets_exit_2(tmp_path, capsys, [
        ("fringe", "fig3a", ("sweep", "grid", 200), bad) for bad in ("0.5", True, math.nan)
    ])
    assert all("phase shifter phi must be a finite number" in err for err in errors)


def test_numbers_too_large_for_a_float_exit_2(tmp_path, capsys):
    # each ended in an OverflowError traceback
    huge = 2**1100
    state = {"modes": 4, "terms": [{"occ": [0, 2, 2, 0], "re": huge, "im": 0}]}
    assert_damaged_presets_exit_2(tmp_path, capsys, [
        ("simulate", "fig2a", ("circuit", "chip", "phi"), huge),
        ("fringe", "fig3b-4point", ("sweep", "grid", 0), huge),
        ("simulate", "fig2a", ("input",), {"state": state}),
        ("simulate", "fig2a", ("herald", "0"), huge),  # a count follows is_number's range
    ])


def test_unknown_key_in_detection_block_exits_2(tmp_path, capsys):
    # dark_count_prob was read by nothing: the run matched ideal detectors
    trees, model = detect.paper_6fold_topology()
    extra_top = detect.topology_to_json_dict(trees, model)
    extra_top["dark_count_prob"] = 0.5
    extra_leaf = detect.topology_to_json_dict(trees, model)
    extra_leaf["trees"][1]["leaves"][0]["eff"] = 0.5
    # an efficiency for an id that is no leaf was ignored the same way
    no_leaf = detect.topology_to_json_dict(trees, model)
    no_leaf["efficiency"]["X9"] = 0.5
    # the message quotes the key, and stays one line when the key holds a line break
    line_break = detect.topology_to_json_dict(trees, model)
    line_break["efficiency"]["\n"] = 0.5
    assert_damaged_presets_exit_2(tmp_path, capsys, [
        ("contamination", "fig4-contamination", ("detection",), {"inline": extra_top}),
        ("contamination", "fig4-contamination", ("detection",), {"inline": extra_leaf}),
        ("contamination", "fig4-contamination", ("detection",), {"inline": no_leaf}),
        ("contamination", "fig4-contamination", ("detection",), {"inline": line_break}),
    ])


def test_unknown_key_in_circuit_block_exits_2(tmp_path, capsys):
    typo = circuit_to_json_dict(ChipParams().circuit())
    typo["elements"][1]["phi_typo"] = 1.0
    extra_top = circuit_to_json_dict(ChipParams().circuit())
    extra_top["loss"] = 0.1
    # a fractional mode ran as its integer part
    fractional = circuit_to_json_dict(ChipParams().circuit())
    fractional["elements"][1]["mode"] = 2.7
    assert_damaged_presets_exit_2(tmp_path, capsys, [
        ("simulate", "fig2a", ("circuit",), {"inline": typo}),
        ("simulate", "fig2a", ("circuit",), {"inline": extra_top}),
        ("simulate", "fig2a", ("circuit",), {"inline": fractional}),
    ])


def test_coupler_modes_other_than_a_pair_exit_2_by_the_coupler_rule(tmp_path, capsys):
    # the reader unpacked the modes first: "too many values to unpack (expected 2)",
    # "not enough values to unpack" and "cannot unpack non-iterable int object"
    circuits = []
    for modes in ([0, 1, 2], [1], 3):
        circuits.append(circuit_to_json_dict(ChipParams().circuit()))
        circuits[-1]["elements"][0]["modes"] = modes
    errors = assert_damaged_presets_exit_2(tmp_path, capsys, [
        ("simulate", "fig2a", ("circuit",), {"inline": circuit}) for circuit in circuits
    ])
    assert errors == ["config error: bad circuit: coupler needs two distinct modes\n"] * 3


@pytest.mark.parametrize("keys, value, message", [
    # "unhashable type: 'list'"
    (("kind",), [], "unknown scenario kind []"),
    # "string indices must be integers, not 'str'"
    (("circuit",), {"inline": {"modes": 4, "elements": {"dc": 1}}},
     "bad circuit: circuit elements must be a list, got {'dc': 1}"),
    # "unhashable type: 'list'"
    (("circuit",), {"inline": {"modes": 4, "elements": [{"type": ["dc"], "eta": 0.5, "modes": [1, 2]}]}},
     "bad circuit: unknown element type ['dc']"),
], ids=["kind", "elements", "element type"])
def test_config_shape_errors_name_their_field(tmp_path, capsys, keys, value, message):
    errors = assert_damaged_presets_exit_2(tmp_path, capsys, [("simulate", "fig2a", keys, value)])
    assert errors == [f"config error: {message}\n"]


def _set(*keys_and_value):
    """An edit that sets the value at a key path of a preset's JSON."""
    *keys, value = keys_and_value

    def edit(data):
        for key in keys[:-1]:
            data = data[key]
        data[keys[-1]] = value
    return edit


_LOSS_CIRCUIT = {"elements": [{"type": "loss", "t": 0.5, "mode": 0}]}
_STATE = {"modes": 4, "terms": [{"occ": [0, 2, 2, 0], "re": 1.0, "im": 0.0}]}
_TOPOLOGY = detect.topology_to_json_dict(*detect.paper_6fold_topology())


@pytest.mark.parametrize("command, name, edit, message", [
    # "'int' object is not subscriptable"
    ("simulate", "fig2a", _set("circuit", {"inline": {"modes": 4, "elements": [1]}}),
     "bad circuit: element must be a JSON object, got 1"),
    # "can only concatenate str (not "int") to str"
    ("simulate", "fig2a", _set("circuit", {"inline": {**_LOSS_CIRCUIT, "modes": "4"}}),
     "bad circuit: circuit modes must be an integer >= 0 in a float's range, got '4'"),
    # "... got 5.0", the mode count after the loss tap
    ("simulate", "fig2a", _set("circuit", {"inline": {**_LOSS_CIRCUIT, "modes": 4.0}}),
     "bad circuit: circuit modes must be an integer >= 0 in a float's range, got 4.0"),
    # "missing key 'modes'", as if the circuit lacked it
    ("simulate", "fig2a", _set("circuit", {"inline": {"modes": 4, "elements": [{"type": "dc", "eta": 0.5}]}}),
     "bad circuit: dc element needs the key modes"),
    # each of the next five: "'int' object is not iterable"
    ("simulate", "fig2a", _set("input", {"state": {**_STATE, "terms": 5}}),
     "bad input.state: state terms must be a list, got 5"),
    ("simulate", "fig2a", _set("input", {"state": {**_STATE, "terms": [{"occ": 5, "re": 1.0, "im": 0.0}]}}),
     "bad input.state: state term occ must be a list, got 5"),
    ("contamination", "fig4-contamination", _set("detection", {"inline": {**_TOPOLOGY, "trees": 5}}),
     "bad detection topology: detection trees must be a list, got 5"),
    ("contamination", "fig4-contamination",
     _set("detection", {"inline": {**_TOPOLOGY, "trees": [{"mode": 0, "leaves": 5}]}}),
     "bad detection topology: splitter tree leaves must be a list, got 5"),
    ("simulate", "fig2a", _set("input", "occupation", 5), "input.occupation must be a list, got 5"),
    # "ChipParams() argument after ** must be a mapping, not list"
    ("simulate", "fig2a", _set("circuit", "chip", [1]),
     "bad chip settings: ChipParams must be a JSON object, got [1]"),
    # "SpdcParams() argument after ** must be a mapping, not list"
    ("contamination", "fig4-contamination", _set("input", "spdc", [1]),
     "bad pair-source settings: SpdcParams must be a JSON object, got [1]"),
    # "ChipParams.__init__() got an unexpected keyword argument 'bogus'"
    ("simulate", "fig2a", _set("circuit", "chip", {"bogus": 1}),
     "bad chip settings: ChipParams takes only the keys eta1, eta2, eta3, eta4, phi; got 'bogus'"),
    # "ScenarioConfig.__init__() missing 1 required positional argument: 'input'"
    ("simulate", "fig2a", lambda data: data.pop("input"), "config needs the key input"),
], ids=["element", "modes str", "modes float", "dc modes", "terms", "occ", "trees", "leaves",
        "occupation", "chip list", "spdc list", "chip key", "no input"])
def test_json_shape_errors_name_their_block(tmp_path, capsys, command, name, edit, message):
    data = preset(name).to_json_dict()
    edit(data)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    assert run_cli([command, "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_config_that_is_not_utf8_names_its_file(tmp_path, capsys):
    # "config error: 'utf-8' codec can't decode byte 0xff in position 0: ..."
    path = tmp_path / "settings.json"
    path.write_bytes(b"\xff{}")
    for argv in (["simulate", "--config", str(path)], ["coincidence", "--profile", "--config", str(path)]):
        assert run_cli(argv) == 2
        assert f"invalid JSON in {path}: 'utf-8' codec can't decode" in assert_one_config_error(capsys)


def test_config_nested_too_deep_for_the_parser_exits_2(tmp_path, capsys):
    # a RecursionError traceback, exit 1
    path = tmp_path / "scenario.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert run_cli(["simulate", "--config", str(path)]) == 2
    assert f"invalid JSON in {path}: maximum recursion depth exceeded" in assert_one_config_error(capsys)


def test_pattern_key_that_is_no_integer_is_named_by_the_key_rule(tmp_path, capsys):
    # "invalid literal for int() with base 10: 'x'"
    errors = assert_damaged_presets_exit_2(tmp_path, capsys, [
        ("simulate", "fig2a", ("herald",), {"0": 1, "x": 1}),
        ("fringe", "fig3b-4point", ("sweep", "pattern"), {"x": 1}),
    ])
    assert errors == [f"config error: bad {what} pattern: a pattern key is a mode written as "
                      "str(mode), got 'x'\n" for what in ("herald", "sweep")]


def test_herald_key_longer_than_any_mode_is_named_by_the_key_rule(tmp_path, capsys):
    # "Exceeds the limit (4300 digits) for integer string conversion: ..."
    key = "1" * 5000
    errors = assert_damaged_presets_exit_2(tmp_path, capsys, [("simulate", "fig2a", ("herald",), {key: 1})])
    assert errors == [f"config error: bad herald pattern: a pattern key is a mode written as str(mode), "
                      f"got {key!r}\n"]


@pytest.mark.parametrize("name, block, form, message", [
    ("fig3b-4point", "circuit", {"inline": circuit_to_json_dict(ChipParams().circuit())},
     "fringe scenario's circuit takes only the keys chip; got 'inline'"),
    ("fig2b-sagnac", "circuit", {"file": "chip.json"},
     "sagnac scenario's circuit takes only the keys chip; got 'file'"),
    ("fig4-contamination", "input", {"occupation": [0, 2, 2, 0]},
     "contamination scenario's input takes only the keys spdc; got 'occupation'"),
])
def test_block_form_its_kind_does_not_take_fails_at_construction(name, block, form, message):
    # each was built and failed only when its runner started
    with pytest.raises(ConfigError) as info:
        ScenarioConfig.from_json_dict({**preset(name).to_json_dict(), block: form})
    assert str(info.value) == message


@pytest.mark.parametrize("name, runner", [
    ("fig2a", run_simulate),
    ("fig2b-sagnac", run_sagnac),
    ("fig3b-4point", run_fringe),
    ("fig4-contamination", run_contamination),
])
def test_every_block_form_a_kind_takes_runs(name, runner, tmp_path):
    # KINDS declares no form its runner cannot read
    circuit = circuit_to_json_dict(ChipParams().circuit())
    (tmp_path / "chip.json").write_text(json.dumps(circuit))
    circuits = {"chip": preset(name).circuit, "inline": {"inline": circuit},
                "file": {"file": str(tmp_path / "chip.json")}}
    inputs = {"occupation": {"occupation": [0, 2, 2, 0]}, "spdc": {"spdc": {"xi": 0.1, "n_max": 3}},
              "state": {"state": {"modes": 4, "terms": [{"occ": [0, 2, 2, 0], "re": 1.0, "im": 0.0}]}}}
    _, _, circuit_forms, input_forms = KINDS[preset(name).kind]
    for circuit_form in circuit_forms:
        for input_form in input_forms:
            data = {**preset(name).to_json_dict(), "circuit": circuits[circuit_form],
                    "input": inputs[input_form]}
            assert runner(ScenarioConfig.from_json_dict(data)).files, (circuit_form, input_form)


def test_simulate_preset_writes_expected_files(tmp_path):
    out = tmp_path / "run"
    assert run_cli(["simulate", "--preset", "fig2a", "--out", str(out)]) == 0
    files = read_dir(out)
    assert set(files) == {"herald.json", "state.json", "distribution.csv"}
    herald = json.loads(files["herald.json"])
    assert herald["probability"] == pytest.approx(4 / 81, abs=1e-12)
    dist = detect.read_distribution_csv(out / "distribution.csv")
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)


def test_simulate_json_format(tmp_path):
    out = tmp_path / "run"
    code = run_cli(
        ["simulate", "--preset", "fig4", "--out", str(out), "--format", "json"]
    )
    assert code == 0
    dist = json.loads((out / "distribution.json").read_text())
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)


def test_sagnac_preset(tmp_path):
    out = tmp_path / "run"
    assert run_cli(["simulate", "--preset", "fig2b-sagnac", "--out", str(out)]) == 0
    body = json.loads((out / "sagnac.json").read_text())
    assert body["herald_probability"] == pytest.approx(4 / 81, abs=1e-12)
    assert body["full_extraction_probability"] == pytest.approx(4 / 9, abs=1e-12)


def test_null_herald_sagnac_writes_float_zeros(tmp_path):
    # five herald photons from a four-photon input: the readout of the empty
    # state wrote a full-extraction probability of 0, an int
    config = preset("fig2b-sagnac").to_json_dict()
    config["herald"] = {"0": 5, "3": 0}
    path = tmp_path / "null.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "run"
    assert run_cli(["simulate", "--config", str(path), "--out", str(out)]) == 0
    body = json.loads((out / "sagnac.json").read_text())  # "0" reads back as an int
    for key in ("herald_probability", "full_extraction_probability"):
        assert body[key] == 0.0 and type(body[key]) is float, key
    assert (out / "distribution.csv").read_text() == "outcome,probability\n"


def test_sagnac_herald_must_leave_two_modes(tmp_path, capsys):
    # a null herald on one mode read out as zeros with exit 0, while a
    # possible one on the same mode exits 2: both leave three modes
    for herald in ({"0": 5}, {"0": 1}):
        config = {**preset("fig2b-sagnac").to_json_dict(), "herald": herald}
        path = tmp_path / "one-mode.json"
        path.write_text(json.dumps(config))
        assert run_cli(["simulate", "--config", str(path)]) == 2
        assert "two-mode state" in assert_one_config_error(capsys)


def test_runners_check_their_kind():
    # run_sagnac read a fringe config's missing herald (AttributeError) and
    # ran a simulate config as a sagnac run
    for runner, name in ((run_sagnac, "fig3b"), (run_sagnac, "fig2a"), (run_fringe, "fig2a"),
                         (run_contamination, "fig3b"), (run_simulate, "fig3b")):
        with pytest.raises(ConfigError, match="expected a .* scenario, got kind"):
            runner(preset(name))


def test_config_is_frozen_once_checked():
    # a reassigned circuit skipped the KINDS check, and run_fringe then
    # raised KeyError: 'chip'
    config = preset("fig3b-4point")
    for field in dataclasses.fields(ScenarioConfig):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, field.name, {"inline": {}})
    assert config == preset("fig3b-4point")


def test_fringe_preset_period(tmp_path):
    out = tmp_path / "run"
    assert run_cli(["fringe", "--preset", "fig3b", "--out", str(out)]) == 0
    period = json.loads((out / "period.json").read_text())
    assert period["period"] == pytest.approx(math.pi, rel=1e-6)
    text = (out / "fringe.csv").read_text()
    assert text.startswith("phi,probability")


def test_fringe_sparse_grid_reports_no_fit(tmp_path):
    out = tmp_path / "run"
    assert run_cli(["fringe", "--preset", "fig3b-4point", "--out", str(out)]) == 0
    period = json.loads((out / "period.json").read_text())
    assert period["period"] is None
    assert "insufficient" in period["note"]


def test_fringe_period_json_stays_json_on_an_extreme_grid(tmp_path):
    # a finite, uniform grid of steps 1e307 wrote "period": Infinity, which is
    # not JSON, and printed numpy's overflow warning
    data = preset("fig3a").to_json_dict()
    data["sweep"]["grid"] = [i * 1e307 for i in range(-8, 9)]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "run"
    assert run_cli(["fringe", "--config", str(path), "--out", str(out)]) == 0

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    period = json.loads((out / "period.json").read_text(), parse_constant=reject)
    assert period["period"] is None
    assert period["note"].startswith("insufficient for fit")


def test_contamination_preset(tmp_path):
    out = tmp_path / "run"
    code = run_cli(["contamination", "--preset", "fig4-contamination", "--out", str(out)])
    assert code == 0
    body = json.loads((out / "contamination.json").read_text())
    assert body["target_sector"] == 3
    assert body["false_to_true_ratio"] == pytest.approx(0.0673727069, rel=1e-6)


def test_contamination_without_detection_runs_paper_6fold(tmp_path, capsys):
    data = preset("fig4-contamination").to_json_dict()
    assert data["detection"] is None
    data["detection"] = {"inline": detect.topology_to_json_dict(*detect.paper_6fold_topology())}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    out, runs = tmp_path / "run", []  # one output directory: stdout names it
    for source in (["--config", str(path)], ["--preset", "fig4-contamination"]):
        assert run_cli(["contamination", *source, "--out", str(out)]) == 0
        runs.append((read_dir(out), capsys.readouterr().out))
    assert runs[0] == runs[1]


def test_outputs_are_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli(["fringe", "--preset", "fig3a", "--out", str(out)]) == 0
    assert read_dir(a) == read_dir(b)
    c, d = tmp_path / "c", tmp_path / "d"
    for out in (c, d):
        assert run_cli(["simulate", "--preset", "fig2a", "--out", str(out)]) == 0
    assert read_dir(c) == read_dir(d)


def test_config_file_run(tmp_path):
    config = preset("fig2a")
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config.to_json_dict()))
    out = tmp_path / "run"
    assert run_cli(["simulate", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "herald.json").is_file()


def test_relative_file_paths_resolve_against_the_config(tmp_path, monkeypatch):
    # circuit.file (with a loss tap) and detection.file name files next to
    # the config, and the run starts from another directory
    config_dir, elsewhere = tmp_path / "configs", tmp_path / "elsewhere"
    config_dir.mkdir()
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    lossy = with_loss(ChipParams().circuit(), 1, 0.9)
    (config_dir / "chip.json").write_text(json.dumps(circuit_to_json_dict(lossy)))
    simulate = preset("fig2a").to_json_dict()
    simulate["circuit"] = {"file": "chip.json"}
    (config_dir / "simulate.json").write_text(json.dumps(simulate))
    assert run_cli(["simulate", "--config", "../configs/simulate.json", "--out", "sim"]) == 0
    state = json.loads((elsewhere / "sim" / "state.json").read_text())
    assert state["modes"] == 3  # modes 1 and 2 plus the loss tap's environment mode

    trees, model = detect.paper_6fold_topology()
    topology = detect.topology_to_json_dict(trees, model)
    (config_dir / "topology.json").write_text(json.dumps(topology))
    contamination = preset("fig4-contamination").to_json_dict()
    contamination["detection"] = {"file": "topology.json"}
    (config_dir / "contamination.json").write_text(json.dumps(contamination))
    assert run_cli(["contamination", "--config", "../configs/contamination.json", "--out", "file"]) == 0
    assert run_cli(["contamination", "--preset", "fig4-contamination", "--out", "preset"]) == 0
    assert read_dir(elsewhere / "file") == read_dir(elsewhere / "preset")


def test_contamination_rejects_partial_overlap(tmp_path):
    # the pair state is evolved as indistinguishable photons; an overlap
    # below 1 would be silently ignored
    data = preset("fig4-contamination").to_json_dict()
    data["input"]["spdc"]["overlap"] = 0.5
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    assert run_cli(["contamination", "--config", str(path)]) == 2


def test_nan_phase_exits_2(tmp_path):
    # a NaN phase is bad input, not a non-unitary chip
    chip = preset("fig2a").to_json_dict()
    chip["circuit"]["chip"]["phi"] = math.nan
    fringe = preset("fig3b-4point").to_json_dict()
    fringe["sweep"]["grid"][1] = math.nan
    for command, data in (("simulate", chip), ("fringe", fringe)):
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(data))
        assert run_cli([command, "--config", str(path)]) == 2


def test_missing_config_file_exits_2():
    assert run_cli(["simulate", "--config", "/nonexistent/scenario.json"]) == 2


def test_invalid_json_config_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run_cli(["simulate", "--config", str(path)]) == 2


def test_unknown_preset_exits_2():
    assert run_cli(["simulate", "--preset", "nope", "--out", "/tmp/x"]) == 2


def test_both_config_and_preset_exits_2(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(preset("fig2a").to_json_dict()))
    assert run_cli(["simulate", "--preset", "fig2a", "--config", str(path)]) == 2
    assert run_cli(["simulate"]) == 2


def test_numeric_failure_exits_3(monkeypatch):
    def boom(config, fmt):
        raise NumericError("diverged")

    monkeypatch.setattr(cli, "run_simulate", boom)
    assert run_cli(["simulate", "--preset", "fig2a"]) == 3

    def boom2(config, fmt):
        raise NonUnitaryError("matrix is not unitary")

    monkeypatch.setattr(cli, "run_simulate", boom2)
    assert run_cli(["simulate", "--preset", "fig2a"]) == 3


def test_main_builds_no_parser(monkeypatch):
    # main built a new parser, subparsers and all, on every call
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert run_cli(["simulate", "--preset", "fig2a"]) == 0
    assert run_cli(["fringe", "--preset", "fig3b-4point"]) == 0
    assert built == []


def test_fidelity_command(tmp_path, capsys):
    res = run_simulate(preset("fig2a"))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text(res.files["distribution.csv"])
    b.write_text(res.files["distribution.csv"])
    assert run_cli(["fidelity", str(a), str(b)]) == 0
    printed = capsys.readouterr().out.strip()
    assert float(printed) == pytest.approx(1.0, abs=1e-9)


def test_fidelity_missing_file_exits_2(tmp_path):
    a = tmp_path / "a.csv"
    a.write_text(detect.distribution_csv_text({"x": 1.0}))
    assert run_cli(["fidelity", str(a), str(tmp_path / "nope.csv")]) == 2


def test_fidelity_unnormalized_exits_2(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text(detect.distribution_csv_text({"x": 1.0}))
    b.write_text(detect.distribution_csv_text({"x": 0.25}))
    assert run_cli(["fidelity", str(a), str(b)]) == 2
    assert capsys.readouterr().err == ("config error: probabilities of the second distribution "
                                       "sum to 0.25, expected 1\n")


def test_fidelity_non_finite_probability_exits_2(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("outcome,probability\nx,nan\n")
    b.write_text(detect.distribution_csv_text({"x": 1.0}))
    assert run_cli(["fidelity", str(a), str(b)]) == 2
    assert_one_config_error(capsys)


def test_fidelity_short_row_exits_2(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("outcome,probability\nx\n")
    b.write_text(detect.distribution_csv_text({"x": 1.0}))
    assert run_cli(["fidelity", str(a), str(b)]) == 2
    assert_one_config_error(capsys)


def test_fidelity_repeated_outcome_exits_2(tmp_path, capsys):
    # the second row used to replace the first, and the sum check then
    # failed without naming the repeated outcome
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("outcome,probability\nx,0.5\nx,0.5\n")
    b.write_text(detect.distribution_csv_text({"x": 1.0}))
    assert run_cli(["fidelity", str(a), str(b)]) == 2
    err = assert_one_config_error(capsys)
    assert f"{a}: outcome 'x' is repeated" in err


def test_coincidence_command(tmp_path):
    pulses = tmp_path / "pulses.csv"
    coinc.write_pulse_csv(
        pulses,
        [
            PulseEvent("A", 100.0),
            PulseEvent("B", 104.0),
            PulseEvent("A", 500.0),
            PulseEvent("B", 512.0),
            PulseEvent("C", 1000.0),
            PulseEvent("A", 1001.0),
            PulseEvent("B", 1002.0),
        ],
    )
    out = tmp_path / "run"
    assert run_cli(["coincidence", str(pulses), "--out", str(out)]) == 0
    text = (out / "coincidences.csv").read_text()
    assert "A;B,1" in text
    assert "A;B;C,1" in text
    # no --clock-phase is clock phase 0
    zero = tmp_path / "zero"
    assert run_cli(["coincidence", str(pulses), "--clock-phase", "0", "--out", str(zero)]) == 0
    assert read_dir(zero) == read_dir(out)


def test_coincidence_channel_with_separator_exits_2(tmp_path, capsys):
    # records {a;b, c} and {a, b, c} were written as two identical rows a;b;c,1
    pulses = tmp_path / "pulses.csv"
    coinc.write_pulse_csv(pulses, [PulseEvent("a;b", 0.0), PulseEvent("c", 1.0),
                                   PulseEvent("a", 1000.0), PulseEvent("b", 1000.5),
                                   PulseEvent("c", 1001.0)])
    assert run_cli(["coincidence", str(pulses), "--out", str(tmp_path / "run")]) == 2
    assert "channel name 'a;b'" in assert_one_config_error(capsys)
    assert not (tmp_path / "run").exists()


def test_coincidence_empty_stream(tmp_path, capsys):
    pulses = tmp_path / "pulses.csv"
    pulses.write_text("channel,t_ns\n")
    assert run_cli(["coincidence", str(pulses)]) == 0
    assert capsys.readouterr().out == "0 coincidence records from 0 pulses\n"


def test_coincidence_profile(tmp_path):
    out = tmp_path / "run"
    assert run_cli(["coincidence", "--profile", "--out", str(out)]) == 0
    lines = (out / "window_profile.csv").read_text().splitlines()
    assert len(lines) == 1 + 21
    assert lines[0] == "delay_ns,probability"
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 1.0


@pytest.mark.parametrize("extra", [
    ["/nonexistent.csv"],
    ["--clock-phase", "0.7"],
    ["--clock-phase", "0"],
    ["--seed", "3"],
    ["/nonexistent.csv", "--clock-phase", "0.7", "--seed", "3"],
])
def test_coincidence_profile_takes_no_counting_input(extra, capsys):
    # the profile dropped these without a word and exited 0
    assert run_cli(["coincidence", "--profile", *extra]) == 2
    assert "--profile reads no pulse file, --clock-phase or --seed" in assert_one_config_error(capsys)


def test_coincidence_profile_summary_keeps_an_int_clock_an_int(tmp_path, capsys):
    cfg = tmp_path / "coinc.json"
    cfg.write_text(json.dumps({"t_clk": 3}))
    assert run_cli(["coincidence", "--profile", "--config", str(cfg)]) == 0
    assert "window profile: flat up to 6 ns, zero from 9 ns" in capsys.readouterr().out


def test_coincidence_profile_row_cap(tmp_path, capsys):
    # the profile has 4 * window_cycles + 9 rows: 21 at the default of 3
    cfg = tmp_path / "coinc.json"
    out = tmp_path / "run"
    largest = (cli.MAX_PROFILE_ROWS - 9) // 4
    cfg.write_text(json.dumps({"window_cycles": largest}))
    assert run_cli(["coincidence", "--profile", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "window_profile.csv").read_text().splitlines()
    assert len(lines) == 1 + 4 * largest + 9 <= 1 + cli.MAX_PROFILE_ROWS
    capsys.readouterr()

    cfg.write_text(json.dumps({"window_cycles": 25_000}))
    out = tmp_path / "too-long"
    assert run_cli(["coincidence", "--profile", "--config", str(cfg), "--out", str(out)]) == 2
    assert "100009 rows" in assert_one_config_error(capsys)
    assert not out.exists()


def test_coincidence_window_beyond_a_float_exits_2(tmp_path, capsys):
    cfg = tmp_path / "coinc.json"
    pulses = tmp_path / "pulses.csv"
    coinc.write_pulse_csv(pulses, [PulseEvent("A", 0.0), PulseEvent("B", 1.0)])
    # a window of 2e308 ns was stored as inf and the profile read 1.0 past its end
    cfg.write_text(json.dumps({"t_clk": 1e308, "window_cycles": 2}))
    for argv in ([str(pulses)], ["--profile"]):
        assert run_cli(["coincidence", *argv, "--config", str(cfg)]) == 2
        err = assert_one_config_error(capsys)
        assert "window_cycles * t_clk = 2 * 1e+308 ns" in err
    # the window, 1.5e308 ns, is finite, but the profile runs on to 2.5e308 ns:
    # that ended in "delay must be a finite number, got inf", a delay never given
    cfg.write_text(json.dumps({"t_clk": 5e307}))
    out = tmp_path / "run"
    assert run_cli(["coincidence", "--profile", "--config", str(cfg), "--out", str(out)]) == 2
    assert "t_clk 5e+307 ns is too large" in assert_one_config_error(capsys)
    assert not out.exists()


def test_scenario_count_doors_name_the_field(tmp_path, capsys):
    # each exited 2 with "expected non-negative integers, got ...", naming no field
    topology = detect.topology_to_json_dict(*detect.paper_6fold_topology())
    topology["trees"][0]["mode"] = -1
    errors = assert_damaged_presets_exit_2(tmp_path, capsys, [
        ("contamination", "fig4-contamination", ("signal_photons",), -2),
        ("contamination", "fig4-contamination", ("detection",), {"inline": topology}),
    ])
    assert "signal_photons must be an integer >= 0 in a float's range, got -2" in errors[0]
    assert "splitter tree mode must be an integer >= 0 in a float's range, got -1" in errors[1]


def test_coincidence_needs_input():
    assert run_cli(["coincidence"]) == 2
    assert run_cli(["coincidence", "/nonexistent/pulses.csv"]) == 2


def test_coincidence_nan_clock_exits_2(tmp_path):
    cfg = tmp_path / "coinc.json"
    cfg.write_text('{"t_clk": NaN}')
    pulses = tmp_path / "pulses.csv"
    coinc.write_pulse_csv(pulses, [PulseEvent("A", 0.0), PulseEvent("B", 1.0)])
    assert run_cli(["coincidence", str(pulses), "--config", str(cfg)]) == 2
    # the profile never converts t_clk to a tick, so only the settings check stops it
    assert run_cli(["coincidence", "--profile", "--config", str(cfg)]) == 2


def test_coincidence_seed_must_be_a_count(tmp_path, capsys):
    cfg = tmp_path / "coinc.json"
    cfg.write_text(json.dumps({"jitter_sigma_ns": 0.3}))
    pulses = tmp_path / "pulses.csv"
    coinc.write_pulse_csv(pulses, [PulseEvent("A", 0.0), PulseEvent("B", 1.0)])
    assert run_cli(["coincidence", str(pulses), "--config", str(cfg), "--seed", "7"]) == 0
    capsys.readouterr()
    assert run_cli(["coincidence", str(pulses), "--config", str(cfg), "--seed", "-1"]) == 2
    assert "seed must be an integer >= 0 in a float's range, got -1" in assert_one_config_error(capsys)
    # without jitter no draw uses the seed, which is checked all the same
    assert run_cli(["coincidence", str(pulses), "--seed", "-1"]) == 2
    assert "seed must be an integer >= 0 in a float's range, got -1" in assert_one_config_error(capsys)


def test_coincidence_extreme_clock_exits_2(tmp_path, capsys):
    # (1e300 - 0) / 1e-300 overflows: no clock tick index can represent it
    cfg = tmp_path / "coinc.json"
    cfg.write_text(json.dumps({"t_clk": 1e-300}))
    pulses = tmp_path / "pulses.csv"
    coinc.write_pulse_csv(pulses, [PulseEvent("A", 1.0), PulseEvent("B", 1e300)])
    assert run_cli(["coincidence", str(pulses), "--config", str(cfg)]) == 2
    assert_one_config_error(capsys)


def test_coincidence_channel_count_must_be_an_integer(tmp_path, capsys):
    cfg = tmp_path / "coinc.json"
    cfg.write_text(json.dumps({"n_channels": "2"}))
    pulses = tmp_path / "pulses.csv"
    coinc.write_pulse_csv(pulses, [PulseEvent("A", 0.0), PulseEvent("B", 1.0)])
    assert run_cli(["coincidence", str(pulses), "--config", str(cfg)]) == 2
    assert_one_config_error(capsys)


def test_coincidence_window_cycles_must_be_an_integer(tmp_path, capsys):
    # a fractional window would make the analytic profile disagree with the
    # counter, which groups whole clock ticks
    pulses = tmp_path / "pulses.csv"
    coinc.write_pulse_csv(pulses, [PulseEvent("A", 0.0), PulseEvent("B", 6.0)])
    cfg = tmp_path / "coinc.json"
    for value in (2.5, 2.0, True):
        cfg.write_text(json.dumps({"window_cycles": value}))
        assert run_cli(["coincidence", str(pulses), "--config", str(cfg)]) == 2
        assert_one_config_error(capsys)
        assert run_cli(["coincidence", "--profile", "--config", str(cfg)]) == 2
        assert_one_config_error(capsys)


def test_coincidence_infinite_pulse_time_exits_2(tmp_path):
    pulses = tmp_path / "pulses.csv"
    pulses.write_text("channel,t_ns\nA,1.0\nB,inf\n")
    assert run_cli(["coincidence", str(pulses)]) == 2


def test_coincidence_infinite_clock_phase_exits_2(tmp_path):
    pulses = tmp_path / "pulses.csv"
    coinc.write_pulse_csv(pulses, [PulseEvent("A", 0.0), PulseEvent("B", 1.0)])
    assert run_cli(["coincidence", str(pulses), "--clock-phase", "inf"]) == 2


def test_coincidence_nan_clock_phase_on_empty_stream_exits_2(tmp_path, capsys):
    pulses = tmp_path / "pulses.csv"
    pulses.write_text("channel,t_ns\n")
    assert run_cli(["coincidence", str(pulses)]) == 0
    capsys.readouterr()
    assert run_cli(["coincidence", str(pulses), "--clock-phase", "nan"]) == 2
    assert "clock phase must be a finite number, got nan" in assert_one_config_error(capsys)


def test_coincidence_channel_names_round_trip(tmp_path):
    pulses = tmp_path / "pulses.csv"
    pulses.write_text('channel,t_ns\n"a,b",100.0\nc,101.0\n')
    out = tmp_path / "run"
    assert run_cli(["coincidence", str(pulses), "--out", str(out)]) == 0
    with open(out / "coincidences.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert rows == [{"channels": "a,b;c", "count": "1"}]


def test_coincidence_bad_settings_exits_2(tmp_path, capsys):
    cfg = tmp_path / "coinc.json"
    cfg.write_text(json.dumps({"t_clk": -1.0}))
    pulses = tmp_path / "pulses.csv"
    coinc.write_pulse_csv(pulses, [PulseEvent("A", 0.0)])
    assert run_cli(["coincidence", str(pulses), "--config", str(cfg)]) == 2
    assert_one_config_error(capsys)
    for settings, message in (
        ({"window_cycles": 0}, "window_cycles must be an integer in [1, 9007199254740992], got 0"),
        # named no field: "coincidence settings must be finite numbers"
        ({"t_clk": "a"}, "t_clk must be a finite number, got 'a'"),
        # "CoincidenceConfig.__init__() got an unexpected keyword argument 'bogus'"
        ({"bogus": 1}, "CoincidenceConfig takes only the keys t_clk, window_cycles, n_channels, "
                       "dead_time_ns, jitter_sigma_ns; got 'bogus'"),
        # "noonchip.coinc.CoincidenceConfig() argument after ** must be a mapping, not list"
        ([1], "CoincidenceConfig must be a JSON object, got [1]"),
    ):
        cfg.write_text(json.dumps(settings))
        assert run_cli(["coincidence", str(pulses), "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"config error: bad coincidence settings: {message}\n"


def test_invalid_choice_exits_2():
    # argparse handles unknown subcommands and bad choice values
    assert run_cli(["warp"]) == 2
    assert run_cli(["simulate", "--preset", "fig2a", "--format", "yaml"]) == 2
    assert run_cli(["simulate", "--preset", "fig2a", "--seed", "1"]) == 2
