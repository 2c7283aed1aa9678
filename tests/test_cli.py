"""Command-line entry points: exit codes, presets, determinism, file output."""

import csv
import json
import math

import pytest

from noonchip import cli, coinc, detect
from noonchip.circuit import ChipParams, circuit_to_json_dict, with_loss
from noonchip.coinc import PulseEvent
from noonchip.evolve import NonUnitaryError
from noonchip.scenarios import (
    PRESET_NAMES,
    ConfigError,
    NumericError,
    ScenarioConfig,
    preset,
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


def read_dir(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_preset_round_trips_through_json():
    for name in PRESET_NAMES:
        config = preset(name)
        back = ScenarioConfig.from_json(config.to_json())
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
        ScenarioConfig.from_json_dict({**base, "surprise": 1})
    sweep = {"parameter": "phi", "grid": [0.0, 1.0], "pattern": {"1": 1}}
    unread = [
        {"seed": 1},  # no scenario draws random numbers
        {"detection": {"preset": "paper-6fold"}},
        {"detection": {"preset": "bogus"}},
        {"sweep": sweep},
        {"signal_photons": 2},
        {"kind": "fringe", "sweep": sweep, "herald": {"0": 1}},
        {"kind": "sagnac", "detection": {"preset": "paper-6fold"}},
        {"kind": "fringe", "sweep": {**sweep, "steps": 4}},
        {"kind": "contamination", "signal_photons": 4,
         "detection": {"preset": "paper-6fold", "file": "topology.json"}},
    ]
    contamination = {"kind": "contamination", "signal_photons": 4, "herald": {"0": 1, "3": 1}}
    wrong_types = [
        {"herald": [1]},
        {"kind": "fringe", "sweep": {**sweep, "pattern": [1]}},
        {"kind": "fringe", "sweep": {**sweep, "grid": 5}},
        {"input": {"occupation": 5}},
        {"input": {"occupation": [0, 2, 2, True]}},
        {"circuit": {"chip": {"eta1": "a"}}},
        {**contamination, "signal_photons": [1]},
        {**contamination, "detection": {"preset": [1]}},
    ]
    for extra in unread + wrong_types:
        with pytest.raises(ConfigError):
            ScenarioConfig.from_json_dict({**base, **extra})


def test_wrong_config_types_exit_2(tmp_path, capsys):
    # each of these ended in a traceback (exit 1) when the runner first used it
    cases = [
        ("simulate", "fig2a", ("herald",), [1]),
        ("simulate", "fig2a", ("input", "occupation"), 5),
        ("fringe", "fig3b-4point", ("sweep", "pattern"), [1]),
        ("fringe", "fig3b-4point", ("sweep", "grid"), 5),
    ]
    for command, name, keys, value in cases:
        data = json.loads(preset(name).to_json())
        block = data
        for key in keys[:-1]:
            block = block[key]
        block[keys[-1]] = value
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        assert run_cli([command, "--config", str(path)]) == 2
        assert_one_config_error(capsys)


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


def test_contamination_preset(tmp_path):
    out = tmp_path / "run"
    code = run_cli(["contamination", "--preset", "fig4-contamination", "--out", str(out)])
    assert code == 0
    body = json.loads((out / "contamination.json").read_text())
    assert body["target_sector"] == 3
    assert body["false_to_true_ratio"] == pytest.approx(0.0673727069, rel=1e-6)


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
    path.write_text(config.to_json())
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
    simulate = json.loads(preset("fig2a").to_json())
    simulate["circuit"] = {"file": "chip.json"}
    (config_dir / "simulate.json").write_text(json.dumps(simulate))
    assert run_cli(["simulate", "--config", "../configs/simulate.json", "--out", "sim"]) == 0
    state = json.loads((elsewhere / "sim" / "state.json").read_text())
    assert state["modes"] == 3  # modes 1 and 2 plus the loss tap's environment mode

    trees, model = detect.paper_6fold_topology()
    topology = detect.topology_to_json_dict(trees, model)
    (config_dir / "topology.json").write_text(json.dumps(topology))
    contamination = json.loads(preset("fig4-contamination").to_json())
    contamination["detection"] = {"file": "topology.json"}
    (config_dir / "contamination.json").write_text(json.dumps(contamination))
    assert run_cli(["contamination", "--config", "../configs/contamination.json", "--out", "file"]) == 0
    assert run_cli(["contamination", "--preset", "fig4-contamination", "--out", "preset"]) == 0
    assert read_dir(elsewhere / "file") == read_dir(elsewhere / "preset")


def test_contamination_rejects_partial_overlap(tmp_path):
    # the pair state is evolved as indistinguishable photons; an overlap
    # below 1 would be silently ignored
    data = json.loads(preset("fig4-contamination").to_json())
    data["input"]["spdc"]["overlap"] = 0.5
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    assert run_cli(["contamination", "--config", str(path)]) == 2


def test_nan_phase_exits_2(tmp_path):
    # a NaN phase is bad input, not a non-unitary chip
    chip = json.loads(preset("fig2a").to_json())
    chip["circuit"]["chip"]["phi"] = math.nan
    fringe = json.loads(preset("fig3b-4point").to_json())
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
    path.write_text(preset("fig2a").to_json())
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


def test_fidelity_command(tmp_path, capsys):
    res = run_simulate(preset("fig2a"))
    dist = res.distributions["distribution"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    detect.write_distribution_csv(a, dist)
    detect.write_distribution_csv(b, dist)
    assert run_cli(["fidelity", str(a), str(b)]) == 0
    printed = capsys.readouterr().out.strip()
    assert float(printed) == pytest.approx(1.0, abs=1e-9)


def test_fidelity_missing_file_exits_2(tmp_path):
    a = tmp_path / "a.csv"
    detect.write_distribution_csv(a, {"x": 1.0})
    assert run_cli(["fidelity", str(a), str(tmp_path / "nope.csv")]) == 2


def test_fidelity_unnormalized_exits_2(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    detect.write_distribution_csv(a, {"x": 1.0})
    detect.write_distribution_csv(b, {"x": 0.25})
    assert run_cli(["fidelity", str(a), str(b)]) == 2


def test_fidelity_non_finite_probability_exits_2(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("outcome,probability\nx,nan\n")
    detect.write_distribution_csv(b, {"x": 1.0})
    assert run_cli(["fidelity", str(a), str(b)]) == 2
    assert_one_config_error(capsys)


def test_fidelity_short_row_exits_2(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("outcome,probability\nx\n")
    detect.write_distribution_csv(b, {"x": 1.0})
    assert run_cli(["fidelity", str(a), str(b)]) == 2
    assert_one_config_error(capsys)


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


def test_coincidence_empty_stream(tmp_path, capsys):
    pulses = tmp_path / "pulses.csv"
    pulses.write_text("channel,t_ns\n")
    assert run_cli(["coincidence", str(pulses)]) == 0
    assert capsys.readouterr().out == "0 coincidence records from 0 pulses\n"


def test_coincidence_profile(tmp_path):
    out = tmp_path / "run"
    assert run_cli(["coincidence", "--profile", "--out", str(out)]) == 0
    lines = (out / "window_profile.csv").read_text().splitlines()
    assert lines[0] == "delay_ns,probability"
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 1.0


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
    for value in (2.5, True):
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


def test_coincidence_channel_names_round_trip(tmp_path):
    pulses = tmp_path / "pulses.csv"
    pulses.write_text('channel,t_ns\n"a,b",100.0\nc,101.0\n')
    out = tmp_path / "run"
    assert run_cli(["coincidence", str(pulses), "--out", str(out)]) == 0
    with open(out / "coincidences.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert rows == [{"channels": "a,b;c", "count": "1"}]


def test_coincidence_bad_settings_exits_2(tmp_path):
    cfg = tmp_path / "coinc.json"
    cfg.write_text(json.dumps({"t_clk": -1.0}))
    pulses = tmp_path / "pulses.csv"
    coinc.write_pulse_csv(pulses, [PulseEvent("A", 0.0)])
    assert run_cli(["coincidence", str(pulses), "--config", str(cfg)]) == 2


def test_invalid_choice_exits_2():
    # argparse handles unknown subcommands and bad choice values
    assert run_cli(["warp"]) == 2
    assert run_cli(["simulate", "--preset", "fig2a", "--format", "yaml"]) == 2
    assert run_cli(["simulate", "--preset", "fig2a", "--seed", "1"]) == 2
