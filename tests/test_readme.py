"""The README's example scenario config and coincidence settings run as written."""

import json
import re
from pathlib import Path

from noonchip import cli, coinc
from noonchip.coinc import PulseEvent

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_json_examples_run(tmp_path):
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    scenario, settings = (json.loads(block) for block in blocks)

    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(scenario))
    assert cli.main([scenario["kind"], "--config", str(config), "--out", str(tmp_path / "run")]) == 0

    settings_file = tmp_path / "coincidence.json"
    settings_file.write_text(json.dumps(settings))
    pulses = tmp_path / "pulses.csv"
    coinc.write_pulse_csv(pulses, [PulseEvent("A", 100.0), PulseEvent("B", 101.0)])
    argv = ["coincidence", str(pulses), "--config", str(settings_file), "--out", str(tmp_path / "cc")]
    assert cli.main(argv) == 0
    assert (tmp_path / "cc" / "coincidences.csv").read_text() == "channels,count\nA;B,1\n"
