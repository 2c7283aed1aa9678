"""The README's examples run as written, and the package's exports and the
README's call names resolve."""

import builtins
import contextlib
import importlib
import inspect
import io
import json
import math
import pkgutil
import re
from pathlib import Path

import pytest

import noonchip
from noonchip import cli, coinc
from noonchip.coinc import PulseEvent
from noonchip.scenarios import KINDS

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_json_examples_run(tmp_path):
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    *scenarios, settings = (json.loads(block) for block in blocks)

    assert len(scenarios) == 2
    for scenario in scenarios:
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps(scenario))
        out = str(tmp_path / scenario["name"])
        assert cli.main([scenario["kind"], "--config", str(config), "--out", out]) == 0

    settings_file = tmp_path / "coincidence.json"
    settings_file.write_text(json.dumps(settings))
    pulses = tmp_path / "pulses.csv"
    coinc.write_pulse_csv(pulses, [PulseEvent("A", 100.0), PulseEvent("B", 101.0)])
    argv = ["coincidence", str(pulses), "--config", str(settings_file), "--out", str(tmp_path / "cc")]
    assert cli.main(argv) == 0
    assert (tmp_path / "cc" / "coincidences.csv").read_text() == "channels,count\nA;B,1\n"


def test_readme_kinds_table_is_scenarios_kinds():
    # each row's cells after the kind, a list of backticked names or "none",
    # are the fields and forms KINDS gives that kind, in its order
    (block,) = re.findall(r"^\| kind .*?\n\n", README.read_text(), re.M | re.S)
    rows = re.findall(r"^\| `(\w+)` +\|(.*)\|$", block, re.M)
    table = {kind: tuple(tuple(re.findall(r"`(\w+)`", cell)) for cell in cells.split("|"))
             for kind, cells in rows}
    assert table == KINDS


def test_readme_library_example_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exec(compile(block, "README.md", "exec"), {})
    probability, kept_modes, _ = stdout.getvalue().splitlines()
    assert float(probability) == pytest.approx(4 / 81, rel=1e-12)
    assert kept_modes == "(1, 2)"


def test_package_exports_resolve():
    for name in noonchip.__all__:
        assert hasattr(noonchip, name), name


def test_readme_dotted_names_resolve():
    # a backticked `module.attr`, or `noonchip.module.attr`, whose head is a
    # noonchip module names an attribute of it; file names such as
    # `herald.json` are skipped
    heads = {info.name for info in pkgutil.iter_modules(noonchip.__path__)} | {"noonchip"}
    names = re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", README.read_text())
    checked, missing = [], []
    for name in names:
        head, *attrs = name.split(".")
        if head not in heads or attrs[-1] in ("json", "csv"):
            continue
        obj = noonchip if head == "noonchip" else importlib.import_module(f"noonchip.{head}")
        try:
            for attr in attrs:
                obj = getattr(obj, attr)
        except AttributeError:
            missing.append(name)
        checked.append(name)
    assert {"evolve.apply", "fock.split", "noonchip.circuit.circuit_to_json_dict"} <= set(checked)
    assert missing == []


def test_readme_call_names_resolve():
    # a backticked call form, `name(` or `module.name(`, names an attribute of a
    # noonchip module or of a class defined in one, or a builtin or math function
    modules = [noonchip] + [importlib.import_module(f"noonchip.{info.name}")
                            for info in pkgutil.iter_modules(noonchip.__path__)
                            if not info.name.startswith("_")]
    classes = [obj for module in modules for obj in vars(module).values()
               if isinstance(obj, type) and obj.__module__ == module.__name__]

    def resolve(dotted):
        """The objects from the first scope that holds dotted to its end, or None."""
        for scope in (*modules, *classes, builtins, math):
            path = [scope]
            try:
                for part in dotted.split("."):
                    path.append(getattr(path[-1], part))
            except AttributeError:
                continue
            return path
        return None

    text = README.read_text()
    names = set(re.findall(r"`([A-Za-z_][\w.]*)\(", text))
    assert {"len", "sin", "detect.paper_6fold_topology"} <= names
    assert sorted(name for name in names if resolve(name) is None) == []

    # a whole form `name(a, b, key=value)` of plain names binds to the signature
    # of what it names; other forms (... or a nested call), methods reached
    # through a class and builtins without a signature (str) are skipped
    bound, stale = [], []
    for name, args in re.findall(r"`([A-Za-z_][\w.]*)\(([^`()]*)\)`", text):
        *through, obj = resolve(name)
        args = [arg.strip() for arg in args.split(",") if arg.strip()]
        if not all(re.fullmatch(r"\w+(=\w+)?", arg) for arg in args):
            continue
        if any(isinstance(scope, type) for scope in through):
            continue
        try:
            signature = inspect.signature(obj)
        except ValueError:
            continue
        keywords = dict(arg.split("=") for arg in args if "=" in arg)
        try:
            signature.bind(*(arg for arg in args if "=" not in arg), **keywords)
        except TypeError:
            stale.append(f"{name}({', '.join(args)})")
        bound.append(name)
    assert {"contamination_report", "click_array", "nonnegative_ints", "len"} <= set(bound)
    assert stale == []
