"""Preset configs with one or two values replaced by random JSON, and fuzzed
pulse and distribution CSV files, still end in exit 0, 2 or 3, never a
traceback, and a failure prints one stderr line; a config's line is none of
Python's own messages."""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from noonchip import cli, detect
from noonchip.fock import FockState
from noonchip.scenarios import preset


def _base(name):
    data = preset(name).to_json_dict()
    if name == "fig4-contamination":
        data["input"]["spdc"]["n_max"] = 3  # a fifth of the n_max 4 run time
    return data


BASES = {name: _base(name) for name in
         ("fig2a", "fig2b-sagnac", "fig3b-4point", "fig4", "fig4-contamination")}
#: fig2a with its input as input.state, so random JSON reaches FockState.from_json_dict
BASES["fig2a-state"] = {**BASES["fig2a"], "input": {
    "state": FockState.basis_state(BASES["fig2a"]["input"]["occupation"]).to_json_dict()}}
#: fig4-contamination with its detectors inline, so random JSON reaches detect.topology_from_json_dict
BASES["fig4-contamination-inline"] = {**BASES["fig4-contamination"], "detection": {
    "inline": detect.topology_to_json_dict(*detect.paper_6fold_topology())}}

#: names the config readers look for, so random objects reach past the key checks
NAMES = ("chip", "file", "inline", "occupation", "state", "spdc",
         "modes", "terms", "occ", "re", "im", "trees", "leaves", "mode", "det", "p",
         "efficiency", "elements", "labels", "type", "dc", "phase", "loss", "eta", "phi",
         "t", "grid", "pattern", "xi", "n_max", "0", "1", "3")

TEXT = st.sampled_from(NAMES) | st.text(max_size=6)

#: integers up to 2**1100, past what a float holds
INTEGERS = st.integers() | st.integers(-(2**1100), 2**1100)

JSON = st.recursive(
    st.none() | st.booleans() | INTEGERS | st.floats() | TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=10,
)


def _positions(value, path=()):
    """The path of every value below the top of a JSON document."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _positions(child, path + (key,))


#: parts of Python's own messages, which name no config field
PYTHON_MESSAGES = ("__init__()", "argument after", "missing key", "invalid literal", "object is not")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(BASES)), st.data())
def test_damaged_configs_exit_cleanly(name, data):
    config = copy.deepcopy(BASES[name])
    for _ in range(data.draw(st.integers(1, 2), label="replacements")):
        path = data.draw(st.sampled_from(list(_positions(config))), label="path")
        block = config
        for key in path[:-1]:
            block = block[key]
        block[path[-1]] = data.draw(JSON, label="value")
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        file = Path(tmp) / "scenario.json"
        file.write_text(json.dumps(config))
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            kind = BASES[name]["kind"]
            code = cli.main(["simulate" if kind == "sagnac" else kind, "--config", str(file)])
    assert code in (0, 2, 3)
    if code:
        assert stderr.getvalue().count("\n") == 1, stderr.getvalue()
        assert not any(leak in stderr.getvalue() for leak in PYTHON_MESSAGES), stderr.getvalue()


# -- CSV inputs -------------------------------------------------------------------

#: fields the CSV readers look for or choke on, plus random text
FIELDS = st.sampled_from(
    ("channel", "t_ns", "outcome", "probability", "A", "B", "0;1", '"', '"a,b"', "0", "1",
     "0.5", "-1", "1e308", "1e309", "inf", "-inf", "nan", "1_0", " 1", "", "\0", "\x85", "é", "١",
     "x" * 131073)  # one field past the csv module's size limit
) | st.text(max_size=6)

HEADERS = st.sampled_from(("channel,t_ns", "t_ns,channel", "outcome,probability",
                           "probability,outcome,extra")) | st.lists(FIELDS, max_size=3).map(",".join)

LINE_ENDS = st.sampled_from(("\n", "\r\n", "\r"))


@st.composite
def csv_bytes(draw):
    """A CSV file's bytes: a header and rows of fuzzed fields, or raw bytes."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=40))
    rows = draw(st.lists(st.lists(FIELDS, max_size=4).map(",".join), max_size=6))
    end = draw(LINE_ENDS)
    return end.join([draw(HEADERS)] + rows).encode("utf-8", "surrogatepass")


def _run_files(command, contents):
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, body in enumerate(contents):
            paths.append(Path(tmp) / f"input{i}.csv")
            paths[-1].write_bytes(body)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main([command, *map(str, paths)])
    assert code in (0, 2, 3)
    if code:
        assert stderr.getvalue().count("\n") == 1, stderr.getvalue()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(csv_bytes())
def test_fuzzed_pulse_csv_exits_cleanly(body):
    _run_files("coincidence", [body])


REFERENCE = b"outcome,probability\n0;1,0.5\n1;0,0.5\n"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(csv_bytes(), st.booleans())
def test_fuzzed_distribution_csv_exits_cleanly(body, first):
    _run_files("fidelity", [body, REFERENCE] if first else [REFERENCE, body])
