"""Preset configs with one or two values replaced by random JSON still end in
exit 0, 2 or 3, never a traceback, and a failure prints one stderr line."""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from noonchip import cli
from noonchip.scenarios import preset


def _base(name):
    data = preset(name).to_json_dict()
    if name == "fig4-contamination":
        data["input"]["spdc"]["n_max"] = 3  # a fifth of the n_max 4 run time
    return data


BASES = {name: _base(name) for name in
         ("fig2a", "fig2b-sagnac", "fig3b-4point", "fig4", "fig4-contamination")}

#: names the config readers look for, so random objects reach past the key checks
NAMES = ("chip", "file", "inline", "preset", "paper-6fold", "occupation", "state", "spdc",
         "modes", "terms", "occ", "re", "im", "trees", "leaves", "mode", "det", "p",
         "efficiency", "elements", "labels", "type", "dc", "phase", "loss", "eta", "phi",
         "t", "grid", "pattern", "parameter", "xi", "n_max", "overlap", "0", "1", "3")

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
