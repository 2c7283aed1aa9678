"""Every preset writes the same bytes as when the pinned hashes were taken.

golden_presets.json holds the SHA-256 of each file that each preset writes
in csv and json, and of its stdout without --out.  A change that moves an
output must update the hash here and say so in CHANGES.md.  To rewrite the
file from the current code:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from noonchip import cli
from noonchip.scenarios import PRESET_NAMES, preset

GOLDEN = Path(__file__).resolve().parent / "golden_presets.json"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def preset_hashes() -> dict[str, str]:
    """{"<preset>/<format>/<file>" or "<preset>/<format>/stdout": sha256}.

    One run per preset and format writes the files; _emit prints the summary
    before the "wrote" lines, so dropping those gives the stdout of the same
    run without --out.
    """
    hashes = {}
    for name in PRESET_NAMES:
        kind = preset(name).kind
        command = "simulate" if kind == "sagnac" else kind
        for fmt in ("csv", "json"):
            with tempfile.TemporaryDirectory() as out:
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = cli.main([command, "--preset", name, "--format", fmt, "--out", out])
                assert code == 0, (name, fmt)
                for path in sorted(Path(out).iterdir()):
                    hashes[f"{name}/{fmt}/{path.name}"] = _sha(path.read_bytes())
            summary = [line for line in stdout.getvalue().splitlines(keepends=True)
                       if not line.startswith("wrote ")]
            hashes[f"{name}/{fmt}/stdout"] = _sha("".join(summary).encode())
    return hashes


def test_preset_outputs_match_pinned_hashes():
    assert preset_hashes() == json.loads(GOLDEN.read_text())


def test_summary_is_the_stdout_without_out(capsys):
    # the premise of preset_hashes, checked on the smallest preset
    assert cli.main(["simulate", "--preset", "fig2a"]) == 0
    plain = capsys.readouterr().out
    with tempfile.TemporaryDirectory() as out:
        assert cli.main(["simulate", "--preset", "fig2a", "--out", out]) == 0
    written = capsys.readouterr().out
    assert written.startswith(plain) and written[len(plain):].startswith("wrote ")


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(preset_hashes(), indent=1, sort_keys=True) + "\n")
    sys.exit(0)
