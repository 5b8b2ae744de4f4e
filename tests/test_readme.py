"""README's examples run: its minimal config loads, and its library sketch
executes, so a key or a call it names that no longer exists fails here."""

import re
from pathlib import Path

from homspace.cli import load_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(after, lang):
    """The first fenced `lang` block after the line `after`."""
    start = README.index(after)
    return re.search(rf"```{lang}\n(.*?)```", README[start:], re.S).group(1)


def test_minimal_config_loads(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(_block("A minimal config:", "json"))
    assert load_config(str(path), ())["space"]["size"] == 257


def test_library_sketch_runs(capsys):
    exec(_block("## Library sketch", "python"), {})
    assert capsys.readouterr().out
