"""README's examples run: its minimal config loads, and its library sketch
executes, so a key or a call it names that no longer exists fails here."""

import re
from pathlib import Path

from homspace.cli import DEFAULT_CONFIG, load_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(after, lang):
    """The first fenced `lang` block after the line `after`."""
    start = README.index(after)
    return re.search(rf"```{lang}\n(.*?)```", README[start:], re.S).group(1)


def test_minimal_config_loads(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(_block("A minimal config:", "json"))
    assert load_config(str(path), ())["space"]["size"] == 257


def test_cli_section_config_names_exist():
    """Every backticked dotted name in the CLI section that starts with a
    config section names a section or a leaf of DEFAULT_CONFIG."""
    start = README.index("\n## CLI")
    section = README[start:README.index("\n## ", start + 1)]
    names = {name for name in re.findall(r"`(\w+(?:\.\w+)+)`", section)
             if name.split(".")[0] in DEFAULT_CONFIG}
    assert len(names) >= 10
    for name in sorted(names):
        node = DEFAULT_CONFIG
        for part in name.split("."):
            assert isinstance(node, dict) and part in node, name
            node = node[part]


def test_library_sketch_runs(capsys):
    exec(_block("## Library sketch", "python"), {})
    assert capsys.readouterr().out
