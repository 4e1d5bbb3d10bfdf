"""The console script that pyproject.toml declares runs the CLI."""

from __future__ import annotations

import importlib
import re
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def console_scripts() -> dict[str, str]:
    """The [project.scripts] table, read line by line.

    tomllib arrived in Python 3.11 and the package supports 3.10, so the
    table is parsed here: one `name = "module:attribute"` entry per line.
    """
    scripts = {}
    section = None
    for line in PYPROJECT.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line.startswith("["):
            section = line
        elif section == "[project.scripts]" and line and not line.startswith("#"):
            match = re.fullmatch(r'([\w.-]+)\s*=\s*"([\w.]+:[\w.]+)"', line)
            assert match, f"unreadable [project.scripts] entry: {line!r}"
            scripts[match[1]] = match[2]
    return scripts


def test_console_script_verifies_the_witness_line(capsys):
    scripts = console_scripts()
    assert list(scripts) == ["oriented-ideals"]
    module, _, attribute = scripts["oriented-ideals"].partition(":")
    entry = getattr(importlib.import_module(module), attribute)
    code = entry(["verify", "--family", "line", "--weights", "1,2,1,1,1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS  line_characterization: line weights=(1, 2, 1, 1, 1)" in out
    assert "PASS  line_cubic_witness: line weights=(1, 2, 1, 1, 1), i=2" in out
