"""The README's Python example runs as written against the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_block(heading: str) -> str:
    """The first ```python block after the README heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(f"\n## {heading}\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_sketch_runs(capsys):
    code = python_block("Library sketch")
    exec(compile(code, f"{README}:Library sketch", "exec"), {})
    assert "LossVector(" in capsys.readouterr().out
