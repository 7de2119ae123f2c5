"""Every Python example in README.md runs as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks():
    """(heading above it, source) of each ```python block in README.md."""
    text = README.read_text(encoding="utf-8")
    return [
        (re.findall(r"^#+ (.+)$", text[: m.start()], re.M)[-1], m.group(1))
        for m in re.finditer(r"^```python\n(.*?)^```$", text, re.M | re.S)
    ]


BLOCKS = python_blocks()


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("source", [src for _, src in BLOCKS], ids=[head for head, _ in BLOCKS])
def test_readme_example_runs_and_leaves_no_file(source, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(source, str(README), "exec"), {"__name__": "readme_example"})
    assert list(tmp_path.iterdir()) == []
    if "estimate_partition(" in source:
        assert capsys.readouterr().out.split()[0] == "3"  # k_hat
