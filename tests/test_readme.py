"""The README's code runs as written against the package."""
from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The first python block under README's ``## Library`` heading."""
    section_block = r"^## Library\n(?:(?!^## ).)*?^```python\n(.*?)^```"
    match = re.search(section_block, README.read_text(), re.S | re.M)
    assert match, "README.md has no python block under ## Library"
    return match[1]


def test_library_example_runs(capsys):
    # it calls both engines, so a change to their calling convention that
    # leaves the README behind fails here
    exec(compile(library_example(), str(README), "exec"), {})
    printed = capsys.readouterr().out
    assert all(metric in printed for metric in ("gamma_o", "gamma_a", "gamma_b", "gamma_s"))
