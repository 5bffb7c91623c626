"""The README's code runs as written against the package."""
from __future__ import annotations

import re
from pathlib import Path

from riscov import analytic, montecarlo
from riscov.config import NetworkConfig

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


def test_approx2_overshoots_are_the_quoted_ones():
    # the gaps live in README alone; analytic's docstring points to them.
    # They hold at the default seed (seed 1 reads 0.0418 at N = 1)
    text = " ".join(README.read_text().split())
    quoted = re.search(r"overshoots a 40,000-point run by (\d\.\d{4}),.*?"
                       r"at N = 2, α = 3 it overshoots by (\d\.\d{4}) and "
                       r"at N = 1 or 2, α = 4 by (\d\.\d{4})", text)
    assert quoted, "README no longer quotes approx2's overshoots"
    cases = [({}, quoted[1]), ({"n_elements": 2, "alpha": 3.0}, quoted[2]),
             ({"n_elements": 1, "alpha": 4.0}, quoted[3]), ({"n_elements": 2, "alpha": 4.0}, quoted[3])]
    for changes, gap in cases:
        cfg = NetworkConfig(n_trials=40_000, thresholds_db=(5.0,), **changes)
        simulated = montecarlo.run(cfg)["gamma_b"].probability[0]
        assert f"{analytic.coverage_path_b_approx2(cfg)[0] - simulated:.4f}" == gap, changes
