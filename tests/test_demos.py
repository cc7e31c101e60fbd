"""The scripts under demos/ run to the end and print what they explain.

Each script runs in-process, as `python demos/<name>.py` would run it, with
its output captured.  The five take about 5 s together.
"""

import re
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

# a line (as a regular expression) each demo's output must contain
EXPECTED = {
    "01_parse_and_encode.py": r"5 -> 2 \[label=\"\[x >= 0\]\"\];",
    "02_summarization.py": r"after:  4 locations, 3 edges \(5 rule applications\)",
    "03_abstraction.py": r"the boolean result entails the cartesian one: True",
    "04_lbe_vs_sbe.py": r"lbe +boolean +safe +4 +0 +0 ",
    "05_counterexample.py": r"replayed concretely to the error location: True",
}


def test_every_demo_is_covered():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    out = capsys.readouterr().out
    assert re.search(EXPECTED[name], out), out
