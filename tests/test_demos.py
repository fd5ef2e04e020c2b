"""Every script in demos/ runs to its end and prints what it is about."""

import contextlib
import io
import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"

#: demo script -> a line fragment of its output
EXPECTED = {
    "01_margins_and_classes.py": "Condorcet winner:",
    "02_rule_tour.py": "profile 4abc+2bca+3cab, margins (5, -1, 3)",
    "03_consistency_frontier.py": "holds-up-to-bound",
    "04_paradox_hunt.py": "nanson positive responsiveness: violated",
    "05_impossibility.py": "UNSATISFIABLE",
}


def test_every_demo_runs_in_process():
    demos = sorted(DEMOS.glob("*.py"))
    assert [path.name for path in demos] == sorted(EXPECTED)
    for path in demos:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            runpy.run_path(str(path), run_name="__main__")
        assert EXPECTED[path.name] in out.getvalue(), path.name
