"""Smoke tests: every shipped example must run cleanly end to end."""

from __future__ import annotations

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).parent.parent / "examples").glob("*.py")
)


def _run(path: pathlib.Path, timeout: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(path)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_examples_directory_is_populated():
    names = {path.name for path in EXAMPLES}
    assert "quickstart.py" in names
    assert len(names) >= 5


@pytest.mark.parametrize(
    "name, timeout, expect",
    [
        ("quickstart.py", 240, "informed all"),
        ("token_walkthrough.py", 240, "all informed after"),
        ("layered_refutation.py", 420, "measured/claim"),
        ("adversarial_lower_bound.py", 600, "VERIFIED"),
        ("adhoc_geometric.py", 600, "Alert flooding"),
    ],
)
def test_example_runs(name, timeout, expect):
    path = pathlib.Path(__file__).parent.parent / "examples" / name
    completed = _run(path, timeout)
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert expect in completed.stdout


def test_progress_curves_example():
    path = pathlib.Path(__file__).parent.parent / "examples" / "progress_curves.py"
    completed = _run(path, 600)
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert "milestones" in completed.stdout
