"""Every script under ``examples/`` runs to completion.

Each example asserts its own invariants and prints a table; this runs
each one in a fresh interpreter with ``PYTHONPATH=src`` (the spelling
the README uses) and requires exit code 0, so an API change that breaks
an example fails here instead of in a reader's terminal.  The service
example talks to its own server over loopback TCP only.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((REPO / "examples").glob("*.py"))


def test_examples_are_found():
    assert len(EXAMPLES) >= 7


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run(
        [sys.executable, str(script)], cwd=REPO, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, (
        f"{script.name} exited {done.returncode}\n"
        f"stdout:\n{done.stdout[-2000:]}\nstderr:\n{done.stderr[-2000:]}")
