"""Harness self-tests: ``python -m pytest perfbench/tests`` (tier-1's
``testpaths`` does not include this directory).  Makes the checkout's
``perfbench`` and ``src/repro`` importable however pytest was started."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
