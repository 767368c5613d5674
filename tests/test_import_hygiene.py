"""``src/`` imports only the standard library.

``pip install .`` declares no dependencies, so a third-party import
anywhere under ``repro`` breaks ``import repro`` on a clean interpreter,
and makes every process (a benchmark pass, a sweep worker,
``repro-service``) pay for loading it.  This imports every module
``pkgutil.walk_packages`` finds under ``repro`` in a fresh interpreter
(``__main__`` modules aside: importing one runs it) and checks what that
loaded — even a third-party package that happens to be installed here
fails the gate.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.fast

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import importlib, json, pkgutil, sys
before = set(sys.modules)
import repro
names = [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
         if info.name.rpartition(".")[2] != "__main__"]
for name in names:
    importlib.import_module(name)
main = sys.modules["__main__"]      # multiprocessing aliases it as __mp_main__
loaded = {name.partition(".")[0] for name, module in sys.modules.items()
          if name not in before and module is not main}
print(json.dumps({"modules": names, "loaded": sorted(loaded)}))
"""


def test_src_imports_only_the_standard_library():
    run = subprocess.run(
        [sys.executable, "-c", PROBE], timeout=120, capture_output=True,
        text=True, env={"PYTHONPATH": str(SRC)},
    )
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout)
    assert len(report["modules"]) > 50, report["modules"]
    foreign = [name for name in report["loaded"]
               if name != "repro" and name not in sys.stdlib_module_names]
    assert foreign == [], f"repro imports non-stdlib modules: {foreign}"
