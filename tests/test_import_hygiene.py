"""``src/`` imports only the standard library, and no test module
imports another.

``pip install .`` declares no dependencies, so a third-party import
anywhere under ``repro`` breaks ``import repro`` on a clean interpreter,
and makes every process (a benchmark pass, a sweep worker,
``repro-service``) pay for loading it.  This imports every module
``pkgutil.walk_packages`` finds under ``repro`` in a fresh interpreter
(``__main__`` modules aside: importing one runs it) and checks what that
loaded — even a third-party package that happens to be installed here
fails the gate.

A test module that imports another ties its worlds to that file's
tests, so renaming or deleting one suite breaks another: shared worlds
live in ``tests/_worlds.py`` and shared helpers in ``tests/_switches.py``.
"""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.fast

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

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


def test_no_test_module_imports_another():
    offenders = []
    for path in sorted(TESTS.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            offenders += [f"{path.relative_to(TESTS)}: {name}"
                          for name in names
                          if name.rpartition(".")[2].startswith("test_")]
    assert offenders == []
