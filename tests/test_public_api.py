"""The import surface: every package's ``__all__`` and every console
script name something that exists.

A module deleted or a name renamed without updating the package that
re-exports it leaves ``from repro.x import *`` (and the documented
``repro.x.Name`` spelling) broken while every direct import keeps
working; this pins the exported names to real objects.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

pytestmark = pytest.mark.fast

REPO = Path(__file__).resolve().parents[1]
PACKAGES = sorted(
    ".".join(init.parent.relative_to(REPO / "src").parts)
    for init in (REPO / "src" / "repro").rglob("__init__.py"))
#: ``[project.scripts]`` of pyproject.toml (read by hand: ``tomllib``
#: is 3.11+ and the suite runs on 3.10).
SCRIPTS = dict(re.findall(
    r'^([\w-]+) = "([\w.:]+)"$',
    (REPO / "pyproject.toml").read_text()
    .split("[project.scripts]")[1].split("\n[")[0],
    re.MULTILINE))


@pytest.mark.parametrize("package", PACKAGES)
def test_exported_names_resolve(package):
    module = importlib.import_module(package)
    exported = getattr(module, "__all__", None)
    if exported is None:
        pytest.fail(f"{package} declares no __all__")
    assert len(exported) == len(set(exported)), f"{package}: duplicate names"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names missing objects: {missing}"
    namespace: dict = {}
    exec(f"from {package} import *", namespace)  # noqa: S102
    assert set(exported) <= set(namespace)


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_console_script_resolves(script):
    module_name, _, attr = SCRIPTS[script].partition(":")
    entry = getattr(importlib.import_module(module_name), attr)
    assert callable(entry)
