"""No ``object.__setattr__`` call anywhere in ``src/``.

Wire objects are frozen dataclasses, built fresh and never mutated, so
one may be shared between receivers, rounds, cohort members and a kept
trace.  ``object.__setattr__`` is the one spelling that writes through
a frozen dataclass, so this parses every module under ``src/repro`` and
fails on any call of it (a mention in a docstring or comment is fine).
The trace-side half of the contract is
``tests/net/test_messages.py::test_every_dataclass_a_trace_reaches_is_frozen``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

pytestmark = pytest.mark.fast

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"


def _object_setattr_calls(tree: ast.AST) -> list[int]:
    """Line numbers of every ``object.__setattr__(...)`` call."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__setattr__"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "object"]


def test_the_gate_sees_a_call():
    assert _object_setattr_calls(ast.parse(
        "x = 1\nobject.__setattr__(payload, 'instance', 2)\n")) == [2]


def test_src_never_writes_through_a_frozen_object():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 50, modules
    found = [f"{path.relative_to(PACKAGE.parent)}:{line}"
             for path in modules
             for line in _object_setattr_calls(
                 ast.parse(path.read_text(encoding="utf-8")))]
    assert found == [], f"object.__setattr__ calls in src/: {found}"
