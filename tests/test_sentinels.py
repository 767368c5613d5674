"""Every module-level :class:`~repro.types.Sentinel` keeps its identity.

Table-driven over a walk of the ``repro`` package, so a sentinel added
anywhere is covered without a new test.  A sentinel pickles as a
reference to the name it was built with, so a binding under any other
name — a typo, a rename that missed the string — breaks every ``is``
check on state that was pickled or deep-copied.
"""

from __future__ import annotations

import copy
import importlib
import pickle
import pkgutil

import pytest

import repro
from repro.types import Sentinel

pytestmark = pytest.mark.fast


def _bindings() -> list[tuple[str, Sentinel]]:
    """``("module.name", sentinel)`` for every module-level binding of a
    sentinel in the package, re-exports included."""
    found = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith(".__main__"):
            continue
        module = importlib.import_module(info.name)
        found += [(f"{info.name}.{name}", value)
                  for name, value in vars(module).items()
                  if isinstance(value, Sentinel)]
    return found


BINDINGS = _bindings()


@pytest.mark.parametrize("bound, sentinel", BINDINGS,
                         ids=[bound for bound, _ in BINDINGS])
def test_sentinel_survives_pickle_and_deepcopy(bound, sentinel):
    assert bound.rsplit(".", 1)[1] == sentinel._name
    assert pickle.loads(pickle.dumps(sentinel)) is sentinel
    assert copy.deepcopy(sentinel) is sentinel


def test_walk_finds_every_known_sentinel():
    assert {bound for bound, _ in BINDINGS} >= {
        "repro.core.cha._UNDECODED",
        "repro.core.slotted._ABSENT",
        "repro.core.slotted._LOGGED_BOTTOM",
        "repro.net.messages._UNRESOLVED",
        "repro.net.messages.MIXED_TAGS",
    }
