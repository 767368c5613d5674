"""Golden-trace regression tests: one canonical seeded run per family.

Each scenario drives a small deterministic execution and renders its
trace with :func:`repro.net.canonical_dump`; the committed ``*.golden``
files pin the exact behaviour of the whole engine — geometry, channel,
adversary RNG streams, contention, detectors and every protocol's own
logic.  Any byte of drift fails here first, with a reviewable text diff.

After an intentional behaviour change, refresh with::

    PYTHONPATH=src python -m pytest tests/golden --update-golden

and commit the diff.  The scenarios deliberately exercise adversaries,
crashes, late joiners and mobility, not just the happy path.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest

from _worlds import cluster_spec, vi_join_reset_spec, vi_orbit_spec, vi_spec
from repro.experiment.runner import run
from repro.net import (
    Crash,
    CrashPoint,
    CrashSchedule,
    NoiseBurstAdversary,
    RandomLossAdversary,
    WindowAdversary,
    canonical_dump,
)
from repro.switches import Switches

pytestmark = pytest.mark.fast

GOLDEN_DIR = Path(__file__).parent


SCENARIOS = {
    "cha": lambda: cluster_spec(
        "cha", n=5, rcf=9, instances=8,
        adversary=RandomLossAdversary(p_drop=0.3, p_false=0.2, seed=11),
        crashes=CrashSchedule([Crash(4, 14, CrashPoint.AFTER_SEND)])),
    # A spread-out ring, the small-scale twin of the bench matrix's
    # ``cha-1k-spread`` scenario: adjacent nodes sit within R1 but second
    # neighbours are beyond R2, so the run exercises the multi-cell grid
    # index and partial-connectivity CHA dynamics (red and orange
    # instances away from the contention manager's leader).
    "cha-spread": lambda: cluster_spec("cha", n=16, cluster_radius=2.2,
                                       instances=6),
    "checkpoint-cha": lambda: cluster_spec("checkpoint-cha", n=4,
                                           instances=8),
    "two-phase-cha": lambda: cluster_spec(
        "two-phase-cha", n=4, rcf=6, instances=8, adversary=WindowAdversary(
            RandomLossAdversary(p_drop=0.4, seed=3), until=6)),
    "naive-rsm": lambda: cluster_spec(
        "naive-rsm", n=4, instances=8, adversary=WindowAdversary(
            NoiseBurstAdversary(p_false=0.3, seed=21), until=12)),
    "majority-rsm": lambda: cluster_spec("majority-rsm", n=5, rounds=30),
    "vi": lambda: vi_spec(6),
    "vi-join-reset": vi_join_reset_spec,
    # Every device moves: the trace carries positions, so this file pins
    # the motion kernel's floats bit for bit.
    "vi-orbit": vi_orbit_spec,
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_trace(name, request):
    dump = canonical_dump(run(SCENARIOS[name]()).trace)
    path = GOLDEN_DIR / f"{name}.golden"
    if request.config.getoption("--update-golden"):
        path.write_text(dump)
        pytest.skip(f"golden trace {path.name} rewritten")
    assert path.exists(), (
        f"missing golden file {path}; generate it with "
        f"pytest tests/golden --update-golden"
    )
    committed = path.read_text()
    assert dump == committed, (
        f"{name}: trace drifted from the committed golden.  If the "
        f"change is intentional, refresh with --update-golden and "
        f"review the diff."
    )


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_trace_reference_path(name, request):
    """The goldens hold on the full reference stack too (every twin of
    the switch table at once) — the committed files pin *model*
    behaviour, not fast-path quirks."""
    if request.config.getoption("--update-golden"):
        pytest.skip("goldens being rewritten")
    spec = dataclasses.replace(SCENARIOS[name](),
                               switches=Switches.REFERENCE)
    dump = canonical_dump(run(spec).trace)
    assert dump == (GOLDEN_DIR / f"{name}.golden").read_text()
