"""The fast path is still fast: the production stack against
``Switches.REFERENCE`` (every reference twin at once).

Both sides run back to back in one process, so their ratio cancels the
machine's speed and the floor holds on any box.  A row fails when its
ratio falls more than 15 % under its anchor.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import (
    CHA,
    ClusterWorld,
    ExperimentSpec,
    MajorityRSM,
    Switches,
    WorkloadSpec,
    run,
)

#: Row name -> (spec, anchored fast-vs-reference wall-time ratio).
#: ``cha-400`` is anchored so that a fast side without ensemble
#: dispatch (its processes stepped one by one, about x4.2-7.0 on a 2-CPU
#: box, against x18.3-24.6 for the whole stack) falls under its floor.
ROWS = {
    "cha-400": (ExperimentSpec(
        protocol=CHA(), world=ClusterWorld(n=400),
        workload=WorkloadSpec(instances=60), keep_trace=False), 12.0),
    "e8-majority-200": (ExperimentSpec(
        protocol=MajorityRSM(), world=ClusterWorld(n=200),
        workload=WorkloadSpec(rounds=600), keep_trace=False), 2.0),
}

#: A measured ratio may fall to this fraction of its anchor.
TOLERANCE = 0.85


def _wall_s(spec: ExperimentSpec, switches: Switches) -> float:
    return run(dataclasses.replace(spec, switches=switches)).timings["wall_s"]


@pytest.mark.parametrize("name", ROWS)
def test_fast_stack_beats_the_reference_stack(name):
    spec, anchor = ROWS[name]
    fast = min(_wall_s(spec, Switches()) for _ in range(3))
    ratio = _wall_s(spec, Switches.REFERENCE) / fast
    floor = anchor * TOLERANCE
    assert ratio >= floor, (
        f"{name}: the fast stack is only x{ratio:.2f} the reference "
        f"stack (floor x{floor:.2f} = {TOLERANCE} x anchor {anchor})")
