"""The protocol-core surface: one name per transition, in every core.

Figure 1's machine — begin, ballot reception, veto-1, veto-2 / end — is
driven through one step surface, by ``CHAProcess``'s phase machine, the
VI replica and the hand-driven tests alike.  Every core class carries
exactly that surface: each surviving name exists, with one signature in
the dict core and its slotted twin, and no retired spelling of a
transition is left beside it.

Marked ``core_differential`` so the PR pre-gate runs it with the rest of
the core gates.
"""

from __future__ import annotations

import inspect

import pytest

import repro
from repro.core import CHAProcess, ChaCore, CheckpointCHAProcess, CheckpointChaCore
from repro.core.slotted import SlottedChaCore, SlottedCheckpointChaCore
from repro.switches import Switches

pytestmark = [pytest.mark.fast, pytest.mark.core_differential]

#: The step surface.  Its writing names (``step_*``, ``propose``,
#: ``detach``) are the only way a core changes state; ``has_instance``,
#: ``veto_due`` and ``ballot_payload`` only read it.  A veto payload is
#: not a core's to build: ``send_runs`` interns one per round and key.
SURFACE = ("step_begin", "propose", "ballot_payload", "veto_due",
           "step_ballot", "step_veto1", "step_end",
           "step_end_single", "has_instance", "detach")

#: Spellings the surface replaced.
RETIRED = ("begin_instance", "begin_instance_send", "on_ballot_reception",
           "on_veto1_reception", "on_veto2_reception", "end_instance",
           "wants_veto1", "wants_veto2", "veto1_payload", "veto2_payload",
           "veto_payload",
           "finish_instance_single_veto", "end_instance_single_veto")

#: Each dict core with its slotted twin.
TWINS = [(ChaCore, SlottedChaCore),
         (CheckpointChaCore, SlottedCheckpointChaCore)]


@pytest.mark.parametrize("cls", [cls for pair in TWINS for cls in pair],
                         ids=lambda cls: cls.__name__)
def test_every_core_carries_exactly_the_step_surface(cls):
    assert [name for name in SURFACE
            if not callable(getattr(cls, name, None))] == []
    assert [name for name in RETIRED if hasattr(cls, name)] == []


@pytest.mark.parametrize("name", SURFACE)
@pytest.mark.parametrize("twins", TWINS, ids=lambda pair: pair[0].__name__)
def test_twins_give_each_step_one_signature(twins, name):
    reference, slotted = (inspect.signature(getattr(cls, name))
                          for cls in twins)
    assert slotted == reference


def test_one_name_per_function():
    """The reference fold has one public name, and a process keeps no
    second route to its core."""
    for module in (repro, repro.core):
        assert not hasattr(module, "calculate_history")
    assert not hasattr(CHAProcess, "_adopt_core")
    assert not hasattr(CHAProcess(propose=str), "switches")


@pytest.mark.parametrize("core_ref", [True, False])
def test_processes_build_the_core_their_switches_pick(core_ref):
    switches = Switches(core=core_ref)
    plain = CHAProcess(propose=str, switches=switches).core
    checkpoint = CheckpointCHAProcess(propose=str, reducer=lambda s, k, v: s,
                                      initial_state=0, switches=switches).core
    assert (type(plain), type(checkpoint)) == (
        (ChaCore, CheckpointChaCore) if core_ref
        else (SlottedChaCore, SlottedCheckpointChaCore))
