"""Differential verification of the slotted protocol core.

PR 7 rebuilt the CHA-family hot state as flat parallel arrays
(:mod:`repro.core.slotted`) behind the ``core`` reference switch
(``Switches(core=True)``).  This suite is the
regression gate for that core: for every protocol family the pickled
observables of a faulty run must be byte-for-byte identical across the
**full switch matrix** — core × history engine × simulation engine
(the engine switch also flips the channel, PR 3's pairing) — against
the all-reference corner.  It reuses the exact specs of
``test_history_differential``, so the two gates pin the same workloads.

Marked ``core_differential`` so PR CI can run just this gate quickly
(``pytest -m core_differential``).
"""

from __future__ import annotations

import dataclasses

import pytest
from _switches import observables, run_with
from test_history_differential import (
    MODES,
    SPECS,
    _cha_spec,
    _vi_spec,
    stack,
)

from repro.core import ChaCore, CheckpointChaCore
from repro.core.slotted import SlottedChaCore, SlottedCheckpointChaCore
from repro.switches import Switches

pytestmark = [pytest.mark.fast, pytest.mark.core_differential]

#: core_reference — the third axis on top of test_history_differential's
#: (history_reference, engine_reference) modes.
CORES = [True, False]


def _observables(spec_factory, *, core_ref: bool, history_ref: bool,
                 engine_ref: bool) -> bytes:
    return observables(run_with(
        spec_factory(),
        stack(history=history_ref, engine=engine_ref, core=core_ref)))


@pytest.mark.parametrize("name", sorted(SPECS))
def test_core_switch_byte_identical_full_matrix(name):
    """All eight switch corners produce byte-identical observables."""
    spec_factory = SPECS[name]
    baseline = _observables(spec_factory, core_ref=True,
                            history_ref=True, engine_ref=True)
    for core_ref in CORES:
        for history_ref, engine_ref in MODES:
            if core_ref and history_ref and engine_ref:
                continue  # the baseline itself
            got = _observables(spec_factory, core_ref=core_ref,
                               history_ref=history_ref,
                               engine_ref=engine_ref)
            assert got == baseline, (name, core_ref, history_ref, engine_ref)


def test_trace_free_run_matches_traced_run_and_reference_core():
    """``keep_trace`` decides only whether a trace is recorded: a
    trace-free slotted run produces the exact observables of the
    reference core's, and of its own traced run, trace aside."""
    def trace_free(core_ref, keep_trace=False):
        spec = dataclasses.replace(_cha_spec(), keep_trace=keep_trace)
        result = run_with(spec, Switches(core=core_ref))
        assert (result.trace is None) is not keep_trace
        return observables(dataclasses.replace(result, trace=None))

    assert trace_free(False) == trace_free(True)
    assert trace_free(False) == trace_free(False, keep_trace=True)


def test_spec_switch_reaches_every_process():
    """The spec's ``core`` switch pins each constructed core; the
    default builds the slotted core everywhere."""
    for core_ref, base_cls, ckpt_cls in (
            (True, ChaCore, CheckpointChaCore),
            (False, SlottedChaCore, SlottedCheckpointChaCore)):
        switches = Switches(core=core_ref)
        from test_history_differential import (
            _checkpoint_spec,
            _two_phase_spec,
        )
        for factory in (_cha_spec, _two_phase_spec):
            spec = dataclasses.replace(factory(), keep_trace=False)
            result = run_with(spec, switches)
            assert all(type(proc.core) is base_cls
                       for proc in result.processes.values())
        spec = dataclasses.replace(_checkpoint_spec(), keep_trace=False)
        result = run_with(spec, switches)
        assert all(type(proc.core) is ckpt_cls
                   for proc in result.processes.values())
        vi = dataclasses.replace(_vi_spec(), keep_trace=False)
        result = run_with(vi, switches)
        replicas = [dev.replica for dev in result.processes.values()
                    if dev.replica is not None]
        assert replicas
        assert all(type(rep.core) is ckpt_cls for rep in replicas)
