"""The switch value and its one table.

Table-driven over :data:`repro.switches.AXES`, so an axis added there is
covered here without a new test: which twin a hand-built component
lands on, which twins a spec's value reaches, stability of the value
across processes, and a source scan proving the library reads no
environment variable (``spec.switches`` is the one spelling).
"""

from __future__ import annotations

import ast
import dataclasses
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core import ChaCore, SlottedChaCore
from repro.core.cha import CHAProcess
from repro.experiment import ExperimentStepper
from repro.geometry import Point
from repro.net import Channel, RadioSpec, Simulator
from repro.switches import AXES, Switches
from repro.vi import CounterProgram, VIWorld, VNSite

pytestmark = pytest.mark.fast

SRC = Path(__file__).resolve().parents[1] / "src"
RADIO = RadioSpec(r1=1.0, r2=1.5)
AXIS_IDS = [axis.name for axis in AXES]


def _vi_world(**kwargs) -> VIWorld:
    return VIWorld([VNSite(0, Point(0.0, 0.0))], {0: CounterProgram()},
                   **kwargs)


#: Per axis: build the component that consumes it by hand and report
#: which twin it landed on, as the value of that axis.
BARE = {
    "channel": lambda **kw: Channel(RADIO, **kw)._reference,
    "engine": lambda **kw: Simulator(spec=RADIO, **kw).switches.engine,
    "history": lambda **kw: ChaCore(propose=str, **kw).reference_history,
    "core": lambda **kw: type(CHAProcess(propose=str, **kw).core) is ChaCore,
    "vi": lambda **kw: _vi_world(**kw).switches.vi,
}


def _spec(**kwargs) -> repro.ExperimentSpec:
    return repro.ExperimentSpec(
        protocol=repro.CHA(), world=repro.ClusterWorld(n=3),
        workload=repro.WorkloadSpec(instances=2), **kwargs)


def test_table_covers_every_field_and_reference_is_every_twin():
    fields = [f.name for f in dataclasses.fields(Switches)]
    assert [axis.name for axis in AXES] == fields
    assert Switches.REFERENCE == Switches(**{name: True for name in fields})
    assert set(BARE) == set(fields)


@pytest.mark.parametrize("axis", AXES, ids=AXIS_IDS)
def test_a_hand_built_component_lands_on_the_twin_named(axis):
    assert BARE[axis.name]() is False
    assert BARE[axis.name](switches=Switches()) is False
    assert BARE[axis.name](switches=Switches(**{axis.name: True})) is True
    assert ExperimentStepper(_spec()).switches == Switches()


@pytest.mark.parametrize("axis", AXES, ids=AXIS_IDS)
def test_a_leftover_environment_variable_selects_nothing(axis, monkeypatch):
    """The retired ``REPRO_REFERENCE_<AXIS>`` form is inert: with it set,
    a hand-built component and a runner-built world stay on the default."""
    monkeypatch.setenv(f"REPRO_REFERENCE_{axis.name.upper()}", "1")
    assert BARE[axis.name]() is False
    stepper = ExperimentStepper(_spec())
    assert stepper.switches == Switches()
    assert stepper.simulator.switches is stepper.spec.switches


def test_switch_values_reach_the_twins_they_name():
    """One run per stack: each leaf lands on the twin its axis names."""
    for switches, core_cls in ((Switches(), SlottedChaCore),
                               (Switches.REFERENCE, ChaCore)):
        stepper = ExperimentStepper(_spec(switches=switches))
        sim = stepper.simulator
        assert sim.switches is switches
        assert sim.channel._reference == switches.channel
        cores = [proc.core for proc in stepper.processes.values()]
        assert all(type(core) is core_cls for core in cores)
        assert all(core.reference_history == switches.history
                   for core in cores)
    site = VNSite(0, Point(0.0, 0.0))
    world = repro.run(repro.ExperimentSpec(
        protocol=repro.VIEmulation(programs={0: CounterProgram()}),
        world=repro.DeployedWorld(
            sites=(site,), devices=(repro.DeviceSpec(Point(0.1, 0.0)),)),
        workload=repro.WorkloadSpec(virtual_rounds=1),
        switches=Switches.REFERENCE,
    )).world
    assert world.switches is Switches.REFERENCE
    assert world.sim.switches is Switches.REFERENCE
    replicas = [device.replica for device in world.devices.values()]
    assert replicas and all(type(r.core).__name__ == "CheckpointChaCore"
                            and r.core.reference_history for r in replicas)


def test_switches_pickle_and_hash_stably_across_processes():
    values = [Switches(), Switches.REFERENCE, Switches(core=True, vi=True)]
    probe = ("import pickle, sys; from repro.switches import Switches; "
             "vs = [Switches(), Switches.REFERENCE, "
             "Switches(core=True, vi=True)]; "
             "sys.stdout.write(repr([(hash(v), pickle.dumps(v)) "
             "for v in vs]))")
    here = repr([(hash(v), pickle.dumps(v)) for v in values])
    for seed in ("0", "12345"):
        out = subprocess.run(
            [sys.executable, "-c", probe], check=True, timeout=60,
            capture_output=True, text=True,
            env={"PYTHONPATH": str(SRC), "PYTHONHASHSEED": seed},
        ).stdout
        assert out == here
    assert [pickle.loads(pickle.dumps(v)) for v in values] == values
    assert len({Switches(), Switches(), Switches.REFERENCE}) == 2


def test_no_module_reads_the_environment():
    """No module in ``src/repro`` reads ``os.environ`` or calls
    ``getenv``: a run's switches come from its spec alone."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        offenders += [f"{path}:{node.lineno}" for node in ast.walk(tree)
                      if (isinstance(node, ast.Attribute)
                          and node.attr in ("environ", "getenv"))
                      or (isinstance(node, ast.alias)
                          and node.name in ("environ", "getenv"))]
    assert offenders == []
