"""The switch value, its one resolver, and its one table.

Table-driven over :data:`repro.switches.AXES`, so an axis added there is
covered here without a new test: the environment form of every axis,
whole-value precedence of ``spec.switches`` over the environment, which
twin a hand-built component lands on, stability of the value across
processes, and a source scan proving :meth:`Switches.from_env` is the
only place the library reads a switch variable.
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


def _on(axis) -> tuple[str, Switches]:
    """The env text that turns ``axis`` on, and the value it selects."""
    return "1", Switches(**{axis.name: True})


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


@pytest.fixture(autouse=True)
def clean_environment(monkeypatch):
    for axis in AXES:
        monkeypatch.delenv(axis.env, raising=False)


def _spec(**kwargs) -> repro.ExperimentSpec:
    return repro.ExperimentSpec(
        protocol=repro.CHA(), world=repro.ClusterWorld(n=3),
        workload=repro.WorkloadSpec(instances=2), **kwargs)


def test_table_covers_every_field_and_reference_is_every_twin():
    fields = [f.name for f in dataclasses.fields(Switches)]
    assert [axis.name for axis in AXES] == fields
    assert len({axis.env for axis in AXES}) == len(AXES)
    assert Switches.from_env() == Switches()
    assert Switches.REFERENCE == Switches(**{name: True for name in fields})
    assert set(BARE) == set(fields)


@pytest.mark.parametrize("axis", AXES, ids=AXIS_IDS)
def test_environment_alone_selects_the_axis(axis, monkeypatch):
    raw, selected = _on(axis)
    default = getattr(Switches(), axis.name)
    assert BARE[axis.name]() == default
    for off in ("", "0"):
        monkeypatch.setenv(axis.env, off)
        assert Switches.from_env() == Switches()

    monkeypatch.setenv(axis.env, raw)
    assert Switches.from_env() == selected
    # ... for a hand-built component, and for a world built by the runner.
    assert BARE[axis.name]() == getattr(selected, axis.name)
    stepper = ExperimentStepper(_spec())
    assert stepper.switches == selected
    assert stepper.simulator.switches is stepper.switches
    assert stepper.spec.switches is None  # never written back


@pytest.mark.parametrize("axis", AXES, ids=AXIS_IDS)
def test_spec_switches_beat_the_environment_whole(axis, monkeypatch):
    raw, selected = _on(axis)
    monkeypatch.setenv(axis.env, raw)
    assert BARE[axis.name](switches=Switches()) \
        == getattr(Switches(), axis.name)
    # Whole-value: a spec naming *another* axis still ignores this one.
    other = Switches(history=True) if axis.name != "history" \
        else Switches(core=True)
    for given in (Switches(), other):
        assert ExperimentStepper(_spec(switches=given)).switches == given


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


def test_only_from_env_reads_a_switch_variable():
    """No module but ``repro/switches.py`` names a switch variable in
    code (docstrings may mention them), and inside it only
    ``Switches.from_env`` touches the process environment."""
    variables = {axis.env for axis in AXES}

    def env_reads(tree):
        return [node for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and node.attr in ("environ", "getenv")]

    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        if path == SRC / "repro" / "switches.py":
            resolvers = [node for node in ast.walk(tree)
                         if isinstance(node, ast.FunctionDef)
                         and node.name == "from_env"]
            assert len(resolvers) == 1
            assert len(env_reads(tree)) == len(env_reads(resolvers[0])) >= 1
            continue
        offenders += [f"{path}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Constant)
                      and node.value in variables]
    assert offenders == []
