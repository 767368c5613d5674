"""Differential verification of the sharded round engine.

PR 8 added :mod:`repro.net.shard`: worker processes own contiguous
column strips of the spatial grid, run the batched round logic over
their resident nodes, and exchange only boundary-cell broadcasts —
behind the ``shards`` axis of :class:`~repro.switches.Switches`
(``REPRO_SHARDS``).  This suite is the regression gate: the pickled
observables of a sharded run must be byte-for-byte identical to the
serial engine's, across shard counts, protocol families, crash waves,
the full engine/channel/history/core switch matrix, cross-border
mobility migration and mid-run ``add_node``.

Raw-simulator comparisons open a fresh chain-interning generation per
execution (mirroring the experiment stepper): without it, a previous
run's still-live chain links satisfy the current run's interning
probes and the *serial* pickle's object sharing becomes dependent on
process history.

Marked ``shard_differential`` so PR CI can run just this gate
(``pytest -m shard_differential``).
"""

from __future__ import annotations

import dataclasses
import functools
import pickle

import pytest

from _switches import corners, observables, run_with
from repro import CHA, ClusterWorld, ExperimentSpec, WorkloadSpec
from repro.contention import LeaderElectionCM
from repro.core.cha import CHAProcess
from repro.core.history import new_chain_generation
from repro.errors import ConfigurationError
from repro.experiment import (
    CheckpointCHA,
    EnvironmentSpec,
    MajorityRSM,
    MetricsSpec,
    NaiveRSM,
    TwoPhaseCHA,
)
from repro.experiment.runner import run
from repro.experiment.spec import DeployedWorld
from repro.vi.schedule import VNSite
from repro.geometry import Point
from repro.net import (
    Crash,
    CrashPoint,
    CrashSchedule,
    LinearMobility,
    RadioSpec,
    Simulator,
)
from repro.net.adversary import RandomLossAdversary
from repro.net.shard import ShardedSimulator, ShardPlan, plan_shards
from repro.switches import Switches

pytestmark = [pytest.mark.fast, pytest.mark.shard_differential]

SHARDS = [2, 4]

#: A crash wave that spans strip borders (node 0 sits in the leftmost
#: strip, 3 and 7 elsewhere for every balanced 2/4-way split of the
#: spread cluster), so recovery/contention feedback crosses workers.
CRASH_WAVE = CrashSchedule([
    Crash(0, 12, CrashPoint.AFTER_SEND),
    Crash(3, 19, CrashPoint.BEFORE_SEND),
    Crash(7, 19, CrashPoint.BEFORE_SEND),
])

PROTOCOLS = {
    "cha": lambda: CHA(),
    "checkpoint-cha": lambda: CheckpointCHA(
        reducer=lambda state, k, value: (state or 0) + 1, initial_state=0),
    "two-phase-cha": lambda: TwoPhaseCHA(),
    "naive-rsm": lambda: NaiveRSM(),
}


def _spec(protocol, *, switches=None, keep_trace=False,
          crashes=False) -> ExperimentSpec:
    env = (EnvironmentSpec(crashes=CRASH_WAVE) if crashes
           else EnvironmentSpec())
    return ExperimentSpec(
        protocol=protocol,
        # cluster_radius=4.0 spreads the deployment over several grid
        # columns of width r2 so it actually splits into strips.
        world=ClusterWorld(n=12, r1=1.0, r2=1.5, cluster_radius=4.0),
        environment=env,
        workload=WorkloadSpec(instances=8),
        metrics=MetricsSpec(metrics=("rounds", "total_broadcasts"),
                            invariants=("all",)),
        keep_trace=keep_trace,
        switches=switches,
    )


def _observables(spec, switches: Switches = Switches()) -> bytes:
    return observables(run_with(spec, switches))


# ----------------------------------------------------------------------
# Experiment-level byte identity
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_shard_matrix_byte_identical(name):
    """shards ∈ {2, 4} × keep_trace × crash waves == the serial run."""
    factory = PROTOCOLS[name]
    for keep_trace in (True, False):
        for crashes in (False, True):
            def spec():
                return _spec(factory(), keep_trace=keep_trace,
                             crashes=crashes)
            anchor = _observables(spec())
            for shards in SHARDS:
                got = _observables(spec(), Switches(shards=shards))
                assert got == anchor, (name, keep_trace, crashes, shards)


@pytest.mark.parametrize("name", ["cha", "checkpoint-cha", "two-phase-cha"])
def test_shard_switch_matrix_byte_identical(name):
    """Sharding composes with the other four reference switches: every
    (engine, channel, history, core) corner stays byte-identical to the
    same corner run serially."""
    factory = PROTOCOLS[name]
    for serial in corners("engine", "channel", "history", "core"):
        anchor = _observables(_spec(factory()), serial)
        for shards in SHARDS:
            sharded = dataclasses.replace(serial, shards=shards)
            assert _observables(_spec(factory()), sharded) == anchor, sharded


def test_environment_switch_drives_sharding(monkeypatch):
    """``REPRO_SHARDS`` shard counts apply when the spec carries no
    switches, and still produce serial-identical bytes."""
    anchor = _observables(_spec(CHA()))
    monkeypatch.setenv("REPRO_SHARDS", "2")
    forks = []
    result = run(_spec(CHA()),
                 instrument=lambda sim: forks.append(sim.switches.shards))
    assert forks == [2]
    assert observables(result) == anchor


# ----------------------------------------------------------------------
# Raw-simulator seams: migration, mid-run add_node, execution modes
# ----------------------------------------------------------------------

def _proposal(node, k):
    return f"v{node}.{k:06d}"


class Chatter:
    """Core-less scatterable process (module-level, hence picklable)."""

    def __init__(self, me):
        self.me = me
        self.heard = []

    def contend(self, r):
        return "C" if (r + self.me) % 4 == 0 else None

    def send(self, r, active):
        if active or (r + self.me) % 3 == 0:
            return ("chat", self.me, r)
        return None

    def deliver(self, r, messages, collision):
        self.heard.append((r, tuple(m.payload for m in messages), collision))


def _scatter_sim(record_trace, shards=1):
    """Ten nodes spread over ~6 grid columns; four of them drift."""
    sim = Simulator(spec=RadioSpec(r1=1.0, r2=1.5),
                    cms={"C": LeaderElectionCM(stable_round=0)},
                    record_trace=record_trace,
                    switches=Switches(shards=shards))
    for i in range(10):
        x = -4.0 + i * 0.9
        if i % 2 == 0:
            mob = LinearMobility(Point(x, 0.0),
                                 Point(0.07 if i % 4 == 0 else -0.07, 0.0))
        else:
            mob = Point(x, 0.3)
        sim.add_node(Chatter(i), mob)
    return sim


def _cha_sim(record_trace, shards=1):
    """The narrowest shardable fully-connected CHA world.

    Two cell columns (width ``r2 = 2``) with every pair within
    ``r1 = 2``; the drifters (nodes 1 and 4) cross ``x = 0`` — the
    strip border — mid-run.
    """
    sim = Simulator(spec=RadioSpec(r1=2.0, r2=2.0),
                    cms={"C": LeaderElectionCM(stable_round=0)},
                    record_trace=record_trace,
                    switches=Switches(shards=shards))
    for i in range(8):
        x = -0.9 + i * 0.25
        if i in (1, 4):
            mob = LinearMobility(Point(x, 0.0),
                                 Point(0.02 if i == 1 else -0.02, 0.0))
        else:
            mob = Point(x, 0.2)
        sim.add_node(CHAProcess(propose=functools.partial(_proposal, i),
                                cm_name="C"), mob)
    return sim


def _core_state_bytes(sim):
    return pickle.dumps(
        [(n, sim.process_of(n).core.snapshot(),
          list(sim.process_of(n).core.outputs),
          dict(sim.process_of(n).core.proposals_made))
         for n in sim.node_ids])


def test_mirror_mode_migration_trace_identical():
    """Core-less processes force mirror mode; the trace of a 3-strip
    run with border-crossing drifters matches the serial engine's."""
    new_chain_generation()
    serial = _scatter_sim(True)
    serial.run(60)
    new_chain_generation()
    sharded = ShardedSimulator(_scatter_sim(True, shards=3))
    sharded.run(60)
    sharded.finish()
    assert sharded.mirror is True
    assert not sharded.serial_fallback
    assert pickle.dumps(sharded.sim.trace) == pickle.dumps(serial.trace)


def test_fast_mode_migration_state_identical():
    """``record_trace=False`` CHA runs take the fast path: final core
    states shipped home from the workers pickle byte-identically to the
    serial engine's, including the two migrated drifters."""
    new_chain_generation()
    serial = _cha_sim(False)
    serial.run(120)
    new_chain_generation()
    sharded = ShardedSimulator(_cha_sim(False, shards=2))
    sharded.run(120)
    sharded.finish()
    assert sharded.mirror is False
    assert not sharded.serial_fallback
    assert _core_state_bytes(sharded.sim) == _core_state_bytes(serial)


def test_mirror_mode_migration_cha_trace_identical():
    new_chain_generation()
    serial = _cha_sim(True)
    serial.run(120)
    new_chain_generation()
    sharded = ShardedSimulator(_cha_sim(True, shards=2))
    sharded.run(120)
    sharded.finish()
    assert sharded.mirror is True
    assert pickle.dumps(sharded.sim.trace) == pickle.dumps(serial.trace)


def _late_join(target, *, start_round=14):
    target.run(10)
    target.add_node(CHAProcess(propose=functools.partial(_proposal, 8),
                               cm_name="C"),
                    Point(0.8, 0.4), start_round=start_round)
    target.run(40)


def test_mid_run_add_node_mirror():
    """A node registered after the workers forked reaches every strip
    and the trace stays byte-identical (the regression pinned here: the
    coordinator must not warm the steady-position cache before its own
    serial step, or the channel index never ingests the newcomer)."""
    new_chain_generation()
    serial = _cha_sim(True)
    _late_join(serial)
    new_chain_generation()
    sharded = ShardedSimulator(_cha_sim(True, shards=2))
    _late_join(sharded)
    sharded.finish()
    assert pickle.dumps(sharded.sim.trace) == pickle.dumps(serial.trace)


def test_mid_run_add_node_fast():
    """Fast mode: the late joiner is pickled to the workers, so its
    core's absent-ballot sentinel must survive the trip (the regression
    pinned here: identity-broken sentinels made phantom ballots appear
    in the shipped-home snapshot)."""
    new_chain_generation()
    serial = _cha_sim(False)
    _late_join(serial)
    new_chain_generation()
    sharded = ShardedSimulator(_cha_sim(False, shards=2))
    _late_join(sharded)
    sharded.finish()
    assert sharded.mirror is False
    assert _core_state_bytes(sharded.sim) == _core_state_bytes(serial)


def test_mid_run_add_node_requires_picklable_process():
    sharded = ShardedSimulator(_cha_sim(False, shards=2))
    sharded.step()
    with pytest.raises(ConfigurationError, match="picklable"):
        # a lambda-bearing proposer cannot be registered on the workers
        sharded.add_node(CHAProcess(propose=lambda k: f"x{k}",
                                    cm_name="C"), Point(0.5, 0.4),
                         start_round=5)


def test_serial_fallback_on_narrow_world():
    """A single-column deployment cannot split: the facade runs the
    plain serial engine and stays byte-identical trivially."""
    def narrow(record_trace, shards=1):
        sim = Simulator(spec=RadioSpec(r1=2.0, r2=2.0),
                        cms={"C": LeaderElectionCM(stable_round=0)},
                        record_trace=record_trace,
                        switches=Switches(shards=shards))
        for i in range(4):
            sim.add_node(CHAProcess(propose=functools.partial(_proposal, i),
                                    cm_name="C"),
                         Point(0.1 + i * 0.3, 0.2))
        return sim

    new_chain_generation()
    serial = narrow(True)
    serial.run(30)
    new_chain_generation()
    sharded = ShardedSimulator(narrow(True, shards=4))
    sharded.run(30)
    sharded.finish()
    assert sharded.serial_fallback
    assert pickle.dumps(sharded.sim.trace) == pickle.dumps(serial.trace)


def test_shards_one_is_serial():
    sharded = ShardedSimulator(_cha_sim(True))
    sharded.step()
    assert sharded.serial_fallback


# ----------------------------------------------------------------------
# Gates
# ----------------------------------------------------------------------

def test_rejects_nonbenign_adversary():
    sim = Simulator(spec=RadioSpec(r1=2.0, r2=2.0),
                    adversary=RandomLossAdversary(p_drop=0.5, seed=1),
                    cms={"C": LeaderElectionCM(stable_round=0)},
                    switches=Switches(shards=2))
    for i in range(4):
        sim.add_node(CHAProcess(propose=functools.partial(_proposal, i),
                                cm_name="C"), Point(-0.9 + i * 0.5, 0.2))
    sharded = ShardedSimulator(sim)
    with pytest.raises(ConfigurationError, match="NoAdversary"):
        sharded.step()


def test_runner_rejects_unsupported_protocols():
    with pytest.raises(ConfigurationError, match="majority-rsm"):
        run(_spec(MajorityRSM(), switches=Switches(shards=2)))
    def factory(*, propose, cm_name):
        return CHAProcess(propose=propose, cm_name=cm_name)

    with pytest.raises(ConfigurationError, match="factories"):
        run(_spec(CHA(process_factory=factory),
                  switches=Switches(shards=2)))


def test_spec_validates_shards():
    deployed = dataclasses.replace(
        _spec(CHA(), switches=Switches(shards=2)),
        world=DeployedWorld(sites=(VNSite(vn_id=0,
                                          location=Point(0.0, 0.0)),)))
    with pytest.raises(ConfigurationError, match="cluster"):
        deployed.validate()


# ----------------------------------------------------------------------
# Planning geometry
# ----------------------------------------------------------------------

def test_plan_shards_balances_columns():
    # 4 nodes in column 0, 2 in column 1, 2 in column 2 (cell size 1.0)
    positions = ([Point(0.1 * i, 0.0) for i in range(1, 5)]
                 + [Point(1.2, 0.0), Point(1.8, 0.0)]
                 + [Point(2.3, 0.0), Point(2.7, 0.0)])
    plan = plan_shards(positions, 1.0, 2)
    assert plan is not None and plan.shards == 2
    # the split lands after the heavy column: strips {0} and {1, 2}
    assert plan.bounds == (1,)
    assert plan.strip_of(0.5) == 0
    assert plan.strip_of(1.5) == 1
    assert plan.strip_of(2.5) == 1
    # total ownership over the whole line, including unplanned space
    assert plan.strip_of(-100.0) == 0
    assert plan.strip_of(100.0) == 1


def test_plan_shards_caps_at_distinct_columns():
    positions = [Point(0.5, 0.0), Point(1.5, 0.0), Point(2.5, 0.0)]
    plan = plan_shards(positions, 1.0, 8)
    assert plan is not None
    assert plan.shards == 3  # one strip per occupied column, no more


def test_plan_shards_single_column_is_none():
    positions = [Point(0.1, 0.0), Point(0.2, 0.0), Point(0.9, 0.0)]
    assert plan_shards(positions, 1.0, 4) is None
    assert plan_shards([], 1.0, 4) is None
    assert plan_shards(positions, 1.0, 1) is None


def test_shard_plan_edges_match_cell_arithmetic():
    plan = ShardPlan(inv_cell=1.0 / 1.5, bounds=(-1, 2))
    assert plan.shards == 3
    # col_of matches SpatialGridIndex truncation exactly
    assert plan.col_of(-1.6) == -2
    assert plan.col_of(-1.4) == -1
    assert plan.col_of(3.1) == 2
    left, right = plan.edge_cols(1)
    assert (left, right) == (-1, 1)
    assert plan.edge_cols(0) == (None, -2)
    assert plan.edge_cols(2) == (2, None)
