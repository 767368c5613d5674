"""The round engine's shared seams, pinned directly.

Three contracts that more than one caller relies on, each checked here
against ground truth rather than only through whole-run byte identity:

1. The one round pipeline (:meth:`Simulator.run_round`): the batched
   engine and the VI round engine (:mod:`repro.vi.engine`) supply only
   who contends, sends and receives; mobility, detect and the record
   are the pipeline's.  Every round of a cluster run and of a VI run
   goes through its detect and record stages, and its mobility &
   liveness block (:meth:`Simulator._positions_batched`) must hold
   exactly the present nodes, in node order, at each model's
   ``position_at(r)``; its ``unchanged`` flag is a promise the channel
   acts on, so it may only be raised when the map is object-for-object
   last round's.  A round builds its :class:`RoundBatch` only when the
   unit sweep reaches an ensemble, which is the batch's only reader.
2. :meth:`Channel.deliver_batch` with ``positions_unchanged=True`` — the
   indexed channel skips re-synchronising its spatial index on that
   promise.  Hinted deliveries, including across silent rounds (which
   defer the sync), must equal the all-pairs reference's.
3. Mid-run ``add_node`` of protocol-core processes into a world whose
   drifters cross grid-cell borders: every corner of the engine,
   channel, history and core switches produces the same trace and the
   same decided outputs as the all-reference corner.
"""

from __future__ import annotations

import functools
import pickle
import random

import pytest

from _cores import count_calls
from _switches import corners
from _worlds import vi_orbit_spec
import repro
from repro import CHA, ClusterWorld, ExperimentSpec, MajorityRSM, WorkloadSpec
from repro.contention import LeaderElectionCM
from repro.core.cha import CHAProcess
from repro.core.history import new_chain_generation
from repro.experiment.runner import ExperimentStepper
from repro.geometry import Point
from repro.net import (
    Channel,
    Crash,
    CrashPoint,
    CrashSchedule,
    LinearMobility,
    Message,
    RadioSpec,
    RandomLossAdversary,
    RandomWaypointMobility,
    RoundBatch,
    Simulator,
    WaypointMobility,
)
from repro.net.channel import receptions_of
from repro.switches import Switches

pytestmark = pytest.mark.fast


class Chatter:
    """Contends every fourth round, chats every third."""

    def __init__(self, me):
        self.me = me

    def contend(self, r):
        return "C" if (r + self.me) % 4 == 0 else None

    def send(self, r, active):
        if active or (r + self.me) % 3 == 0:
            return ("chat", self.me, r)
        return None

    def deliver(self, r, messages, collision):
        pass


# ----------------------------------------------------------------------
# 1. The round pipeline: Simulator._positions_batched, detect, record
# ----------------------------------------------------------------------

def _static(i):
    return Point(-2.0 + i * 0.45, 0.1 * (i % 3))


#: name -> (initial ``(mobility, start_round)`` list, ``{round: joins}``,
#: crash schedule, whether the map must eventually be promised unchanged).
WORLDS = {
    "static": (
        [(_static(i), 0) for i in range(8)], {}, None, True),
    "static-late-starts": (
        [(_static(i), 3 * (i % 3)) for i in range(8)], {}, None, True),
    "static-crashes": (
        [(_static(i), 0) for i in range(8)], {},
        CrashSchedule([Crash(1, 6, CrashPoint.AFTER_SEND),
                       Crash(5, 11, CrashPoint.BEFORE_SEND)]),
        True),
    "linear-drifters": (
        [(LinearMobility(_static(i), Point(0.07 if i % 2 else -0.07, 0.0))
          if i % 3 == 0 else _static(i), 0) for i in range(8)],
        {}, None, False),
    "waypoint-parkers": (
        [(WaypointMobility(_static(i), [Point(_static(i).x, 0.9)],
                           speed=0.2), 0) if i % 2 else (_static(i), 0)
         for i in range(8)],
        {}, None, True),
    "mid-run-joins": (
        [(RandomWaypointMobility(_static(i), arena=(-3, -3, 3, 3),
                                 speed=0.15, seed=40 + i)
          if i == 2 else _static(i), 0) for i in range(6)],
        {5: [(Point(0.3, 0.3), 7)],
         9: [(LinearMobility(Point(-1.0, 0.2), Point(0.05, 0.0)), 9),
             (Point(1.1, -0.2), 12)]},
        None, False),
    "static-mid-run-joins": (
        [(_static(i), 0) for i in range(6)],
        {8: [(Point(0.3, 0.3), 8)], 12: [(Point(-0.4, 0.5), 15)]},
        None, True),
}


@pytest.mark.parametrize("name", list(WORLDS))
def test_positions_batched_matches_mobility_truth(name):
    initial, joins, crashes, expects_unchanged = WORLDS[name]
    sim = Simulator(spec=RadioSpec(r1=1.0, r2=1.5),
                    cms={"C": LeaderElectionCM(stable_round=0)},
                    crashes=crashes or CrashSchedule())
    models = {}

    def join(mobility, start_round):
        node = sim.add_node(Chatter(len(models)), mobility,
                            start_round=start_round)
        models[node] = mobility

    for mobility, start_round in initial:
        join(mobility, start_round)

    calls = []
    original = sim._positions_batched

    def spy(r):
        present, positions, unchanged = original(r)
        calls.append((r, list(present), dict(positions), unchanged))
        return present, positions, unchanged

    sim._positions_batched = spy
    for r in range(30):
        for mobility, start_round in joins.get(r, ()):
            join(mobility, start_round)
        sim.step()

    assert [call[0] for call in calls] == list(range(30))
    previous = None
    for r, present, positions, unchanged in calls:
        assert present == [n for n in sorted(models) if sim.alive(n, r)], r
        assert list(positions) == present, r
        for node in present:
            model = models[node]
            if isinstance(model, Point):
                assert positions[node] is model, (r, node)
            else:
                assert positions[node] == model.position_at(r), (r, node)
        if unchanged:
            assert previous is not None and previous[0] == r - 1, r
            assert previous[1] == present, r
            assert all(positions[n] is previous[2][n] for n in present), r
        previous = (r, present, positions)
    assert any(call[3] for call in calls) == expects_unchanged


@pytest.mark.vi_differential
@pytest.mark.core_differential
@pytest.mark.parametrize("family", ["cluster", "vi"])
def test_every_round_goes_through_the_shared_pipeline(family):
    spec = (vi_orbit_spec() if family == "vi" else ExperimentSpec(
        protocol=CHA(), world=ClusterWorld(n=6, rcf=9),
        workload=WorkloadSpec(instances=6)))
    stepper = ExperimentStepper(spec)
    sim = stepper.simulator
    detected, recorded, stepped = [], [], []

    def spy(name, log, round_of):
        original = getattr(sim, name)

        def stage(*args):
            out = original(*args)
            log.append(round_of(args, out))
            return out
        setattr(sim, name, stage)

    spy("_detect", detected, lambda args, out: args[0])
    spy("_record", recorded, lambda args, out: out)
    spy("step", stepped, lambda args, out: out.round)
    stepper.step(stepper.total_ticks)

    rounds = list(range(sim.current_round))
    assert rounds and detected == rounds
    assert [record.round for record in recorded] == rounds
    assert len(sim.trace) == len(rounds)
    assert all(a is b for a, b in zip(recorded, sim.trace))
    # The VI run takes the phase-table engine, never the per-round
    # fallback; the cluster run steps the batched engine every round.
    assert stepped == ([] if family == "vi" else rounds)


@pytest.mark.parametrize("protocol, rounds, batches", [
    # A MajorityRSM cluster (n + 2 rounds an instance) has no ensemble:
    # its sweep reaches no unit that reads a round batch.
    (MajorityRSM(), 50 * 22, 0),
    # A CHAP cluster is one ensemble: one batch per round.
    (CHA(), 50 * 3, 50 * 3),
])
def test_a_round_builds_its_batch_only_for_an_ensemble(monkeypatch, protocol,
                                                      rounds, batches):
    counts = {}
    count_calls(monkeypatch, RoundBatch, ["__init__"], counts)
    result = repro.run(ExperimentSpec(
        protocol=protocol, world=ClusterWorld(n=20),
        workload=WorkloadSpec(instances=50)))
    assert result.simulator.current_round == rounds
    assert counts.get("__init__", 0) == batches


# ----------------------------------------------------------------------
# 2. Channel.deliver_batch(positions_unchanged=True)
# ----------------------------------------------------------------------

def _hinted_rounds(rng: random.Random):
    """Six rounds over two position maps; the hint is raised exactly
    when a round's map is the previous round's.  Rounds 2-3 are silent:
    round 3 moves nodes without a sync, so round 4's hint sits on an
    index the channel must know to be stale."""
    n = rng.randint(6, 24)
    first = {i: Point(rng.uniform(-3, 3), rng.uniform(-3, 3))
             for i in range(n)}
    second = dict(first)
    for i in rng.sample(range(n), max(1, n // 3)):
        second[i] = Point(rng.uniform(-3, 3), rng.uniform(-3, 3))

    def chatter():
        chosen = sorted(rng.sample(range(n), rng.randint(1, max(1, n // 4))))
        return {i: Message(i, f"m{i}.{rng.random():.3f}") for i in chosen}

    return [
        (first, chatter(), False),
        (first, chatter(), True),
        (first, {}, True),
        (second, {}, False),
        (second, chatter(), True),
        (second, chatter(), True),
    ]


@pytest.mark.parametrize("adversary", ["none", "loss"])
@pytest.mark.parametrize("seed", range(6))
def test_positions_unchanged_hint_matches_reference(seed, adversary):
    rng = random.Random(seed)
    spec = RadioSpec(r1=1.0, r2=1.6, rcf=4 if adversary == "loss" else 0)

    def channel(switches):
        loss = (RandomLossAdversary(p_drop=0.4, p_false=0.2, seed=seed)
                if adversary == "loss" else None)
        return Channel(spec, adversary=loss, switches=switches)

    fast = channel(Switches())
    ref = channel(Switches(channel=True))
    for r, (positions, broadcasts, hint) in enumerate(_hinted_rounds(rng)):
        senders = sorted(broadcasts)
        got = fast.deliver_batch(r, positions, broadcasts, senders,
                                 positions_unchanged=hint)
        if got.__class__ is tuple:  # a round's coverage classes
            got = receptions_of(got)
        want = ref.deliver_batch(r, positions, broadcasts, senders)
        assert list(got.items()) == list(want.items()), (seed, r)


# ----------------------------------------------------------------------
# 3. Mid-run add_node across the switch corners
# ----------------------------------------------------------------------

def _proposal(node, k):
    return f"v{node}.{k:06d}"


def _core(node):
    return CHAProcess(propose=functools.partial(_proposal, node),
                      cm_name="C")


@functools.cache
def _late_join_bytes(switches: Switches) -> tuple[bytes, bytes]:
    """(traced run's trace, untraced run's outputs and proposals).

    Eight CHA nodes over two cell columns (width ``r2 = 2``); nodes 1
    and 4 drift across ``x = 0`` mid-run.  At round 10 a static core
    joins for round 14 and a drifting one joins on the spot.
    """
    def execute(record_trace):
        new_chain_generation()
        sim = Simulator(spec=RadioSpec(r1=2.0, r2=2.0),
                        cms={"C": LeaderElectionCM(stable_round=0)},
                        record_trace=record_trace, switches=switches)
        for i in range(8):
            x = -0.9 + i * 0.25
            if i in (1, 4):
                mobility = LinearMobility(
                    Point(x, 0.0), Point(0.02 if i == 1 else -0.02, 0.0))
            else:
                mobility = Point(x, 0.2)
            sim.add_node(_core(i), mobility)
        sim.run(10)
        sim.add_node(_core(8), Point(0.8, 0.4), start_round=14)
        sim.add_node(_core(9), LinearMobility(Point(-0.5, -0.3),
                                              Point(0.015, 0.0)),
                     start_round=10)
        sim.run(50)
        return sim

    traced = execute(True)
    untraced = execute(False)
    decided = [(node, list(untraced.process_of(node).outputs),
                dict(untraced.process_of(node).proposals_made))
               for node in untraced.node_ids]
    assert any(log for _, log, _ in decided), "somebody must decide"
    return pickle.dumps(traced.trace), pickle.dumps(decided)


*LATE_JOIN_MODES, LATE_JOIN_ANCHOR = corners("engine", "channel",
                                             "history", "core")


@pytest.mark.parametrize("switches", LATE_JOIN_MODES, ids=lambda s: "-".join(
    f"{axis}:{'ref' if getattr(s, axis) else 'fast'}"
    for axis in ("engine", "channel", "history", "core")))
def test_mid_run_join_matches_reference(switches):
    assert _late_join_bytes(switches) == _late_join_bytes(LATE_JOIN_ANCHOR)
