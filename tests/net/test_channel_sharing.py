"""The channel pays once per sender: one delivered tuple, one reach walk.

Two contracts of :class:`repro.net.Channel`, pinned on both paths:

1. **Aliasing rule** — within one round, every receiver whose delivered
   messages come from the same sender holds the *same* tuple object
   (transmitters' own receptions included, drops before ``rcf`` too).
   Trace pickles are byte-identical across the two paths only because
   both follow it.  The values are the ones the all-pairs scan always
   built: a copy of it that allocates a fresh tuple per receiver gives
   equal maps.
2. **Reach memo** — the indexed path remembers each sender's walk while
   its spatial index reports no change: a static CHA cluster queries the
   grid once per distinct sender, not once per round, and every way a
   position map can change under a remembered reach (a move after a
   silent round, a node joining, an unhinted call after hinted ones, a
   move inside one grid cell) still matches the reference round by round.
   A sender's coverage classes (its nodes inside ``R1`` and beyond) are
   built exactly when its walk is, and dropped with it.
"""

from __future__ import annotations

import pickle
import random
from collections import defaultdict

import pytest

from _cores import count_calls
from test_differential import _random_world, _saturated_world
from repro import CHA, ClusterWorld, ExperimentSpec, MetricsSpec, WorkloadSpec
from repro.experiment.runner import run
from repro.geometry import Point
from repro.net import (
    Channel,
    Message,
    RadioSpec,
    RandomLossAdversary,
    Simulator,
    TargetedDropAdversary,
)
from repro.net.channel import Reception
from repro.net.index import SpatialGridIndex
from repro.switches import Switches

pytestmark = pytest.mark.fast

INDEXED = Switches()
ALL_PAIRS = Switches(channel=True)


def _assert_one_tuple_per_sender(receptions) -> int:
    """Receivers of the same senders' messages hold one tuple object;
    returns how many receivers shared a tuple with another."""
    by_senders = defaultdict(set)
    holders = defaultdict(int)
    for reception in receptions.values():
        if reception.messages:
            key = tuple(m.sender for m in reception.messages)
            by_senders[key].add(id(reception.messages))
            holders[key] += 1
    assert all(len(ids) == 1 for ids in by_senders.values()), by_senders
    return sum(count for count in holders.values() if count > 1)


def _both(spec, make_adversary=lambda: None):
    return [Channel(spec, make_adversary(), switches=switches)
            for switches in (INDEXED, ALL_PAIRS)]


# ----------------------------------------------------------------------
# 1. Aliasing rule
# ----------------------------------------------------------------------

def test_single_sender_past_rcf_shares_one_tuple():
    positions = {i: Point(0.3 * (i % 6), 0.3 * (i // 6)) for i in range(30)}
    for channel in _both(RadioSpec(r1=1.0, r2=1.5)):
        for r in range(3):
            got = channel.deliver(r, positions, {7: Message(7, ("p", r))})
            assert _assert_one_tuple_per_sender(got) > 2


def test_contending_senders_and_transmitters_share_per_sender():
    positions, lone, rng = _saturated_world()
    senders = [0, 9, 17, 30, lone]
    broadcasts = {s: Message(s, ("p", s)) for s in senders}
    for channel in _both(RadioSpec(r1=1.0, r2=1.5)):
        got = channel.deliver(0, positions, broadcasts)
        shared = _assert_one_tuple_per_sender(got)
        # The lone sender reaches one neighbour inside R1: that neighbour
        # and the transmitter itself hold one tuple.
        near = [n for n, rec in got.items()
                if n != lone and rec.messages
                and rec.messages[0].sender == lone]
        assert near and got[near[0]].messages is got[lone].messages
        assert shared >= 2
        # A contended transmitter keeps its own message's shared tuple.
        contended = [s for s in senders if got[s].lost_within_r2]
        assert contended


@pytest.mark.parametrize("make_adversary", [
    lambda: RandomLossAdversary(p_drop=0.3, seed=4),
    lambda: TargetedDropAdversary([3, 8], start=0, until=4),
], ids=["random-loss", "targeted"])
def test_pre_rcf_drops_keep_one_tuple_per_sender(make_adversary):
    rng = random.Random(8)
    positions = {i: Point(rng.uniform(-3, 3), rng.uniform(-3, 3))
                 for i in range(40)}
    fast, ref = _both(RadioSpec(r1=1.0, r2=1.6, rcf=6), make_adversary)
    dropped = 0
    for r in range(6):
        chosen = sorted(rng.sample(range(40), 6))
        broadcasts = {s: Message(s, ("p", s, r)) for s in chosen}
        got = fast.deliver(r, positions, broadcasts)
        want = ref.deliver(r, positions, broadcasts)
        assert got == want
        _assert_one_tuple_per_sender(got)
        _assert_one_tuple_per_sender(want)
        dropped += sum(rec.lost_within_r1 and not rec.messages
                       and rec.lost_within_r2 for rec in want.values())
    assert dropped


def _fresh_tuple_reference(channel: Channel, r, positions, broadcasts):
    """The all-pairs scan as it stood before delivered tuples were
    shared: a fresh tuple per receiver (the values' specification)."""
    spec = channel.spec
    senders = sorted(broadcasts)
    tentative, in_r1, in_r2 = {}, {}, {}
    for receiver, where in positions.items():
        r2_senders = [s for s in senders
                      if s != receiver and positions[s].within(where, spec.r2)]
        r1_senders = [s for s in r2_senders
                      if positions[s].within(where, spec.r1)]
        in_r1[receiver] = r1_senders
        in_r2[receiver] = r2_senders
        if receiver in broadcasts:
            tentative[receiver] = (broadcasts[receiver],)
        elif len(r2_senders) <= 1:
            tentative[receiver] = tuple(broadcasts[s] for s in r1_senders)
        else:
            tentative[receiver] = ()
    dropped = {}
    if r < spec.rcf:
        dropped = channel.adversary.drops(r, tentative)
    receptions = {}
    for receiver in positions:
        doomed = dropped.get(receiver, frozenset())
        delivered = tuple(m for m in tentative[receiver]
                          if m.sender not in doomed)
        got = {m.sender for m in delivered}
        receptions[receiver] = Reception(
            messages=delivered,
            lost_within_r1=any(s not in got for s in in_r1[receiver]),
            lost_within_r2=any(s not in got for s in in_r2[receiver]),
        )
    return receptions


@pytest.mark.parametrize("seed", range(4))
def test_shared_tuples_change_no_value(seed):
    rng = random.Random(seed)
    for trial in range(20):
        spec, positions, broadcasts = _random_world(rng)

        def loss():
            return RandomLossAdversary(p_drop=0.4, seed=seed * 97 + trial)

        fast, ref = _both(spec, loss)
        fresh = Channel(spec, loss(), switches=ALL_PAIRS)
        for r in range(5):
            want = _fresh_tuple_reference(fresh, r, positions, broadcasts)
            assert fast.deliver(r, positions, broadcasts) == want
            assert ref.deliver(r, positions, broadcasts) == want


# ----------------------------------------------------------------------
# 2. Reach memo
# ----------------------------------------------------------------------

def _classes_of(known):
    """The coverage classes a remembered walk implies: its nodes inside
    ``R1`` and those beyond, in walk order."""
    pairs = [pair for _, _, reached in known[0] for pair in reached]
    return ([node for node, inside in pairs if inside],
            [node for node, inside in pairs if not inside])


def test_static_cluster_walks_each_sender_once(monkeypatch):
    """Count gate: the grid is asked once per distinct sender, and each
    walk's coverage classes are built with it, never again."""
    counts: dict[str, int] = {}
    count_calls(monkeypatch, SpatialGridIndex, ("buckets_overlapping",),
                counts)
    built: dict[tuple[int, int, int], tuple] = {}
    reach_of = Channel._reach_of

    def remembering(self, s):
        known = reach_of(self, s)
        built.setdefault(tuple(map(id, known)), known)
        return known

    monkeypatch.setattr(Channel, "_reach_of", remembering)
    senders: set[int] = set()
    rounds = [0]
    deliver_batch = Channel.deliver_batch

    def noting(self, r, positions, broadcasts, chosen, **hint):
        senders.update(chosen)
        rounds[0] += 1
        return deliver_batch(self, r, positions, broadcasts, chosen, **hint)

    monkeypatch.setattr(Channel, "deliver_batch", noting)
    result = run(ExperimentSpec(
        protocol=CHA(), world=ClusterWorld(n=200),
        workload=WorkloadSpec(instances=20),
        metrics=MetricsSpec(metrics=("decided_instances",), invariants=()),
        keep_trace=False,
    ))
    assert set(result.metrics["decided_instances"].values()) == {20}
    assert rounds[0] >= 60 and senders
    assert counts["buckets_overlapping"] <= len(senders) < rounds[0]
    assert len(built) == len({key[0] for key in built}) == \
        counts["buckets_overlapping"]
    assert all(list(known[1:]) == list(_classes_of(known))
               for known in built.values())


def _lockstep(rounds, spec=RadioSpec(r1=1.0, r2=1.5)):
    """Feed both paths the same ``(positions, broadcasts, hint)`` rounds
    (``hint`` None: unhinted :meth:`Channel.deliver`) and compare each;
    returns the indexed path's remembered walks after every round."""
    fast, ref = _both(spec)
    memos = []
    for r, (positions, broadcasts, hint) in enumerate(rounds):
        want = ref.deliver(r, positions, broadcasts)
        if hint is None:
            got = fast.deliver(r, positions, broadcasts)
        else:
            got = fast.deliver_batch(r, positions, broadcasts,
                                     sorted(broadcasts),
                                     positions_unchanged=hint)
        assert list(got.items()) == list(want.items()), r
        memos.append(dict(fast._reach))
    return memos


def _line(n=8, gap=0.6):
    return {i: Point(i * gap, 0.0) for i in range(n)}


def test_silent_round_then_move_rebuilds_the_reach():
    before = _line()
    after = {**before, 3: Point(10.0, 10.0), 5: Point(0.2, 0.1)}
    say = {2: Message(2, "x")}
    _lockstep([(before, say, False), (before, say, True),
               (after, {}, False), (after, say, True), (after, say, True)])


def test_unhinted_deliver_after_hinted_rounds_sees_the_move():
    before = _line()
    after = {**before, 1: Point(2.9, 0.4)}
    say = {2: Message(2, "x"), 6: Message(6, "y")}
    _lockstep([(before, say, False), (before, say, True), (before, say, True),
               (after, say, None), (after, say, True)])


def test_move_within_one_cell_rebuilds_the_reach():
    # Cell size is R2 = 1.5: node 1 stays in cell (0, 0) but leaves R1
    # of node 0 and then R2 of node 2.
    positions = {0: Point(0.1, 0.1), 1: Point(0.9, 0.1), 2: Point(2.2, 0.1)}
    say = {0: Message(0, "x")}
    inside = {**positions, 1: Point(1.4, 1.4)}
    memos = _lockstep([(positions, say, False), (positions, say, True),
                       (inside, say, False), (inside, say, True),
                       (inside, {2: Message(2, "y")}, True)])
    # Node 0's walk and classes: kept while static, rebuilt on the move.
    walks = [memo[0] for memo in memos[:4]]
    assert walks[0] is walks[1] and walks[2] is walks[3]
    assert walks[1] is not walks[2]
    assert [walk[1:] for walk in walks[1:3]] == [([0, 1], []), ([0], [])]


class _Beacon:
    """Node 0 broadcasts every round; the others only listen."""

    def __init__(self, me):
        self.me = me

    def contend(self, r):
        return None

    def send(self, r, active):
        return ("beacon", r) if self.me == 0 else None

    def deliver(self, r, messages, collision):
        pass


def test_add_node_within_a_remembered_reach():
    walks = []

    def records(switches):
        sim = Simulator(spec=RadioSpec(r1=1.0, r2=1.5), switches=switches)
        for i in range(4):
            sim.add_node(_Beacon(i), Point(0.5 * i, 0.0))
        out = [pickle.dumps(sim.step()) for _ in range(4)]
        walks.append(sim.channel._reach.get(0))
        sim.add_node(_Beacon(4), Point(0.2, 0.3), start_round=4)
        out += [pickle.dumps(sim.step()) for _ in range(4)]
        walks.append(sim.channel._reach.get(0))
        return out

    fast, ref = records(INDEXED), records(ALL_PAIRS)
    assert fast == ref
    assert all(len(pickle.loads(rec).positions) == 5 for rec in fast[4:])
    # The beacon's classes were rebuilt with its walk when node 4 joined.
    before, after = walks[:2]
    assert after is not before
    assert (before[1:], after[1:]) == (([0, 1, 2], [3]), ([0, 1, 2, 4], [3]))
