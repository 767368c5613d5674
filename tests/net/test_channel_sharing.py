"""The channel pays once per sender: one delivered tuple, one reach walk.

Two contracts of :class:`repro.net.Channel`, pinned on both paths:

1. **Aliasing rule** — within one round, every receiver whose delivered
   messages come from the same sender holds the *same* tuple object
   (transmitters' own receptions included, drops before ``rcf`` too).
   Trace pickles are byte-identical across the two paths only because
   both follow it.  The values are the ones the all-pairs scan always
   built: a copy of it that allocates a fresh tuple per receiver gives
   equal maps.
2. **Reach memo** — the indexed path remembers each sender's
   candidates (the nodes whose snapshots lie within ``R2 + s`` of its
   own) and the walk they give: a static CHA cluster queries the grid
   once per distinct sender, not once per round, and derives each walk
   once.  Every way a position map can change under a remembered reach
   (a move after a silent round, a node joining, an unhinted call after
   hinted ones, a move inside one grid cell, drift inside the skin,
   drift that accumulates past it, a teleport, a node walking in from
   beyond the candidate disk) still matches the reference round by
   round.  A sender's coverage classes (its nodes inside ``R1`` and
   beyond) are derived exactly when its walk is.
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
from repro.net.channel import Reception, receptions_of
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
    """Count gate: the grid is asked once per distinct sender (its
    candidates), each walk is derived once, and its coverage classes
    are built with it, never again."""
    counts: dict[str, int] = {}
    count_calls(monkeypatch, SpatialGridIndex, ("buckets_overlapping",),
                counts)
    built: dict[tuple[int, int, int], tuple] = {}
    reach_of = Channel._reach_of

    def remembering(self, s, positions):
        known = reach_of(self, s, positions)
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
    returns the indexed path's memo after every round, as
    ``{sender: (candidates, walk)}`` — the very objects it holds."""
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
            if got.__class__ is tuple:  # a round's coverage classes
                got = receptions_of(got)
        assert list(got.items()) == list(want.items()), r
        memos.append({s: (memo[0], memo[2])
                      for s, memo in fast._reach.items()})
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
    # Node 0's candidates, walk and classes: kept while static; node 1
    # moves more than s/2 = 0.75, so it is re-snapshotted and node 0's
    # candidates are gathered anew with its walk.
    kept = [memo[0] for memo in memos[:4]]
    assert kept[0] == kept[1] and kept[2] == kept[3]
    assert all(a is b for a, b in zip(kept[0], kept[1]))
    assert all(a is b for a, b in zip(kept[2], kept[3]))
    assert kept[1][0] is not kept[2][0] and kept[1][1] is not kept[2][1]
    assert [walk[1:] for _, walk in kept[1:3]] == [([0, 1], []), ([0], [])]


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
        walks.append(sim.channel._reach.get(0, [None] * 3)[::2])
        sim.add_node(_Beacon(4), Point(0.2, 0.3), start_round=4)
        out += [pickle.dumps(sim.step()) for _ in range(4)]
        walks.append(sim.channel._reach.get(0, [None] * 3)[::2])
        return out

    fast, ref = records(INDEXED), records(ALL_PAIRS)
    assert fast == ref
    assert all(len(pickle.loads(rec).positions) == 5 for rec in fast[4:])
    # The beacon's candidates were gathered anew when node 4 joined
    # (an arrival is a snapshot), and its walk and classes with them.
    (cands_before, before), (cands_after, after) = walks[:2]
    assert cands_after is not cands_before and after is not before
    assert (before[1:], after[1:]) == (([0, 1, 2], [3]), ([0, 1, 2, 4], [3]))


# Skin cases: R2 = 1.5, so the skin s is 1.5 and a node is re-snapshotted
# once it lies more than 0.75 from its snapshot; the candidate disk has
# radius R2 + s = 3.


def test_drift_inside_the_skin_keeps_the_candidates():
    """Node 1 drifts 0.3 a round, 0.6 in all: never re-snapshotted, so
    node 0 keeps its candidate list, but leaves R1 and the classes are
    derived anew from the live positions."""
    say = {0: Message(0, "x")}
    worlds = [{0: Point(0.0, 0.0), 1: Point(0.8 + 0.3 * k, 0.0),
               2: Point(0.0, 0.5)} for k in range(3)]
    memos = _lockstep([(world, say, False) for world in worlds])
    cands = [memo[0][0] for memo in memos]
    walks = [memo[0][1] for memo in memos]
    assert cands[0] is cands[1] is cands[2]
    assert walks[0] is not walks[1] is not walks[2]
    assert [walk[1:] for walk in walks] == [
        ([0, 1, 2], []), ([0, 2], [1]), ([0, 2], [1])]


def test_drift_past_half_the_skin_drops_only_nearby_memos():
    """Three clusters 10 apart, one sender each.  Node 11 drifts 0.3 a
    round; the third step takes it 0.9 from its snapshot, which drops
    cluster 1's memo and no other."""
    def world(k):
        out = {}
        for c in range(3):
            out[10 * c] = Point(10.0 * c, 0.0)
            out[10 * c + 1] = Point(10.0 * c + 0.5, 0.0)
        out[11] = Point(10.5 + 0.3 * k, 0.0)
        return out

    say = {0: Message(0, "a"), 10: Message(10, "b"), 20: Message(20, "c")}
    memos = _lockstep([(world(k), say, False) for k in range(4)]
                      + [(world(3), say, True)])
    cands = [{s: memo[s][0] for s in say} for memo in memos]
    for k in (1, 2):
        assert all(cands[k][s] is cands[0][s] for s in say)
    assert cands[3][0] is cands[0][0] and cands[3][20] is cands[0][20]
    assert cands[3][10] is not cands[0][10]
    assert cands[4][10] is cands[3][10]


def test_teleport_is_re_snapshotted_at_once():
    """A listener jumps from one sender's cluster to the other's: both
    memos go, and both senders' receptions match the reference."""
    home = {0: Point(0.0, 0.0), 1: Point(0.4, 0.0),
            10: Point(10.0, 0.0), 11: Point(10.4, 0.0)}
    away = {**home, 1: Point(10.2, 0.3)}
    say = {0: Message(0, "a"), 10: Message(10, "b")}
    memos = _lockstep([(home, say, False), (home, say, True),
                       (away, say, False), (away, say, True),
                       (home, say, None)])
    assert memos[2][0][0] is not memos[1][0][0]
    assert memos[2][10][0] is not memos[1][10][0]
    assert memos[3][10][1][1:] == ([10, 11, 1], [])


def test_node_walks_in_from_beyond_the_candidate_disk():
    """Node 1 starts 4 from the sender, outside its candidate disk, and
    walks in 0.2 a round: it is re-snapshotted every fourth step and
    must be heard, then inside R1, on exactly the reference's rounds."""
    say = {0: Message(0, "x")}
    rounds = [({0: Point(0.0, 0.0), 1: Point(4.0 - 0.2 * k, 0.1),
                2: Point(-1.0, 0.0)}, say, False) for k in range(18)]
    memos = _lockstep(rounds)
    candidates = [{node for _, _, nodes in memo[0][0] for node in nodes}
                  for memo in memos]
    classes = [memo[0][1][1:] for memo in memos]
    assert candidates[0] == {0, 2} and 1 in candidates[-1]
    assert sorted(classes[0][0]) == [0, 2] and not classes[0][1]
    assert 1 in classes[-1][0]
    assert any(1 in far for _, far in classes)
