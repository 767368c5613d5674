"""Differential verification of the channel: the indexed path is
byte-identical to the reference all-pairs path.

Randomized geometries, radii, broadcast sets and adversaries; the
indexed path must produce a Reception map equal to the reference
path's, key set and all, and hand the adversary the same tentative
maps.  Whole runs over the channel, every protocol family under every
adversary class and mobility churn, are
``test_engine_differential.py``'s, in the same ``engine`` × ``channel``
corners.

Everything here is marked ``fast``: this suite is the regression gate
for any future change to the channel internals.
"""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _worlds import random_channel_world, saturated_channel_world
from repro.geometry import Point
from repro.net import (
    Adversary,
    Channel,
    Message,
    NoiseBurstAdversary,
    RadioSpec,
    RandomLossAdversary,
    Simulator,
    TargetedDropAdversary,
    WindowAdversary,
)
from repro.switches import Switches

pytestmark = pytest.mark.fast

#: Bare channels on either twin.
INDEXED = Switches()
ALL_PAIRS = Switches(channel=True)


# ----------------------------------------------------------------------
# Channel level
# ----------------------------------------------------------------------

def _adversary_pair(kind: str, seed: int):
    """Two independent, identically seeded adversaries (stateful RNGs
    must not be shared between the two paths)."""
    def make():
        if kind == "none":
            return None
        if kind == "loss":
            return RandomLossAdversary(p_drop=0.4, p_false=0.2, seed=seed)
        if kind == "window-loss":
            return WindowAdversary(
                RandomLossAdversary(p_drop=0.5, seed=seed), start=1, until=3)
        if kind == "targeted":
            return WindowAdversary(TargetedDropAdversary([0, 1]), until=4)
        if kind == "noise":
            return NoiseBurstAdversary(p_false=0.5, seed=seed)
        raise AssertionError(kind)
    return make(), make()


@pytest.mark.parametrize("adversary_kind",
                         ["none", "loss", "window-loss", "targeted", "noise"])
@pytest.mark.parametrize("seed", range(6))
def test_channel_differential_randomized(seed, adversary_kind):
    rng = random.Random(hash((seed, adversary_kind)) & 0xFFFF_FFFF)
    for trial in range(20):
        spec, positions, broadcasts = random_channel_world(rng)
        adv_fast, adv_ref = _adversary_pair(adversary_kind, seed * 31 + trial)
        fast = Channel(spec, adv_fast, switches=INDEXED)
        ref = Channel(spec, adv_ref, switches=ALL_PAIRS)
        for r in range(5):
            got = fast.deliver(r, positions, broadcasts)
            want = ref.deliver(r, positions, broadcasts)
            assert got == want
            assert set(got) == set(positions)


def test_channel_differential_incremental_mobility():
    """The index's incremental updates must track moving geometries."""
    rng = random.Random(42)
    spec = RadioSpec(r1=1.0, r2=1.5, rcf=0)
    fast = Channel(spec, switches=INDEXED)
    ref = Channel(spec, switches=ALL_PAIRS)
    positions = {i: Point(rng.uniform(-4, 4), rng.uniform(-4, 4))
                 for i in range(25)}
    for r in range(40):
        # Churn: some nodes move (a few far, most near), some vanish,
        # some appear.
        for node in list(positions):
            roll = rng.random()
            if roll < 0.3:
                p = positions[node]
                positions[node] = Point(p.x + rng.uniform(-0.2, 0.2),
                                        p.y + rng.uniform(-0.2, 0.2))
            elif roll < 0.35:
                positions[node] = Point(rng.uniform(-4, 4),
                                        rng.uniform(-4, 4))
            elif roll < 0.4:
                del positions[node]
        if rng.random() < 0.5:
            positions[100 + r] = Point(rng.uniform(-4, 4), rng.uniform(-4, 4))
        broadcasts = {i: Message(i, ("p", i, r))
                      for i in positions if rng.random() < 0.4}
        assert fast.deliver(r, positions, broadcasts) == \
            ref.deliver(r, positions, broadcasts)


@settings(max_examples=40)
@given(st.data())
def test_channel_differential_hypothesis(data):
    """Hypothesis sweep: tight integer-ish geometries hammer the exact
    boundary cases (distance == radius, shared cells, r1 == r2), with
    enough nodes that four or more senders can share a cell, on either
    side of ``rcf`` (round 0 under ``rcf=1`` takes the adversary's drops)."""
    n = data.draw(st.integers(1, 30), label="n")
    coords = st.integers(-4, 4).map(float)
    positions = {
        i: Point(data.draw(coords), data.draw(coords)) for i in range(n)
    }
    r1 = data.draw(st.sampled_from([1.0, 2.0, 3.0]), label="r1")
    r2 = data.draw(st.sampled_from([1.0, 1.5, 2.0]), label="factor") * r1
    rcf = data.draw(st.sampled_from([0, 1]), label="rcf")
    spec = RadioSpec(r1=r1, r2=max(r1, r2), rcf=rcf)
    senders = data.draw(st.sets(st.integers(0, n - 1)), label="senders")
    broadcasts = {i: Message(i, f"m{i}") for i in senders}
    adv_fast, adv_ref = _adversary_pair(
        "loss", data.draw(st.integers(0, 2**16), label="adversary seed"))
    fast = Channel(spec, adv_fast, switches=INDEXED)
    ref = Channel(spec, adv_ref, switches=ALL_PAIRS)
    assert fast.deliver(0, positions, broadcasts) == \
        ref.deliver(0, positions, broadcasts)


class _RecordingAdversary(Adversary):
    """Keeps every tentative map it is handed; dooms by a fixed policy."""

    def __init__(self, policy):
        self.policy = policy
        self.seen: list[tuple[int, dict]] = []

    def drops(self, r, tentative):
        self.seen.append((r, tentative))
        return self.policy(r, tentative)

    def false_collision(self, r, node):
        return False


def _doom_own(r, tentative):
    """Every other broadcaster loses its own message."""
    return {receiver: frozenset({receiver})
            for receiver, msgs in tentative.items()
            if receiver % 2 == r % 2
            and any(m.sender == receiver for m in msgs)}


def _doom_absent(r, tentative):
    """Every receiver is told to lose senders it was never going to hear
    (and so is a receiver that is not in the round at all)."""
    senders = {m.sender for msgs in tentative.values() for m in msgs}
    out = {receiver: frozenset(senders - {m.sender for m in msgs} | {9999})
           for receiver, msgs in tentative.items()}
    out[7777] = frozenset(senders)
    return out


def _doom_everything(r, tentative):
    senders = frozenset(m.sender for msgs in tentative.values() for m in msgs)
    return {receiver: senders for receiver in tentative if receiver % 3}


@pytest.mark.parametrize("policy", [_doom_own, _doom_absent, _doom_everything],
                         ids=lambda f: f.__name__)
def test_adversary_sees_identical_tentative_maps(policy):
    """What ``drops`` is handed is the reference path's map — same keys in
    the same order, same tuples — once per pre-``rcf`` round, and odd
    doomed sets (a broadcaster's own id, ids the receiver never heard)
    resolve as on the reference path."""
    positions, lone, rng = saturated_channel_world()
    rcf = 6
    fast_adv, ref_adv = _RecordingAdversary(policy), _RecordingAdversary(policy)
    fast = Channel(RadioSpec(r1=1.0, r2=1.5, rcf=rcf), fast_adv, switches=INDEXED)
    ref = Channel(RadioSpec(r1=1.0, r2=1.5, rcf=rcf), ref_adv, switches=ALL_PAIRS)
    for r in range(rcf + 2):
        if r == 2:
            senders = []  # a silent round still consults the adversary
        else:
            # Five of each cluster's eight: >= 4 senders in every cell.
            senders = [n for k in range(0, lone, 8)
                       for n in rng.sample(range(k, k + 8), 5)] + [lone]
        broadcasts = {s: Message(s, ("p", s, r)) for s in senders}
        assert fast.deliver(r, positions, broadcasts) == \
            ref.deliver(r, positions, broadcasts), r
    assert [r for r, _ in fast_adv.seen] == list(range(rcf))
    for (_, got), (_, want) in zip(fast_adv.seen, ref_adv.seen, strict=True):
        assert list(got.items()) == list(want.items())
        assert list(got) == list(positions)
        for tentative in (got, want):
            delivered = [msgs for msgs in tentative.values() if msgs]
            assert len({id(msgs) for msgs in delivered}) == len(delivered), \
                "every receiver owns its message tuple"


def test_channel_positions_unchanged_hint():
    spec = RadioSpec(r1=1.0, r2=1.5)
    fast = Channel(spec, switches=INDEXED)
    ref = Channel(spec, switches=ALL_PAIRS)
    positions = {i: Point(float(i % 5), float(i // 5)) for i in range(20)}
    broadcasts = {3: Message(3, "x"), 11: Message(11, "y")}
    first = fast.deliver(0, positions, broadcasts)
    hinted = fast.deliver_batch(1, positions, broadcasts, sorted(broadcasts),
                                positions_unchanged=True)
    assert first == hinted == ref.deliver(0, positions, broadcasts)


# ----------------------------------------------------------------------
# Simulator level
# ----------------------------------------------------------------------

def test_instance_level_contend_override_matches_reference():
    """A process that gains contend() as an *instance* attribute must be
    seen by the batched engine's contender precomputation."""
    from repro.contention import LeaderElectionCM
    from repro.net.node import Process

    class Quiet(Process):
        def __init__(self):
            self.active_rounds: list[int] = []
        def send(self, r, active):
            if active:
                self.active_rounds.append(r)
                return ("beep", r)
            return None
        def deliver(self, r, messages, collision): pass

    def build(switches: Switches):
        sim = Simulator(spec=RadioSpec(r1=1.0, r2=1.5),
                        cms={"C": LeaderElectionCM(stable_round=0)},
                        switches=switches)
        procs = []
        for i in range(3):
            p = Quiet()
            p.contend = lambda r: "C"  # instance-level override
            sim.add_node(p, Point(0.1 * i, 0.0))
            procs.append(p)
        sim.run(6)
        return pickle.dumps(sim.trace), [p.active_rounds for p in procs]

    ref_bytes, ref_active = build(Switches(engine=True, channel=True))
    fast_bytes, fast_active = build(Switches())
    assert fast_bytes == ref_bytes
    assert fast_active == ref_active
    assert any(ref_active), "someone must have been advised active"
