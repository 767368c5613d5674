"""Model-conformance property tests for every adversary class.

The paper's environment contract: adversarial drops are honoured only
while ``r < rcf`` (channel stabilisation), and spurious collision
indications only while ``r < racc`` (detector accuracy, Property 2).
These tests drive *every* adversary class — including the windowed /
targeted / noise classes added for fault plans, compositions of all of
them, and adversaries compiled from whole fault plans — through a real
simulator over seeded randomised rounds, and assert the contract from
the receivers' point of view.

The scenario isolates the contract: one beacon broadcasts every round,
three listeners sit well within ``R1``, nobody else transmits.  Without
adversarial interference every listener hears the beacon and no genuine
collision is possible — so, after stabilisation, a missing message
convicts the channel of honouring a drop, and a raised flag convicts
the detector of honouring a false positive.
"""

import pytest

from repro.detectors import EventuallyAccurateDetector
from repro.faults import CrashWave, DetectorNoise, MessageStorm, Partition, \
    SenderSuppression, materialize, plan
from repro.geometry import Point
from repro.net import (
    ComposedAdversary,
    NoAdversary,
    NoiseBurstAdversary,
    PartitionAdversary,
    Process,
    RadioSpec,
    RandomLossAdversary,
    ScriptedAdversary,
    Simulator,
    TargetedDropAdversary,
    WindowAdversary,
)

STABILIZE = 12
HORIZON = 30


class Beacon(Process):
    def send(self, r, active):
        return f"beacon@{r}"

    def deliver(self, r, messages, collision):
        pass


class Listener(Process):
    def __init__(self):
        self.heard: dict[int, bool] = {}
        self.flags: dict[int, bool] = {}

    def send(self, r, active):
        return None

    def deliver(self, r, messages, collision):
        self.heard[r] = any(m.sender == 0 for m in messages)
        self.flags[r] = collision


def run_world(adversary, *, rounds=HORIZON, rcf=STABILIZE, racc=STABILIZE):
    sim = Simulator(
        spec=RadioSpec(r1=1.0, r2=1.5, rcf=rcf),
        adversary=adversary,
        detector=EventuallyAccurateDetector(racc=racc),
    )
    sim.add_node(Beacon(), Point(0.0, 0.0))
    listeners = [Listener() for _ in range(3)]
    for i, listener in enumerate(listeners):
        sim.add_node(listener, Point(0.1 + 0.05 * i, 0.0))
    sim.run(rounds)
    return listeners


def aggressive_script():
    drop = {(r, node): "all" for r in range(HORIZON) for node in range(4)}
    false = [(r, node) for r in range(HORIZON) for node in range(4)]
    return ScriptedAdversary(drop_script=drop, false_script=false)


#: (id, factory) — every adversary class, maximally aggressive and
#: scoped to *all* rounds, so only the rcf/racc gates can stop it.
ADVERSARIES = [
    ("no-adversary", lambda seed: NoAdversary()),
    ("random-loss", lambda seed: RandomLossAdversary(
        p_drop=1.0, p_false=1.0, seed=seed)),
    ("scripted", lambda seed: aggressive_script()),
    ("partition", lambda seed: WindowAdversary(PartitionAdversary(
        [[0], [1, 2, 3]]), until=HORIZON)),
    ("targeted-drop", lambda seed: TargetedDropAdversary([0])),
    ("noise-burst", lambda seed: NoiseBurstAdversary(p_false=1.0, seed=seed)),
    ("windowed-loss", lambda seed: WindowAdversary(
        RandomLossAdversary(p_drop=1.0, p_false=1.0, seed=seed),
        until=None)),
    ("composed", lambda seed: ComposedAdversary(
        TargetedDropAdversary([0]),
        NoiseBurstAdversary(p_false=1.0, seed=seed),
        RandomLossAdversary(p_drop=0.5, p_false=0.5, seed=seed),
    )),
    ("compiled-fault-plan", lambda seed: materialize(
        plan(MessageStorm(intensity=1.0, detector_noise=1.0, until=None),
             SenderSuppression(senders=(0,), until=None),
             Partition(until=HORIZON, groups=((0,), (1, 2, 3))),
             DetectorNoise(p_false=1.0, until=None),
             seed=seed),
        n=4).adversary),
]

IDS = [name for name, _ in ADVERSARIES]
FACTORIES = [factory for _, factory in ADVERSARIES]


@pytest.mark.parametrize("factory", FACTORIES, ids=IDS)
@pytest.mark.parametrize("seed", range(3))
class TestEnvironmentContract:
    def test_drops_honoured_only_before_rcf(self, factory, seed):
        for listener in run_world(factory(seed)):
            for r in range(STABILIZE, HORIZON):
                assert listener.heard[r], (
                    f"adversarial drop honoured at round {r} >= rcf"
                )

    def test_false_collisions_only_before_racc(self, factory, seed):
        for listener in run_world(factory(seed)):
            for r in range(STABILIZE, HORIZON):
                assert not listener.flags[r], (
                    f"spurious collision honoured at round {r} >= racc"
                )


@pytest.mark.parametrize("seed", range(3))
class TestAdversariesDoBite:
    """The gates above are vacuous if the adversaries never interfere;
    check each aggressive class actually bites before stabilisation."""

    BITING = [(name, factory) for name, factory in ADVERSARIES
              if name != "no-adversary"]

    @pytest.mark.parametrize(
        "factory", [f for _, f in BITING], ids=[n for n, _ in BITING])
    def test_interferes_before_stabilization(self, factory, seed):
        listeners = run_world(factory(seed))
        dropped = any(not listener.heard[r]
                      for listener in listeners
                      for r in range(STABILIZE))
        flagged = any(listener.flags[r]
                      for listener in listeners
                      for r in range(STABILIZE))
        assert dropped or flagged

    def test_crash_wave_is_not_channel_interference(self, seed):
        mat = materialize(plan(CrashWave(fraction=0.5, horizon=10),
                               seed=seed), n=4)
        assert mat.adversary is None
        assert mat.crashes is not None
