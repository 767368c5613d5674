"""Ensemble dispatch against per-node dispatch, end to end.

The batched round engine steps a cluster's lockstep cohort through one
:class:`~repro.core.cha.CHAEnsemble` call per round; the reference
engine (``Switches(engine=True)``) ignores ensembles and calls every
process on its own, which forks every member out of the shared store at
its first step.  Each world here runs once per engine and the two
results must pickle byte-identically (trace, outputs, proposals,
metrics, verdicts), for every cluster class that forms a cohort, with
worlds that push members off the common path: crashes before and after
sending, seeded losses before ``rcf``, spurious collisions before the
detector's accuracy round, a node powering on late and a node added
mid-run (neither is a member).  Two worlds spread the cluster over a
circle of radius 0.6: every pair is within ``R2`` but some are beyond
``R1``, so at the leader's ballot its far receivers get a flag and fork
while the near ones stay on the store; in the second a late node (a
lone unit) sits in the leader's far class too.

The ``lossy-*`` worlds run 20 trace-free (``keep_trace=False``) instances
with every glass-box invariant requested, so forked members rejoin the
store after ``rcf`` and the checkers read their stitched views:
``lossy-long`` has a long post-``rcf`` tail, ``lossy-then-spurious``
keeps false collisions going past ``rcf`` (``racc > rcf``), so merged
members re-fork and re-merge, and ``lossy-then-crash`` crashes a member
after the merge.  Two scripted ensemble runs then adopt a ballot whose
``prev`` lies below the merge floor, or at a floor whose own row leads
below it, which forks every prefixed member exactly.

Marked ``core_differential`` so the PR pre-gate runs it with the rest of
the slotted core's byte-identity gate.
"""

from __future__ import annotations

import pickle

import pytest

from _switches import observables
from repro import ClusterWorld, ExperimentSpec, Switches, WorkloadSpec
from repro.baselines.naive_rsm import NaiveRSMProcess
from repro.baselines.two_phase_cha import TwoPhaseChaProcess
from repro.core import CHAEnsemble, CHAProcess
from repro.core.ballot import Ballot, BallotPayload, VetoPayload
from repro.core.checkpoint import CheckpointCHAProcess
from repro.detectors import EventuallyAccurateDetector
from repro.experiment import (CHA, CheckpointCHA, EnvironmentSpec, MetricsSpec,
                              NaiveRSM, TwoPhaseCHA)
from repro.experiment.runner import ExperimentStepper
from repro.geometry import Point
from repro.net import (Crash, CrashPoint, CrashSchedule, Message,
                       NoiseBurstAdversary, RandomLossAdversary, RoundBatch)
from repro.types import BOTTOM

pytestmark = [pytest.mark.fast, pytest.mark.core_differential]


def _reducer(state, k, value):
    # An int state: a cohort's members share the state object the fold
    # returns, where forked members hold equal copies, and pickle keeps
    # that sharing apart for containers but never for ints.
    return (state * 1_000_003 + k * 7 + len(repr(value))) % (1 << 61)


#: kind -> (protocol spec, rounds per instance, a lone process for a joiner)
_KINDS = {
    "cha": (CHA(), 3, lambda sw, start: CHAProcess(
        propose=lambda k: f"j.{k}", start_round=start, switches=sw)),
    "checkpoint-cha": (
        CheckpointCHA(reducer=_reducer, initial_state=0), 3,
        lambda sw, start: CheckpointCHAProcess(
            propose=lambda k: f"j.{k}", reducer=_reducer, initial_state=0,
            start_round=start, switches=sw)),
    "naive-rsm": (NaiveRSM(), 3, lambda sw, start: NaiveRSMProcess(
        propose=lambda k: f"j.{k}", start_round=start, switches=sw)),
    "two-phase-cha": (TwoPhaseCHA(), 2, lambda sw, start: TwoPhaseChaProcess(
        propose=lambda k: f"j.{k}", switches=sw)),
}


def _environment(world: str, n: int) -> tuple[EnvironmentSpec, int]:
    """A fresh environment (stateful adversaries are consumed by a run)
    and the world's ``rcf``."""
    last = n - 1
    if world == "before-send":
        return EnvironmentSpec(crashes=CrashSchedule(
            [Crash(last, 7)] + ([Crash(1, 11)] if n > 2 else []))), 0
    if world == "after-send":
        # The leader dies right after its ballot escapes.
        return EnvironmentSpec(crashes=CrashSchedule(
            [Crash(0, 6, CrashPoint.AFTER_SEND)]
            + ([Crash(last, 10, CrashPoint.AFTER_SEND)] if n > 2 else []))), 0
    if world in ("lossy", "lossy-long"):
        return EnvironmentSpec(adversary=RandomLossAdversary(
            p_drop=0.3, seed=n)), 12
    if world == "lossy-then-spurious":
        return EnvironmentSpec(
            adversary=RandomLossAdversary(p_drop=0.3, p_false=0.02, seed=n),
            detector=EventuallyAccurateDetector(racc=45)), 12
    if world == "lossy-then-crash":
        return EnvironmentSpec(
            adversary=RandomLossAdversary(p_drop=0.3, seed=n),
            crashes=CrashSchedule([Crash(last, 30)])), 12
    if world == "false-collisions":
        return EnvironmentSpec(
            adversary=NoiseBurstAdversary(p_false=0.2, seed=n),
            detector=EventuallyAccurateDetector(racc=10)), 0
    return EnvironmentSpec(), 0


def _run(kind: str, world: str, n: int, engine: bool, keep_trace: bool):
    protocol, rpi, joiner = _KINDS[kind]
    switches = Switches(engine=engine)
    env, rcf = _environment(world, n)
    wide = world.startswith("wide")
    long = world.startswith("lossy-")
    spec = ExperimentSpec(protocol=protocol,
                          world=ClusterWorld(n=n, rcf=rcf, cluster_radius=(
                              0.6 if wide else None)),
                          environment=env,
                          workload=WorkloadSpec(instances=20 if long else 8),
                          metrics=MetricsSpec(
                              invariants=("all",) if long else ()),
                          keep_trace=keep_trace, switches=switches)
    late = []

    def instrument(sim):
        if world.endswith("late-start"):
            # On the wide circle the leader, node 0, sits at (0.6, 0).
            late.append(sim.process_of(sim.add_node(
                joiner(switches, 3 * rpi), Point(-0.6 if wide else 0.0, 0.0),
                start_round=3 * rpi)))

    stepper = ExperimentStepper(spec, instrument=instrument)
    if world == "mid-run-join":
        stepper.step(4 * rpi)
        sim = stepper.simulator
        late.append(sim.process_of(sim.add_node(
            joiner(switches, 4 * rpi), Point(0.0, 0.0),
            start_round=sim.current_round)))
    result = stepper.finish()
    extra = [(list(p.outputs), p.proposals_made) for p in late]
    return observables(result) + pickle.dumps(extra), result


@pytest.mark.parametrize("world", ["lockstep", "before-send", "after-send",
                                   "lossy", "false-collisions", "late-start",
                                   "mid-run-join", "wide", "wide-late-start",
                                   "lossy-long", "lossy-then-spurious",
                                   "lossy-then-crash"])
@pytest.mark.parametrize("n", [2, 3, 20])
@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_ensemble_matches_per_node_dispatch(kind, n, world):
    keep_trace = world not in ("lockstep", "lossy-long", "lossy-then-spurious",
                               "lossy-then-crash")
    fast, result = _run(kind, world, n, False, keep_trace)
    reference, _ = _run(kind, world, n, True, keep_trace)
    assert fast == reference
    stores = {id(p.core._c) for p in result.processes.values()}
    if world in ("lockstep", "lossy-long", "lossy-then-spurious"):
        # Nobody left the common path, or everybody rejoined the store.
        assert len(stores) == 1
    if world == "lossy-then-crash":
        # The survivors rejoined; the crashed member was forked out.
        assert len(stores) == 2
        assert len(result.processes[0].core._c.members) == n - 1


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_trace_pickles_identically(kind):
    """The kept trace pickles alike whichever engine dispatched the
    members."""
    fast = _run(kind, "lockstep", 5, False, True)[1]
    reference = _run(kind, "lockstep", 5, True, True)[1]
    assert pickle.dumps(fast.trace) == pickle.dumps(reference.trace)
    assert len(fast.trace) == 8 * _KINDS[kind][1]


def test_spurious_flags_past_rcf_refork_and_remerge(monkeypatch):
    """``lossy-then-spurious`` merges, forks a merged member on a
    spurious flag, and merges again, on every kind."""
    from repro.core import slotted

    joined, reforked = [], []
    rejoin, detach = slotted.rejoin, slotted.SlottedChaCore.detach

    def counted_rejoin(lead, cores):
        joined.append(rejoin(lead, cores))
        return joined[-1]

    def counted_detach(self):
        if self._pre is not None:  # a merged member forks again
            reforked.append(len(joined))
        detach(self)

    monkeypatch.setattr(slotted, "rejoin", counted_rejoin)
    monkeypatch.setattr(slotted.SlottedChaCore, "detach", counted_detach)
    for kind in sorted(_KINDS):
        joined.clear()
        reforked.clear()
        _run(kind, "lossy-then-spurious", 20, False, False)
        assert reforked and any(joined[reforked[0]:]), kind


def _scripted(outside: dict, forked_from: int | None,
              edit=None) -> list[CHAProcess]:
    """Step a four-member ensemble (leader 0) and per-node dict-core
    twins through five instances, with the ``outside`` payloads (by
    round) from an outside sender 9 that member 3 alone hears at round
    3; every member matches its twin after every round, read whole and
    entry by entry.  Asserts that member 3 holds a prefix at round 8 (it
    rejoined at the end of instance 3) and forks at round
    ``forked_from``.  ``edit`` is applied to member 3 and its twin at
    round 5, while member 3 is off the store."""
    def build(switches=Switches()):
        return [CHAProcess(propose=lambda k, i=i: f"v{i}.{k}",
                           switches=switches) for i in range(4)]

    members, twins = build(), build(Switches(core=True))
    ens = CHAEnsemble(members)
    for r in range(15):
        sent = dict(ens.send_round(r, [0, 1, 2, 3], {0}))
        assert sent == {i: p for i in range(4)
                        if (p := twins[i].send(r, i == 0)) is not None}
        if r in outside:
            sent[9] = outside[r]
        every = tuple(Message(i, sent[i]) for i in sorted(sent))
        delivered = {i: every for i in range(4)}
        if r == 3:
            delivered[3] = (every[-1],)
        ens.deliver_round(r, [0, 1, 2, 3], delivered, dict.fromkeys(
            range(4), False), RoundBatch(dict(enumerate(every))))
        for i in range(4):
            twins[i].deliver(r, delivered[i], False)
        if r == 5 and edit is not None:
            edit(members[3])
            edit(twins[3])
        if r == 8:
            assert members[3].core._pre is not None
        if r == forked_from:
            assert members[3].core._pre is None
            assert members[3].core._c is not members[0].core._c
        for member, twin in zip(members, twins):
            assert list(member.outputs) == twin.outputs
            log = member.outputs
            assert [log[i] for i in range(-len(log), len(log))] == (
                twin.outputs * 2)
            assert dict(member.core.status) == dict(twin.core.status)
            assert pickle.dumps(member.core.snapshot()) == pickle.dumps(
                twin.core.snapshot())
            assert member.core.resident_entries() == (
                twin.core.resident_entries())
    return members


def test_a_ballot_below_the_merge_floor_forks_every_prefixed_member():
    """Scripted: member 3 adopts another ballot ``y`` at instance 2 (it
    hears only an outside sender's), an outside veto makes instance 2
    bad for all, and instance 3 makes member 3 alike again, so it
    rejoins with a prefix holding ``y``.  At instance 4 an outside
    ballot pointing at instance 2 — below the floor, not the anchor —
    is the one adopted: member 3 forks exactly and folds its own ``y``
    while the others fold ``v2``, as per-node dispatch does."""
    members = _scripted({3: BallotPayload("cha", 2, Ballot("y", 1)),
                         4: VetoPayload("cha", 2, 1),
                         9: BallotPayload("cha", 4, Ballot("a", 2))}, 9)
    assert members[3].outputs[3][1](2) == "y"
    assert members[0].outputs[3][1](2) == "v0.2"


def test_a_ballot_at_a_bad_merge_floor_forks_every_prefixed_member():
    """Scripted: as above, but instance 3 adopts an outside ballot
    pointing at instance 2 and is made bad for all by an outside veto,
    so the members merge at floor 3 with anchor 1, and slot 3's row
    leads below the floor.  At instance 4 an outside ballot pointing at
    instance 3 — the floor itself, not the anchor — is the one adopted:
    its fold would walk 4, 3, 2, so member 3 forks exactly and folds its
    own ``y`` at 2 while the others fold ``v0.2``."""
    members = _scripted({3: BallotPayload("cha", 2, Ballot("y", 1)),
                         4: VetoPayload("cha", 2, 1),
                         6: BallotPayload("cha", 3, Ballot("a", 2)),
                         7: VetoPayload("cha", 3, 1),
                         9: BallotPayload("cha", 4, Ballot("b", 3))}, 9)
    assert [members[3].outputs[3][1](k) for k in (2, 3)] == ["y", "a"]
    assert [members[0].outputs[3][1](k) for k in (2, 3)] == ["v0.2", "a"]


def test_a_member_with_a_rewritten_log_rejoins_with_its_own():
    """Scripted: while member 3 is off the store its log gets an extra
    entry through the view, so after it rejoins its log is its prefix
    plus the store's log shifted by one: every read, whole or by index,
    still equals its twin's, and the served harvest's accessor says the
    log is never the store's entry for entry."""
    members = _scripted({3: BallotPayload("cha", 2, Ballot("y", 1)),
                         4: VetoPayload("cha", 2, 1)}, None,
                        lambda proc: proc.outputs.insert(0, (0, BOTTOM)))
    assert members[3].core._pre is not None
    assert members[3].core.log_shared_from() is None
    assert [m.core.log_shared_from() for m in members[:3]] == [0, 0, 0]
    assert len(members[3].outputs) == len(members[0].outputs) + 1
