"""The cohort store, driven through the ensemble, against dict twins.

A :class:`~repro.core.cha.CHAEnsemble` steps ``N`` member processes
whose slotted cores share one store; ``N`` independently built
dict-core twins are stepped one by one with the same per-member inputs.
Each round a member takes part through the ensemble, is stepped on its
own (a lone step forks it out of the store first), or not at all (a
crash, before or after its send); it hears the whole broadcast set,
nothing, or only itself, and gets its own collision flag — every way a
member leaves the common path.  Between rounds: snapshot / restore,
``reset_to``, stray receptions and view writes on one member.  After
every operation each member is compared with its twin: output log,
``status``, ``ballots``, ``k``, ``prev_instance``, proposals, resident
entries and the pickled snapshot.

Marked ``core_differential`` so the PR pre-gate runs it with the rest of
the slotted core's byte-identity gate.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from _cores import count_calls
from _switches import materialised
from repro import CHA, ClusterWorld, ExperimentSpec, Switches, WorkloadSpec, run
from repro.baselines.naive_rsm import NaiveRSMProcess
from repro.baselines.two_phase_cha import TwoPhaseChaProcess
from repro.contention import ScriptedCM
from repro.core import CHAEnsemble, CHAProcess
from repro.core.ballot import Ballot, BallotPayload
from repro.core.checkpoint import CheckpointCHAProcess
from repro.core.history import new_chain_generation
from repro.core.slotted import SlottedChaCore, form_cohort
from repro.detectors import EventuallyAccurateDetector
from repro.errors import ProtocolError
from repro.experiment import CheckpointCHA, EnvironmentSpec
from repro.net import Message, RoundBatch, ScriptedAdversary
from repro.types import Color

pytestmark = [pytest.mark.fast, pytest.mark.core_differential]

_DICT = Switches(core=True)


def _reducer(state, k, value):
    # An int state: tuple states would share their entries between a
    # log's records in a pattern a restore breaks on one side only.
    return (state * 1_000_003 + k * 7 + len(repr(value))) % (1 << 61)


_KINDS = {
    "cha": lambda **kw: CHAProcess(**kw),
    "checkpoint-cha": lambda **kw: CheckpointCHAProcess(
        reducer=_reducer, initial_state=0, **kw),
    "naive-rsm": lambda **kw: NaiveRSMProcess(**kw),
    "two-phase-cha": lambda **kw: TwoPhaseChaProcess(**kw),
}


def _world(kind: str, n: int):
    """An ensemble of ``n`` members and the members' ``n`` dict twins."""
    build = _KINDS[kind]
    members = [build(propose=lambda k, i=i: f"v{i}.{k:03d}") for i in range(n)]
    twins = [build(propose=lambda k, i=i: f"v{i}.{k:03d}", switches=_DICT)
             for i in range(n)]
    return CHAEnsemble(members), members, twins


def _same(member, twin) -> None:
    assert member.has_instance() == twin.has_instance()
    log = list(member.outputs)
    assert log == twin.outputs
    # Indexed reads too: after a merge they resolve prefix or store.
    outputs = member.outputs
    assert len(outputs) == len(log)
    assert [outputs[i] for i in range(-len(log), len(log))] == log + log
    for i in (len(log), -len(log) - 1):
        with pytest.raises(IndexError):
            outputs[i]
    assert pickle.dumps(log) == pickle.dumps(twin.outputs)
    assert dict(member.status) == dict(twin.status)
    assert dict(member.ballots) == dict(twin.ballots)
    assert (member.k, member.prev_instance) == (twin.k, twin.prev_instance)
    assert member.proposals_made == twin.proposals_made
    assert pickle.dumps(member.snapshot()) == pickle.dumps(twin.snapshot())
    assert member.resident_entries() == twin.resident_entries()


def _all_same(members, twins) -> None:
    for member, twin in zip(members, twins):
        _same(member.core, twin.core)


def _deliveries(sent: dict, plans, receivers):
    """Each receiver's reception (whole set, nothing, or only its own
    broadcast) over ``sent``, and the round's batch."""
    messages = {i: Message(i, payload) for i, payload in sent.items()}
    every = tuple(messages.values())
    delivered = {}
    for i in receivers:
        hears = plans[i][1]
        delivered[i] = (every if hears == "all" else () if hears == "none"
                        else (messages[i],) if i in messages else ())
    return delivered, RoundBatch(messages)


def _round(r, ens, members, twins, live, dying, plans, two_advised):
    """Round ``r``: ``live`` members send (``dying`` ones then crash
    before receiving); each member's plan is ``(mode, hears, flag)``."""
    senders = sorted(live)
    if not senders:
        return
    advised = {senders[0], senders[-1]} if two_advised else {senders[0]}
    alone = [i for i in senders if plans[i][0] == "alone"]
    through = [i for i in senders if plans[i][0] != "alone"]
    sent = {}
    for i in alone:  # a lone step: forks out of the store first
        payload = members[i].send(r, i in advised)
        if payload is not None:
            sent[i] = payload
    if through:
        sent.update(ens.send_round(r, through, advised))
    twin_sent = {}
    for i in senders:
        payload = twins[i].send(r, i in advised)
        if payload is not None:
            twin_sent[i] = payload
    assert sorted(sent) == sorted(twin_sent)
    assert all(sent[i] == twin_sent[i] for i in sent)

    # Both sides hear the twins' wire objects (as one channel would
    # carry them), so adopted ballots and the interned chain links
    # folded from them are the same objects on both.
    receivers = [i for i in senders if i not in dying]
    flags = {i: plans[i][2] for i in receivers}
    delivered, batch = _deliveries(twin_sent, plans, receivers)
    twin_delivered = _deliveries(twin_sent, plans, receivers)[0]
    for i in receivers:
        if plans[i][0] == "alone":
            members[i].deliver(r, delivered[i], flags[i])
    taking = [i for i in receivers if plans[i][0] != "alone"]
    if taking:
        ens.deliver_round(r, taking, delivered, flags, batch)
    for i in receivers:
        twins[i].deliver(r, twin_delivered[i], flags[i])


_plan = st.tuples(
    st.sampled_from(("ensemble", "ensemble", "ensemble", "alone")),
    st.sampled_from(("all", "all", "all", "none", "own")),
    st.sampled_from((False, False, False, True)))


def _schedules(n: int):
    member = st.integers(0, n - 1)
    step = st.tuples(st.just("round"), st.booleans(),
                     st.lists(_plan, min_size=n, max_size=n))
    uniform = st.tuples(st.just("round"), st.just(False),
                        st.just([("ensemble", "all", False)] * n))
    other = st.one_of(
        st.tuples(st.just("crash"), member, st.booleans()),
        st.tuples(st.just("save"), member),
        st.tuples(st.just("restore"), member),
        st.tuples(st.just("reset"), member, st.integers(0, 3)),
        st.tuples(st.just("stray"), member, st.booleans()),
        st.tuples(st.just("status"), member, st.integers(0, 6),
                  st.sampled_from(list(Color))),
        st.tuples(st.just("ballot"), member, st.integers(0, 6)),
    )
    return st.lists(st.one_of(uniform, uniform, step, step, other),
                    min_size=1, max_size=30)


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("kind", sorted(_KINDS))
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_members_match_their_twins(kind, n, data):
    new_chain_generation()
    schedule = data.draw(_schedules(n))
    ens, members, twins = _world(kind, n)
    live, dying = set(range(n)), set()
    saved = None
    r = 0
    for op in schedule:
        what = op[0]
        if what == "round":
            _round(r, ens, members, twins, live, dying, op[2], op[1])
            live -= dying
            dying.clear()
            r += 1
        elif what == "crash" and op[1] in live:
            # After its send: it sends next round, then never receives.
            (dying.add if op[2] else live.discard)(op[1])
        elif what == "save":
            saved = twins[op[1]].core.snapshot()
        elif what == "restore" and saved is not None:
            for proc in (members[op[1]], twins[op[1]]):
                proc.core.restore(saved)
        elif what == "reset" and kind == "checkpoint-cha":
            anchor = twins[op[1]].core.k + op[2]
            for proc in (members[op[1]], twins[op[1]]):
                proc.core.reset_to(anchor, 0)
        elif what == "stray":  # a reception outside the phase grid
            heard = [] if op[2] else [Ballot("stray", 0)]
            for proc in (members[op[1]], twins[op[1]]):
                proc.core.detach()
                proc.core.step_ballot(heard, False)
        elif what in ("status", "ballot"):
            # A past slot that exists: the slotted views list instances
            # in ascending order, the dicts in insertion order, so
            # pickled snapshots only agree while writes keep the two
            # orders equal; a past colour or a root-anchored ballot
            # never breaks a later fold.
            twin = twins[op[1]].core
            held = sorted(k for k in (twin.status if what == "status"
                                      else twin.ballots) if k < twin.k)
            if not held:
                continue
            slot = held[op[2] % len(held)]
            for proc in (members[op[1]], twins[op[1]]):
                if what == "status":
                    proc.core.status[slot] = op[3]
                else:
                    proc.core.ballots[slot] = Ballot("late", 0)
        _all_same(members, twins)


def _lockstep(ens, members, twins, rounds, start=0, **plan):
    plans = [(plan.get("mode", "ensemble"), plan.get("hears", "all"),
              plan.get("flag", False))] * len(members)
    for r in range(start, start + rounds):
        _round(r, ens, members, twins, set(range(len(members))), set(),
               plans, False)


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_lockstep_members_share_one_store_and_step_once(kind, monkeypatch):
    """A lockstep cohort stays one store, and each transition is
    applied to it once per round, not once per member."""
    folds = []
    fold = SlottedChaCore._fold_chain
    monkeypatch.setattr(SlottedChaCore, "_fold_chain",
                        lambda self, *a, **kw: folds.append(1)
                        or fold(self, *a, **kw))
    ens, members, twins = _world(kind, 5)
    rpi = members[0].rounds_per_instance
    _lockstep(ens, members, twins, 30 * rpi)
    assert len({id(p.core._c) for p in members}) == 1
    # NaiveRSM's leader also folds the history it ships.
    assert len(folds) == (60 if kind == "naive-rsm" else 30)
    _all_same(members, twins)


def test_members_off_the_common_path_fork_into_private_stores():
    """A member with a partial reception or the minority's collision
    flag is forked out before the step; the rest stay one store.  The
    forked ones rejoin it at the first instance boundary where their
    state is the store's: instance 4 (rounds 9-11) had odd inputs, so
    not at its end; the veto its red members sent left every member
    orange, so all are alike after instance 5 (rounds 12-14)."""
    ens, members, twins = _world("cha", 6)
    _lockstep(ens, members, twins, 9)
    store = members[0].core._c
    plans = [("ensemble", "all", False)] * 6
    plans[2] = ("ensemble", "all", True)       # the minority's flag
    plans[4] = ("ensemble", "none", False)     # hears less than the set
    _round(9, ens, members, twins, set(range(6)), set(), plans, False)
    assert store.members == [members[i].core for i in (0, 1, 3, 5)]
    assert len({id(p.core._c) for p in members}) == 3
    _lockstep(ens, members, twins, 2, start=10)
    assert store.members == [members[i].core for i in (0, 1, 3, 5)]
    _all_same(members, twins)
    _lockstep(ens, members, twins, 3, start=12)
    assert store.members == [members[i].core for i in (0, 1, 3, 5, 2, 4)]
    _all_same(members, twins)
    _lockstep(ens, members, twins, 4, start=15)
    assert len({id(p.core._c) for p in members}) == 1
    _all_same(members, twins)


def test_a_checkpoint_member_rejoins_only_after_a_green_instance():
    """Member 2 misses instance 2's ballot (forked; its veto makes the
    instance bad for all), and instance 3 is red everywhere with equal
    input.  Its live state is then the store's, but the GC floor still
    lies below ``k``: the next green instance's sweep would reach below
    the merge floor, so it rejoins only after that instance."""
    ens, members, twins = _world("checkpoint-cha", 3)
    _lockstep(ens, members, twins, 3)
    plans = [("ensemble", "all", False)] * 3
    plans[2] = ("ensemble", "none", False)
    _round(3, ens, members, twins, {0, 1, 2}, set(), plans, False)
    _lockstep(ens, members, twins, 2, start=4)
    _lockstep(ens, members, twins, 3, start=6, flag=True)
    store = members[0].core._c
    assert store.members == [members[0].core, members[1].core]
    _all_same(members, twins)
    _lockstep(ens, members, twins, 3, start=9)
    assert store.members == [member.core for member in members]
    _all_same(members, twins)


def test_a_lone_step_forks_first_and_the_ensemble_steps_it_alone():
    """A member stepped outside the ensemble leaves the store for a
    plain copy before its step (no undo: members of one store are never
    at different steps); the ensemble then steps it on its own, in its
    place in node order, and its proposer calls keep node order."""
    calls = []
    members = [CHAProcess(propose=lambda k, i=i: calls.append(i) or f"v{i}.{k}")
               for i in range(4)]
    twins = [CHAProcess(propose=lambda k, i=i: f"v{i}.{k}", switches=_DICT)
             for i in range(4)]
    ens = CHAEnsemble(members)
    _lockstep(ens, members, twins, 3)
    store = members[0].core._c
    plans = [("ensemble", "all", False)] * 4
    plans[1] = ("alone", "all", False)
    _round(3, ens, members, twins, set(range(4)), set(), plans, False)
    assert members[1].core._c is not store and members[1].core._c.members is None
    assert store.members == [members[i].core for i in (0, 2, 3)]
    calls.clear()
    _lockstep(ens, members, twins, 6, start=4)
    assert calls == [0, 1, 2, 3] * 2
    # Alike again at the end of instance 2 (round 5): member 1 rejoined.
    assert store.members == [members[i].core for i in (0, 2, 3, 1)]
    _all_same(members, twins)
    members[3].core.status[1] = Color.RED       # a write forks first, too
    twins[3].core.status[1] = Color.RED
    assert store.members == [members[i].core for i in (0, 2, 1)]
    _all_same(members, twins)


def test_the_proposal_sweep_keeps_the_proposer_contract(monkeypatch):
    """Line 15 through the prebound sweep: an ensemble of 6 whose
    advised member changes every ballot until the contention manager
    settles on node 0 (round 12), and member 4 forked at the end of
    instance 6 (a spurious collision at its veto-2).  Every member's
    proposer runs once per instance, in node order, and a ballot payload
    is built for the advised member only — alike whether the ensemble or
    the per-node engine dispatches the members."""
    counts: dict[str, int] = {}
    count_calls(monkeypatch, SlottedChaCore, ("ballot_payload",), counts)
    leaders = {0: [3], 3: [5], 6: [1], 9: [2]}
    leaders.update({r: [0] for r in range(12, 30, 3)})

    def run_once(switches):
        log = []
        counts.clear()
        result = run(ExperimentSpec(
            protocol=CHA(proposer_factory=lambda node: lambda k: (
                log.append((node, k)) or f"v{node}.{k}")),
            world=ClusterWorld(n=6),
            environment=EnvironmentSpec(
                cm=ScriptedCM(leaders),
                adversary=ScriptedAdversary(false_script={(17, 4)}),
                detector=EventuallyAccurateDetector(racc=18)),
            workload=WorkloadSpec(instances=10), switches=switches))
        senders = [sorted(rec.broadcasts) for rec in result.trace
                   if rec.round % 3 == 0]
        return log, counts["ballot_payload"], senders, result

    log, built, senders, result = run_once(Switches())
    assert log == [(node, k) for k in range(1, 11) for node in range(6)]
    assert built == 10
    assert senders == [[3], [5], [1], [2]] + [[0]] * 6
    cores = [p.core for p in result.processes.values()]
    # Member 4 forked, then rejoined with its own prefix of the log.
    assert [core._c is cores[0]._c for core in cores] == [True] * 6
    assert [core._pre is not None for core in cores] == [False] * 4 + [
        True, False]
    assert run_once(Switches(engine=True))[:3] == (log, built, senders)


def test_a_crashed_member_is_forked_before_the_next_step():
    """A member that stops taking part (a crash before or after its
    send) is forked out before the step it misses, at its own state."""
    ens, members, twins = _world("checkpoint-cha", 4)
    _lockstep(ens, members, twins, 6)
    store = members[0].core._c
    plans = [("ensemble", "all", False)] * 4
    _round(6, ens, members, twins, {0, 1, 3}, set(), plans, False)
    _round(7, ens, members, twins, {0, 1, 3}, {3}, plans, False)
    assert store.members == [members[0].core, members[1].core]
    for r in range(8, 38):
        _round(r, ens, members, twins, {0, 1}, set(), plans, False)
    _all_same(members, twins)


@pytest.mark.parametrize("kind", ["cha", "checkpoint-cha"])
def test_a_forked_member_before_the_store_steps_first(kind):
    """Node order holds between the store and its forked members.
    Member 3 crashes after its ballot send (round 3) and misses the
    ballot; after round 4 its snapshot is restored on member 0, which
    forks it out of the store ahead of members 1, 2 and 4.  At the
    veto-2 round (5) member 0's fold raises.  The per-node loop raises
    at member 0 before stepping anyone else, so the ensemble must step
    member 0 before the store: members 1, 2 and 4 log nothing either."""
    ens, members, twins = _world(kind, 5)
    _lockstep(ens, members, twins, 3)
    plans = [("ensemble", "all", False)] * 5
    _round(3, ens, members, twins, set(range(5)), {3}, plans, False)
    saved = twins[3].core.snapshot()
    live = [0, 1, 2, 4]
    _round(4, ens, members, twins, set(live), set(), plans, False)
    for proc in (members[0], twins[0]):
        proc.core.restore(saved)
    sent = dict(ens.send_round(5, live, {0}))
    assert sent == {i: p for i in live
                    if (p := twins[i].send(5, i == 0)) is not None}
    delivered, batch = _deliveries(sent, plans, live)
    with pytest.raises((ProtocolError, KeyError)):
        ens.deliver_round(5, live, delivered, dict.fromkeys(live, False),
                          batch)
    with pytest.raises((ProtocolError, KeyError)):
        for i in live:
            twins[i].deliver(5, delivered[i], False)
    _all_same(members, twins)


@pytest.mark.parametrize("kind", ["cha", "checkpoint-cha"])
def test_failed_fold_logs_nothing_per_member(kind):
    """A fold that reaches a missing ballot raises before anything is
    logged, on the shared store and on every twin."""
    ens, members, twins = _world(kind, 3)
    _lockstep(ens, members, twins, 3)
    _lockstep(ens, members, twins, 3, start=3, flag=True)   # red: no ballot
    bad = BallotPayload("cha", 3, Ballot("x", 2))   # points at instance 2
    batch = RoundBatch({9: Message(9, bad)})
    heard = {i: (Message(9, bad),) for i in range(3)}
    quiet = {i: False for i in range(3)}
    ens.send_round(6, [0, 1, 2], {0})
    ens.deliver_round(6, [0, 1, 2], heard, quiet, batch)
    for twin in twins:
        twin.send(6, False)
        twin.deliver(6, heard[0], False)
    for r in (7, 8):
        ens.send_round(r, [0, 1, 2], set())
        for twin in twins:
            twin.send(r, False)
        silent = RoundBatch({})
        if r == 8:
            with pytest.raises((ProtocolError, KeyError)):
                ens.deliver_round(r, [0, 1, 2], dict.fromkeys(range(3), ()),
                                  quiet, silent)
            for twin in twins:
                with pytest.raises((ProtocolError, KeyError)):
                    twin.deliver(r, (), False)
        else:
            ens.deliver_round(r, [0, 1, 2], dict.fromkeys(range(3), ()),
                              quiet, silent)
            for twin in twins:
                twin.deliver(r, (), False)
    for member in members:
        assert len(member.outputs) == 2
    _all_same(members, twins)


def test_a_checkpoint_cohort_reduces_once_per_green_instance():
    """A reducer is a pure function of ``(state, k, value)``: the cohort
    folds it once per green instance, the dict cores once per node, and
    the outputs agree (the members share the one state object)."""
    calls = []

    def reducer(state, k, value):
        calls.append(k)
        return state + ((k, value),)

    spec = ExperimentSpec(
        protocol=CheckpointCHA(reducer=reducer, initial_state=()),
        world=ClusterWorld(n=6), workload=WorkloadSpec(instances=10),
        keep_trace=False)
    logs, counts = [], []
    for core_ref in (False, True):
        calls.clear()
        result = run(dataclasses.replace(
            spec, switches=Switches(core=core_ref)))
        logs.append(materialised(result.outputs))
        counts.append(len(calls))
    assert logs[0] == logs[1]
    assert counts == [10, 6 * 10]


def test_only_fresh_alike_processes_form_an_ensemble():
    _, members, _ = _world("cha", 2)           # already one cohort
    with pytest.raises(ValueError):
        form_cohort([p.core for p in members])
    fresh = [CHAProcess(propose=str) for _ in range(2)]
    fresh[0].core.step_begin()
    with pytest.raises(ValueError):
        CHAEnsemble(fresh)
    with pytest.raises(ValueError):
        CHAEnsemble([CHAProcess(propose=str), TwoPhaseChaProcess(propose=str)])
    for few in ([], [CHAProcess(propose=str)]):
        with pytest.raises(ValueError):
            CHAEnsemble(few)
    # Cores of different builds: refused by the store, whether or not
    # their processes are of one class.
    plain = CHAProcess(propose=str).core
    checkpoint = _KINDS["checkpoint-cha"](propose=str).core
    with pytest.raises(ValueError):
        form_cohort([plain, checkpoint])
    with pytest.raises(ValueError):
        CHAEnsemble([CHAProcess(propose=str, tag=tag) for tag in ("a", "b")])
