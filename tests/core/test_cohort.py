"""The cohort store: members of one cohort against independent dict twins.

:mod:`repro.core.slotted` keeps one copy of the protocol storage per
*cohort* of member cores whose state is equal; a member whose step
outcome differs forks (copies the storage, with the step it did not
take undone), a member read or written while lagging forks before it
answers, and a member still behind when the next step begins is forked
then.  This suite drives ``N`` members of one cohort and ``N``
independently built :class:`~repro.core.cha.ChaCore` twins through the
same per-member schedules — shared and divergent ballots, collisions,
vetoes heard by some members, members that stop being driven (crashes),
snapshot / restore, ``reset_to``, stray pre-instance receptions, view
writes, folds that fail — and after every operation compares each
member with its twin: output log, ``status``, ``ballots``, ``k``,
``prev_instance``, proposals and the pickled snapshot.

Marked ``core_differential`` so the PR pre-gate runs it with the rest of
the slotted core's byte-identity gate.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from _switches import materialised
from repro import ClusterWorld, ExperimentSpec, Switches, WorkloadSpec, run
from repro.core import ChaCore, CheckpointChaCore
from repro.core.ballot import Ballot
from repro.core.history import new_chain_generation
from repro.core.slotted import (
    SlottedChaCore,
    SlottedCheckpointChaCore,
    form_cohort,
)
from repro.errors import ProtocolError
from repro.experiment import CheckpointCHA
from repro.types import Color

pytestmark = [pytest.mark.fast, pytest.mark.core_differential]

#: How one member's ballot phase goes.
_BALLOTS = ("leader", "leader", "two", "mine", "collision", "silence", "stale")

_member_ops = st.tuples(
    st.sampled_from(_BALLOTS),
    st.booleans(), st.booleans(),   # veto-1 heard, veto-1 collision
    st.booleans(), st.booleans())   # veto-2 heard, veto-2 collision


def _instance_op(n: int):
    return st.tuples(st.just("instance"), st.booleans(), st.booleans(),
                     st.lists(_member_ops, min_size=n, max_size=n))


def _member_op(n: int):
    member = st.integers(0, n - 1)
    return st.one_of(
        st.tuples(st.just("crash"), member),
        st.tuples(st.just("save"), member),
        st.tuples(st.just("restore"), member),
        st.tuples(st.just("reset"), member, st.integers(0, 3)),
        st.tuples(st.just("stray"), member, st.booleans()),
        st.tuples(st.just("status"), member, st.integers(0, 6),
                  st.sampled_from(list(Color))),
        st.tuples(st.just("ballot"), member, st.integers(0, 6), st.just(0)),
    )


def _schedules(n: int):
    step = _instance_op(n)
    return st.lists(st.one_of(step, step, step, _member_op(n)),
                    min_size=1, max_size=20)


def _reducer(state, k, value):
    return state + ((k, value),)


def _pairs(n: int, checkpoint: bool):
    """``n`` members of one cohort and their ``n`` dict twins."""
    members, twins = [], []
    for i in range(n):
        kwargs = dict(propose=lambda k, i=i: f"v{i}.{k:03d}")
        if checkpoint:
            kwargs.update(reducer=_reducer, initial_state=())
            members.append(SlottedCheckpointChaCore(**kwargs))
            twins.append(CheckpointChaCore(**kwargs))
        else:
            members.append(SlottedChaCore(**kwargs))
            twins.append(ChaCore(**kwargs))
    form_cohort(members)
    return members, twins


def _same(member, twin) -> None:
    # First, while a lagging member is still lagging: answered unforked.
    assert member.has_instance() == twin.has_instance()
    log = list(member.outputs)
    assert log == twin.outputs
    assert pickle.dumps(log) == pickle.dumps(twin.outputs)
    assert dict(member.status) == dict(twin.status)
    assert dict(member.ballots) == dict(twin.ballots)
    assert (member.k, member.prev_instance) == (twin.k, twin.prev_instance)
    assert member.proposals_made == twin.proposals_made
    assert pickle.dumps(member.snapshot()) == pickle.dumps(twin.snapshot())
    assert member.resident_entries() == twin.resident_entries()


def _both(pair, call):
    """Apply ``call`` to a member and its twin; both raise alike or not."""
    outcomes = []
    for core in pair:
        try:
            call(core)
            outcomes.append(None)
        except (KeyError, ProtocolError) as exc:
            outcomes.append(type(exc))
    assert outcomes[0] == outcomes[1]


def _run_instance(pairs, live, phase_major, peek, plan):
    """One instance for every live member: ballot, veto-1, veto-2."""
    leader = pairs[live[0]][1] if live else None
    begun: dict[int, Ballot] = {}

    def begin(i):
        member, twin = pairs[i]
        member.begin_instance_send(False)
        begun[i] = twin.begin_instance().ballot

    def ballot(i):
        wire = begun[live[0]]
        kind = plan[i][0]
        # One list object per kind, as one round's batch memo hands out;
        # a collision flag on the leader's list is a receiver's own.
        shared = {"leader": [wire], "silence": [],
                  "two": [Ballot("zz", wire.prev_instance), wire],
                  "mine": [begun[i]],
                  "stale": [Ballot("a", max(0, leader.k - 2))]}
        received = lists.setdefault(
            "leader" if kind == "collision" else kind,
            shared["leader" if kind == "collision" else kind])
        _both(pairs[i], lambda core: core.on_ballot_reception(
            received, kind == "collision"))

    def veto1(i):
        _, heard, coll, _, _ = plan[i]
        for core in pairs[i]:
            if core.has_instance() and (heard or coll):
                core.on_veto1_reception(heard, coll)

    def veto2(i):
        _, _, _, heard, coll = plan[i]
        member, twin = pairs[i]
        assert member.has_instance() == twin.has_instance()
        if twin.has_instance():
            _both(pairs[i], lambda core: (
                core.end_instance(heard, coll)
                if isinstance(core, SlottedChaCore)
                else core.on_veto2_reception(heard, coll)))

    lists: dict[str, list] = {}
    if not live:
        return
    if phase_major:  # the simulator's order: one phase for all, in turn
        for phase in (begin, ballot, veto1, veto2):
            for i in live:
                phase(i)
    else:  # one member runs its whole instance before the next starts
        for i in live:
            if peek and i != live[0]:
                _same(*pairs[i])  # read while lagging: forks, same answer
            for phase in (begin, ballot, veto1, veto2):
                phase(i)


@pytest.mark.parametrize("checkpoint", [False, True])
@pytest.mark.parametrize("n", [2, 3, 5])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_members_match_their_twins(n, checkpoint, data):
    new_chain_generation()
    schedule = data.draw(_schedules(n))
    members, twins = _pairs(n, checkpoint)
    pairs = list(zip(members, twins))
    live = list(range(n))
    saved = None
    for op in schedule:
        kind = op[0]
        if kind == "instance":
            _run_instance(pairs, live, op[1], op[2], op[3])
        elif kind == "crash":
            if op[1] in live:
                live.remove(op[1])  # stops being driven: lags from now on
        elif kind == "save":
            saved = twins[op[1]].snapshot()
        elif kind == "restore":
            if saved is not None:
                for core in pairs[op[1]]:
                    core.restore(saved)
        elif kind == "reset":
            if checkpoint:
                anchor = twins[op[1]].k + op[2]
                for core in pairs[op[1]]:
                    core.reset_to(anchor, ())
        elif kind == "stray":  # a reception before any instance began
            heard = [] if op[2] else [Ballot("stray", 0)]
            for core in pairs[op[1]]:
                core.on_ballot_reception(heard, False)
        elif kind in ("status", "ballot"):
            # An existing slot: the slotted views list instances in
            # ascending order, the dicts in insertion order, so pickled
            # snapshots only agree while writes keep the two orders equal.
            twin = twins[op[1]]
            held = sorted(twin.status if kind == "status" else twin.ballots)
            if not held:
                continue
            slot = held[op[2] % len(held)]
            for core in pairs[op[1]]:
                if kind == "status":
                    core.status[slot] = op[3]
                else:
                    core.ballots[slot] = Ballot("late", max(0, slot - 1))
        for pair in pairs:
            _same(*pair)


def _lockstep(members, twins, instances, *, red_at=()):
    for k in range(1, instances + 1):
        wires = [twin.begin_instance().ballot for twin in twins]
        for member in members:
            member.begin_instance_send(False)
        received = [] if k in red_at else [wires[0]]
        for core in (*members, *twins):
            core.on_ballot_reception(received, False)
        for member in members:
            member.end_instance(False, False)
        for twin in twins:
            twin.on_veto2_reception(False, False)


@pytest.mark.parametrize("checkpoint", [False, True])
def test_failed_fold_logs_nothing_per_member(checkpoint):
    """A fold that reaches a missing ballot raises before anything is
    logged, for every member, whether it leads or follows."""
    members, twins = _pairs(3, checkpoint)
    _lockstep(members, twins, 2, red_at={2})
    bad = Ballot("x", 2)   # points at the red instance: no ballot there
    for core in (*members, *twins):
        core.begin_instance_send(False) if core in members \
            else core.begin_instance()
        core.on_ballot_reception([bad], False)
    for member, twin in zip(members, twins):
        _both((member, twin), lambda core: (
            core.end_instance(False, False) if core is member
            else core.on_veto2_reception(False, False)))
        assert len(member.outputs) == 2
        _same(member, twin)


def test_lockstep_members_share_one_store_and_step_once(monkeypatch):
    """A lockstep cohort stays one cohort, and each transition is
    applied once per cohort, not once per member."""
    folds = []
    fold = SlottedChaCore._fold_chain
    monkeypatch.setattr(SlottedChaCore, "_fold_chain",
                        lambda self, *a, **kw: folds.append(1)
                        or fold(self, *a, **kw))
    members, twins = _pairs(5, False)
    _lockstep(members, twins, 30)
    assert len({id(member._c) for member in members}) == 1
    assert len(folds) == 30
    for pair in zip(members, twins):
        _same(*pair)


def test_diverging_members_fork_into_private_stores():
    """Members whose outcome differs from the leader's each fork into a
    store of their own; the members that agree stay one cohort."""
    members, twins = _pairs(6, False)
    _lockstep(members, twins, 3)
    for core in (*members, *twins):
        (core.begin_instance_send(False) if core in members
         else core.begin_instance())
    wire = Ballot("w", 3)
    for i, core in enumerate(members):
        core.on_ballot_reception([] if i % 2 else [wire], False)
    for i, core in enumerate(twins):
        core.on_ballot_reception([] if i % 2 else [wire], False)
    assert len({id(m._c) for m in members}) == 4
    assert len({id(m._c) for m in members[0::2]}) == 1
    assert not any(m._c.shared for m in members[1::2])
    for member in members:
        member.end_instance(False, False)
    for twin in twins:
        twin.on_veto2_reception(False, False)
    for pair in zip(members, twins):
        _same(*pair)


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


def test_only_fresh_cores_built_alike_form_a_cohort():
    members, _ = _pairs(2, False)        # already one cohort: not fresh
    members[0].begin_instance_send(False)
    with pytest.raises(ValueError):
        form_cohort(members)
    plain, _ = _pairs(1, False)
    checkpoint, _ = _pairs(1, True)
    with pytest.raises(ValueError):
        form_cohort(plain + checkpoint)


@pytest.mark.parametrize("checkpoint", [False, True])
def test_a_stopped_member_is_forked_when_the_next_step_begins(checkpoint):
    """A member that stops being driven (a crash) is forked out of the
    cohort as soon as the others begin a step it has not followed (the
    undo record it needs is about to go), so the cohort never keeps
    more than one step for it; read many steps later, it answers at its
    own step."""
    members, twins = _pairs(3, checkpoint)
    _lockstep(members, twins, 2)
    cohort = members[0]._c
    _lockstep(members[:2], twins[:2], 1)
    assert members[2]._c is not cohort and not members[2]._c.shared
    assert cohort.members == members[:2]
    _lockstep(members[:2], twins[:2], 30)
    assert members[0]._c is cohort and cohort.members == members[:2]
    for pair in zip(members, twins):
        _same(*pair)


def test_a_write_between_steps_still_detaches_a_lagging_member():
    """A member that leaves at the current step (a view write) is no
    longer counted as having taken it, so a member one step behind is
    still forked out before the next step replaces its undo record."""
    members, twins = _pairs(3, False)
    _lockstep(members, twins, 2)
    for i in (0, 1):
        members[i].begin_instance_send(False)
        twins[i].begin_instance()
    for core in (members[1], twins[1]):
        core.status[1] = Color.RED
    for core in (members[0], twins[0]):
        core.on_ballot_reception([], False)
    assert not members[2]._c.shared
    for pair in zip(members, twins):
        _same(*pair)
