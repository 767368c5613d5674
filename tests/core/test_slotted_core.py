"""Unit and regression tests for the slotted protocol core (PR 7).

Four concerns live here:

* **View semantics** — ``SlottedChaCore.status`` / ``.ballots`` are live
  writable mappings over the parallel arrays and must behave exactly
  like the reference core's dicts (tests and tools mutate protocol
  state through them).
* **Pre-instance inertness** — the mid-grid power-up bugfix: a process
  whose first simulated round lands on a veto phase used to crash with
  ``KeyError: 0``; now veto phases before the first ``step_begin``
  send nothing and receive nothing, in both cores, end to end through
  ``Simulator.add_node(start_round=...)``.
* **Instance-scoped vetoes** — the same-tag grid-shift bugfix: a veto
  payload for a *different* instance (stale, or from a same-tag
  ensemble on a shifted grid) must not demote this instance.
* **The output log** (PR 23) — ``outputs`` is a view over flat records
  that reads exactly like the dict core's ``list[tuple]`` log, stays
  writable, and retains no per-node object per decided instance.
"""

from __future__ import annotations

import gc
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from _cores import begin, count_calls, end
from _switches import materialised
from repro.baselines.two_phase_cha import TwoPhaseChaProcess
from repro.contention import LeaderElectionCM
from repro.core import ChaCore, CheckpointChaCore, check_agreement, check_validity
from repro.core.ballot import Ballot, VetoPayload
from repro.core.cha import CHAProcess
from repro.core.checkpoint import CheckpointCHAProcess, CheckpointOutput
from repro.core.history import History, new_chain_generation
from repro.experiment import cluster_positions, default_proposer
from repro.core.slotted import SlottedChaCore, SlottedCheckpointChaCore
from repro.net import Simulator
from repro.net.channel import RadioSpec
from repro.net.messages import Message
from repro.switches import Switches
from repro.errors import ProtocolError
from repro.types import BOTTOM, Color

pytestmark = pytest.mark.fast

BOTH_CORES = [True, False]


def _core(core_ref: bool, **kwargs):
    cls = ChaCore if core_ref else SlottedChaCore
    return cls(propose=lambda k: f"v{k}", **kwargs)


def _drive_instance(core, *, ballot: Ballot | None = None,
                    veto1: bool = False, veto2: bool = False):
    """One full instance: ballot reception, then both veto receptions."""
    payload = begin(core)
    received = ballot if ballot is not None else payload.ballot
    core.step_ballot([received], False)
    core.step_veto1(veto1, False)
    return end(core, veto2, False)


# ----------------------------------------------------------------------
# View semantics
# ----------------------------------------------------------------------


class TestStatusView:
    def test_mapping_protocol(self):
        core = _core(False)
        core.status[3] = Color.RED
        core.status[1] = Color.GREEN
        assert core.status[3] is Color.RED
        assert len(core.status) == 2
        assert list(core.status) == [1, 3]  # ascending instances
        assert core.status == {1: Color.GREEN, 3: Color.RED}
        assert core.status.get(2) is None
        with pytest.raises(KeyError):
            core.status[2]
        del core.status[3]
        assert core.status == {1: Color.GREEN}

    def test_setter_replaces_contents(self):
        core = _core(False)
        core.status[5] = Color.ORANGE
        core.status = {2: Color.YELLOW}
        assert core.status == {2: Color.YELLOW}

    def test_color_of_defaults_green(self):
        core = _core(False)
        assert core.color_of(7) is Color.GREEN
        core.status[7] = Color.ORANGE
        assert core.color_of(7) is Color.ORANGE


class TestBallotView:
    def test_mapping_protocol(self):
        core = _core(False)
        b = Ballot("x", 0)
        core.ballots[2] = b
        assert core.ballots[2] is b  # the stored object is retained
        assert core.ballots == {2: b}
        del core.ballots[2]
        assert core.ballots == {}
        with pytest.raises(KeyError):
            core.ballots[2]

    def test_keeps_the_adopted_wire_ballot(self):
        """After a wire reception the view reads back the adopted wire
        Ballot itself, as the reference core keeps it."""
        core = _core(False)
        wire = Ballot("v1", 0)
        _drive_instance(core, ballot=wire)
        assert core.ballots[1] is wire

    def test_resident_entries_matches_reference(self):
        ref, slot = _core(True), _core(False)
        for core in (ref, slot):
            _drive_instance(core)
            _drive_instance(core, veto1=True)   # orange: ballot kept
            begin(core)
            core.step_ballot([], False)  # red: no ballot stored
        assert slot.resident_entries() == ref.resident_entries()


# ----------------------------------------------------------------------
# Snapshot interop between the two cores
# ----------------------------------------------------------------------


class TestSnapshotInterop:
    @pytest.mark.parametrize("src_ref,dst_ref", [(True, False), (False, True)])
    def test_snapshot_restores_across_cores(self, src_ref, dst_ref):
        src = _core(src_ref)
        _drive_instance(src)
        _drive_instance(src, veto2=True)  # yellow
        snap = src.snapshot()
        dst = _core(dst_ref)
        dst.restore(snap)
        assert dst.snapshot() == snap
        assert dst.current_history() == src.current_history()
        # Both continue identically from the adopted state (outputs
        # produced before the snapshot stay with the source).
        assert _drive_instance(dst) == _drive_instance(src)
        assert dst.outputs == src.outputs[-1:]

    def test_snapshots_pickle_identically(self):
        ref, slot = _core(True), _core(False)
        for core in (ref, slot):
            _drive_instance(core)
            _drive_instance(core, veto1=True)
        assert pickle.dumps(slot.snapshot()) == pickle.dumps(ref.snapshot())


# ----------------------------------------------------------------------
# Pre-instance inertness (the mid-grid power-up bugfix)
# ----------------------------------------------------------------------


class TestPreInstanceInertness:
    @pytest.mark.parametrize("core_ref", BOTH_CORES)
    def test_fresh_core_wants_no_veto(self, core_ref):
        core = _core(core_ref)
        assert not core.has_instance()
        assert not core.veto_due(1)
        assert not core.veto_due(2)

    @pytest.mark.parametrize("core_ref", BOTH_CORES)
    @pytest.mark.parametrize("start_round", [1, 2])
    def test_cha_process_survives_pre_instance_rounds(self, core_ref,
                                                      start_round):
        """The exact reported repro: round 0 lands on a veto phase."""
        proc = CHAProcess(propose=lambda k: k, start_round=start_round,
                          switches=Switches(core=core_ref))
        assert proc.send(0, False) is None
        assert proc.send(0, True) is None
        stray = Message(1, VetoPayload("cha", 3, 1))
        proc.deliver(0, (stray,), False)
        proc.deliver(0, (stray,), False)
        assert proc.outputs == []
        assert not proc.core.has_instance()

    @pytest.mark.parametrize("core_ref", BOTH_CORES)
    def test_checkpoint_process_survives_pre_instance_rounds(self, core_ref):
        proc = CheckpointCHAProcess(
            propose=lambda k: k, reducer=lambda s, k, v: s, initial_state=0,
            start_round=1, switches=Switches(core=core_ref))
        assert proc.send(0, False) is None
        proc.deliver(0, (), False)
        assert proc.outputs == []

    @pytest.mark.parametrize("core_ref", BOTH_CORES)
    def test_two_phase_process_survives_pre_instance_rounds(self, core_ref):
        proc = TwoPhaseChaProcess(propose=lambda k: k,
                                  switches=Switches(core=core_ref))
        # Odd round = veto phase; no instance has begun yet.
        assert proc.send(1, False) is None
        proc.deliver(1, (Message(1, VetoPayload("2pc-cha", 1, 1)),), False)
        assert proc.outputs == []


# ----------------------------------------------------------------------
# Instance-scoped veto reception (the same-tag grid-shift bugfix)
# ----------------------------------------------------------------------


class TestInstanceScopedVetoes:
    @pytest.mark.parametrize("core_ref", BOTH_CORES)
    def test_stale_veto_is_ignored(self, core_ref):
        """A veto for another instance (a shifted-grid ensemble's, or a
        stale one) must not demote the current instance."""
        proc = CHAProcess(propose=default_proposer(0),
                          switches=Switches(core=core_ref))
        payload = proc.send(0, True)
        proc.deliver(0, (Message(0, payload),), False)
        proc.send(1, False)
        stale = Message(1, VetoPayload("cha", 99, 1))
        proc.deliver(1, (stale,), False)
        assert proc.core.color_of(1) is Color.GREEN
        proc.send(2, False)
        proc.deliver(2, (Message(1, VetoPayload("cha", 99, 2)),), False)
        assert proc.core.color_of(1) is Color.GREEN
        (k, out), = proc.outputs
        assert k == 1 and out is not BOTTOM  # decided despite the noise

    @pytest.mark.parametrize("core_ref", BOTH_CORES)
    def test_matching_veto_still_demotes(self, core_ref):
        """The filter must not be over-broad: a veto for *this* instance
        keeps its seed semantics."""
        proc = CHAProcess(propose=default_proposer(0),
                          switches=Switches(core=core_ref))
        payload = proc.send(0, True)
        proc.deliver(0, (Message(0, payload),), False)
        proc.send(1, False)
        proc.deliver(1, (), False)
        proc.send(2, False)
        proc.deliver(2, (Message(1, VetoPayload("cha", 1, 2)),), False)
        assert proc.core.color_of(1) is Color.YELLOW
        (k, out), = proc.outputs
        assert k == 1 and out is BOTTOM


# ----------------------------------------------------------------------
# End-to-end mid-grid joins
# ----------------------------------------------------------------------


def _midgrid_simulator():
    # One execution = one chain-interning generation (the experiment
    # stepper's rule); these tests drive the Simulator directly and
    # compare pickles across executions, so they follow it themselves.
    new_chain_generation()
    return Simulator(spec=RadioSpec(r1=1.0, r2=1.5, rcf=0),
                     cms={"C": LeaderElectionCM(stable_round=0)})


def _run_midgrid_cha(core_ref, *, checkpoint=False):
    """3 veterans from round 0 plus a node powered up at round 10 —
    off its own 3-round grid, so its first rounds are veto phases."""
    sim = _midgrid_simulator()
    positions = cluster_positions(4)
    procs = {}
    for node in range(4):
        if checkpoint:
            proc = CheckpointCHAProcess(
                propose=default_proposer(node),
                reducer=lambda s, k, v: (s or 0) + 1, initial_state=0,
                switches=Switches(core=core_ref))
        else:
            proc = CHAProcess(propose=default_proposer(node),
                              switches=Switches(core=core_ref))
        start = 10 if node == 3 else 0
        sim.add_node(proc, positions[node], start_round=start)
        procs[node] = proc
    sim.run(30)
    return procs


class TestMidGridJoin:
    @pytest.mark.parametrize("checkpoint", [False, True])
    def test_join_runs_and_veterans_agree(self, checkpoint):
        observables = []
        for core_ref in BOTH_CORES:
            procs = _run_midgrid_cha(core_ref, checkpoint=checkpoint)
            outputs = {n: p.outputs for n, p in procs.items()}
            proposals = {n: p.proposals_made for n, p in procs.items()}
            veterans = {n: outputs[n] for n in (0, 1, 2)}
            if not checkpoint:  # checkpoint outputs are not OutputLogs
                check_validity(veterans, proposals)
                check_agreement(veterans)
            # The joiner's grid is shifted: it never hears a matching
            # ballot, so every instance it runs is red/bottom — but it
            # must run them without crashing.
            assert procs[3].outputs
            assert all(out is BOTTOM for _, out in procs[3].outputs)
            observables.append(pickle.dumps(
                (materialised(outputs), proposals)))
        assert observables[0] == observables[1]  # cores byte-identical

    def test_two_phase_join_runs(self):
        observables = []
        for core_ref in BOTH_CORES:
            sim = _midgrid_simulator()
            positions = cluster_positions(4)
            procs = {}
            for node in range(4):
                proc = TwoPhaseChaProcess(propose=default_proposer(node),
                                          switches=Switches(core=core_ref))
                start = 9 if node == 3 else 0  # odd: lands on a veto phase
                sim.add_node(proc, positions[node], start_round=start)
                procs[node] = proc
            sim.run(24)
            veterans = {n: procs[n].outputs for n in (0, 1, 2)}
            check_agreement(veterans)
            assert all(out is BOTTOM for _, out in procs[3].outputs)
            observables.append(pickle.dumps(materialised(
                {n: p.outputs for n, p in procs.items()})))
        assert observables[0] == observables[1]

    def test_shifted_grid_same_tag_ensembles(self):
        """Two same-tag CHA ensembles on grids shifted by one round share
        the channel; instance-scoped vetoes keep each decisive."""
        observables = []
        for core_ref in BOTH_CORES:
            sim = _midgrid_simulator()
            positions = cluster_positions(6)
            procs = {}
            for node in range(6):
                shifted = node >= 3
                proc = CHAProcess(propose=default_proposer(node),
                                  start_round=1 if shifted else 0,
                                  switches=Switches(core=core_ref))
                sim.add_node(proc, positions[node],
                             start_round=1 if shifted else 0)
                procs[node] = proc
            sim.run(31)
            for group in ((0, 1, 2), (3, 4, 5)):
                check_agreement({n: procs[n].outputs for n in group})
                assert all(procs[n].outputs for n in group)
            observables.append(pickle.dumps(materialised(
                {n: p.outputs for n, p in procs.items()})))
        assert observables[0] == observables[1]


# ----------------------------------------------------------------------
# The output log: a view over flat records (PR 23)
# ----------------------------------------------------------------------

#: One instance of a schedule: how the ballot phase goes, then the four
#: veto-phase flags.
_instances = st.tuples(
    st.just("instance"),
    st.sampled_from(["leader", "silence", "collision", "two"]),
    st.booleans(), st.booleans(), st.booleans(), st.booleans())
#: Everything else a core can be put through between instances.
_interludes = st.one_of(
    st.tuples(st.just("stray-ballot")),    # reception before step_begin
    st.tuples(st.just("save")),
    st.tuples(st.just("restore")),
    st.tuples(st.just("reset"), st.integers(0, 3)),
)
_schedules = st.lists(st.one_of(_instances, _instances, _interludes),
                      min_size=1, max_size=25)


def _twin_cores(checkpoint: bool, history_ref: bool):
    switches = Switches(history=history_ref)
    kwargs = dict(propose=lambda k: f"v{k:03d}", switches=switches)
    if checkpoint:
        kwargs.update(reducer=lambda s, k, v: s + ((k, v),), initial_state=())
        return (CheckpointChaCore(**kwargs), SlottedCheckpointChaCore(**kwargs))
    return ChaCore(**kwargs), SlottedChaCore(**kwargs)


def _assert_same_log(slot, ref):
    view, twin = slot.outputs, ref.outputs
    assert list(view) == twin and view == twin and twin == view
    assert len(view) == len(twin)
    assert view.instances() == [k for k, _ in twin]
    assert view.bottoms() == sum(out is BOTTOM for _, out in twin)
    if twin:
        assert view[-1] == twin[-1] and view[0] == twin[0]
    for i, j in ((0, 2), (-3, None), (1, -1)):
        assert view[i:j] == twin[i:j]
    assert pickle.dumps(list(view)) == pickle.dumps(twin)
    assert type(pickle.loads(pickle.dumps(view))) is list
    assert pickle.loads(pickle.dumps(view)) == twin
    assert slot.decided_history() == ref.decided_history()


class TestOutputLogMatchesTwin:
    """(a) The view reads like the dict core's log on any schedule."""

    @pytest.mark.parametrize("history_ref", [False, True])
    @pytest.mark.parametrize("checkpoint", [False, True])
    @settings(max_examples=60)
    @given(schedule=_schedules)
    def test_view_equals_twin_log(self, checkpoint, history_ref, schedule):
        new_chain_generation()
        ref, slot = _twin_cores(checkpoint, history_ref)
        saved = None
        for op in schedule:
            if op[0] == "stray-ballot":
                for core in (ref, slot):
                    core.step_ballot([Ballot("stray", 0)], False)
            elif op[0] == "save":
                saved = ref.snapshot()
            elif op[0] == "restore":
                if saved is not None:
                    for core in (ref, slot):
                        core.restore(saved)
            elif op[0] == "reset":
                if checkpoint:
                    anchor = ref.k + op[1]
                    for core in (ref, slot):
                        core.reset_to(anchor, ())
            else:
                _, ballot_phase, *vetoes = op
                wire = begin(ref).ballot
                begin(slot)
                received = {"leader": [wire], "silence": [], "collision": [wire],
                            "two": [Ballot("zz", wire.prev_instance), wire]}
                ends = []
                for core in (ref, slot):
                    core.step_ballot(received[ballot_phase],
                                     ballot_phase == "collision")
                    core.step_veto1(vetoes[0], vetoes[1])
                    try:
                        ends.append(end(core, vetoes[2], vetoes[3]))
                    except (KeyError, ProtocolError) as exc:
                        # A restored snapshot can leave the chain without
                        # a ballot; both cores refuse the same way and
                        # log nothing.
                        ends.append(type(exc))
                assert ends[0] == ends[1]
            _assert_same_log(slot, ref)


class TestNegativeInstanceKeys:
    """Instances are ``>= 0`` (``NO_INSTANCE`` is 0): a negative key
    written through ``status`` / ``ballots`` is refused with ``KeyError``
    by every core, instead of landing in an array's last capacity slot
    (a phantom entry the dict twin never shows)."""

    @pytest.mark.parametrize("checkpoint", [False, True])
    @pytest.mark.parametrize("view", ["status", "ballots"])
    def test_every_core_refuses_a_negative_key(self, checkpoint, view):
        ref, slot = _twin_cores(checkpoint, False)
        value = Color.RED if view == "status" else Ballot("x", 0)
        for core in (ref, slot):
            for _ in range(3):
                _drive_instance(core)
            before = core.snapshot()
            mapping = getattr(core, view)
            with pytest.raises(KeyError):
                mapping[-1] = value
            with pytest.raises(KeyError):
                mapping.update({-1: value})
            with pytest.raises(KeyError):
                mapping.setdefault(-1, value)
            with pytest.raises(KeyError):
                mapping |= {-1: value}
            with pytest.raises(KeyError):
                setattr(core, view, {**before[view], -1: value})
            assert core.color_of(-1) is Color.GREEN
            assert -1 not in core.status and -1 not in core.ballots
            assert core.snapshot() == before
        assert dict(slot.status) == dict(ref.status)
        assert dict(slot.ballots) == dict(ref.ballots)
        assert pickle.dumps(slot.snapshot()) == pickle.dumps(ref.snapshot())


class TestOutputLogIsWritable:
    """(b) Writes through the view land in the core and read back as
    written — the forged-output idiom of ``tests/analysis``."""

    @pytest.mark.parametrize("checkpoint", [False, True])
    def test_write_operations_round_trip(self, checkpoint):
        ref, slot = _twin_cores(checkpoint, False)
        for core in (ref, slot):
            for _ in range(4):
                wire = begin(core).ballot
                core.step_ballot([wire], False)
                core.step_veto1(False, False)
                core.step_end(False, core.k == 2)
        forged = History(5, {1: "a", 4: "b"})        # dict form
        other = (CheckpointOutput(9, ("state",), History(9, {3: "c"}))
                 if checkpoint else History(9, {}))
        for core in (ref, slot):
            log = core.outputs
            log.append((5, forged))
            assert log[-1] == (5, forged) and log[-1][1] is forged
            log[1] = (7, other)
            assert log[1][1] is other
            log[0] = (1, BOTTOM)
            del log[2]
            log.insert(0, (0, forged))
            log[1:2] = [(11, BOTTOM), (12, other)]
            assert len(log) == 6
        _assert_same_log(slot, ref)
        assert slot.outputs.instances() == [0, 11, 12, 7, 4, 5]
        assert slot.decided_history() is forged
        slot.outputs = ref.outputs[:3]               # the setter
        assert slot.outputs == ref.outputs[:3]
        assert len(slot.outputs) == 3 and slot.outputs[2][1] is other
        slot.outputs = []
        assert slot.outputs == [] and not slot.outputs
        assert slot.decided_history() is None

    def test_view_is_live_and_unhashable(self):
        _, slot = _twin_cores(False, False)
        log = slot.outputs
        assert log == [] and repr(log) == "[]"
        _drive_instance(slot)
        assert len(log) == 1 and log == slot.outputs
        assert log != [(1, BOTTOM)] and log != ((1, BOTTOM),)
        with pytest.raises(TypeError):
            hash(log)
        with pytest.raises(IndexError):
            log[5]

    def test_failed_fold_logs_nothing(self):
        """The record is computed before either list grows."""
        _, slot = _twin_cores(False, False)
        begin(slot)
        slot.step_ballot([], False)           # red: no ballot kept
        slot.step_veto1(True, False)
        slot.step_end(True, False)
        begin(slot)
        slot.step_ballot([Ballot("x", 1)], False)   # points at it
        slot.step_veto1(False, False)
        with pytest.raises(ProtocolError):
            slot.step_end(False, False)
        assert slot.outputs == [(1, BOTTOM)]
        assert slot.outputs.instances() == [1]


def _tracked_objects_per_instance(n: int, crashed: tuple[int, ...] = ()) -> float:
    """GC-tracked objects a ``keep_trace=False`` cluster run of ``n``
    nodes retains per instance, between instance 100 and instance 400;
    the ``crashed`` nodes stop after sending in round 30."""
    from repro import CHA, ClusterWorld, ExperimentSpec, WorkloadSpec
    from repro.experiment import EnvironmentSpec
    from repro.experiment.runner import ExperimentStepper
    from repro.net import Crash, CrashPoint, CrashSchedule

    stepper = ExperimentStepper(ExperimentSpec(
        protocol=CHA(), world=ClusterWorld(n=n),
        environment=EnvironmentSpec(crashes=CrashSchedule(
            [Crash(node, 30, CrashPoint.AFTER_SEND) for node in crashed])),
        workload=WorkloadSpec(instances=400), keep_trace=False))
    stepper.step(3 * 100)
    gc.collect()
    before = len(gc.get_objects())
    stepper.step(3 * 300)
    gc.collect()
    grown = len(gc.get_objects()) - before
    assert all(len(p.outputs) == 400 for node, p in stepper.processes.items()
               if node not in crashed)
    return grown / 300


@pytest.mark.parametrize("n", [20, 60])
def test_decided_instance_retains_no_per_node_object(n):
    """(c) Work is proportional (PR 7 / PR 22 counting style): a decided
    instance keeps its one shared chain link and that link's interning
    table — about ten tracked objects — and two untracked pointers per
    node.  A core that wraps per node again (a ``History`` and a pair
    each) reads 50 at n = 20 and 130 at n = 60."""
    assert _tracked_objects_per_instance(n) <= 15


def test_crashed_members_leave_the_cohort_store_bounded():
    """(c) A member that stops taking part is forked out of the cohort
    before the step it misses, and the store keeps nothing per step for
    it: the crash run holds the same per-instance bound.  A multi-step
    undo log that the crashed members pin reads about 26."""
    assert _tracked_objects_per_instance(20, crashed=(3, 11)) <= 15


def _lockstep_stepper(n: int, instances: int):
    from repro import CHA, ClusterWorld, ExperimentSpec, WorkloadSpec
    from repro.experiment.runner import ExperimentStepper

    return ExperimentStepper(ExperimentSpec(
        protocol=CHA(), world=ClusterWorld(n=n),
        workload=WorkloadSpec(instances=instances), keep_trace=False))


def test_lockstep_run_is_one_cohort():
    """(d) The cohort store: a lockstep run's cores share one store."""
    stepper = _lockstep_stepper(20, 50)
    stepper.finish()
    cohorts = {id(p.core._c) for p in stepper.processes.values()}
    assert len(cohorts) == 1


def test_transitions_per_instance_do_not_grow_with_n(monkeypatch):
    """(e) A lockstep cohort applies each transition once: folds and
    store steps per instance are the same at n = 20 and n = 60 (a quiet
    veto-1 reception is no step at all)."""
    steps = ("_fold_chain", "step_begin", "step_ballot", "step_veto1",
             "step_end")
    per_instance = {}
    for n in (20, 60):
        counts: dict[str, int] = {}
        count_calls(monkeypatch, SlottedChaCore, steps, counts)
        stepper = _lockstep_stepper(n, 100)
        stepper.step(3 * 10)
        counts.clear()
        stepper.step(3 * 90)
        per_instance[n] = {name: calls / 90 for name, calls in counts.items()}
        monkeypatch.undo()
    assert per_instance[20] == per_instance[60] == {
        "_fold_chain": 1.0, "step_begin": 1.0, "step_ballot": 1.0,
        "step_end": 1.0}


@pytest.mark.parametrize("n", [20, 60])
def test_lockstep_rounds_dispatch_the_ensemble_once(n, monkeypatch):
    """(f) Ensemble dispatch: after round 0, a lockstep run calls no
    process's own ``send`` / ``deliver`` / ``contend``, and the
    ensemble once per round for each; the history folds once per
    instance.  Per-node dispatch reads n calls of each per round."""
    from repro.core import CHAEnsemble, CHAProcess

    counts: dict[str, int] = {}
    count_calls(monkeypatch, CHAProcess, ("send", "deliver", "contend"),
                 counts)
    count_calls(monkeypatch, CHAEnsemble,
                 ("send_round", "deliver_round", "contend"), counts)
    count_calls(monkeypatch, SlottedChaCore, ("_fold_chain",), counts)
    stepper = _lockstep_stepper(n, 40)
    stepper.step(1)
    counts.clear()
    stepper.step(3 * 39)
    rounds = 3 * 39
    per_round = {name: calls / rounds for name, calls in counts.items()}
    assert per_round.pop("_fold_chain") * rounds == 39
    assert per_round == {"send_round": 1.0, "deliver_round": 1.0,
                         "contend": 1.0}
