"""Tests for checkpoint-CHA (Section 3.5): folding, GC, bounded space."""

import pytest

from _cores import begin, end
from repro import scenario
from repro.contention import LeaderElectionCM
from repro.core.ballot import Ballot
from repro.core.checkpoint import CheckpointChaCore, CheckpointOutput
from repro.core.history import HistoryChain
from repro.core.slotted import SlottedCheckpointChaCore
from repro.detectors import EventuallyAccurateDetector
from repro.net import RandomLossAdversary
from repro.types import BOTTOM, Color


def tuple_reducer(state, k, value):
    """State is the tuple of decided (instance, value) pairs: the state
    *is* the folded history, which lets tests check agreement by prefix."""
    if value is BOTTOM:
        return state
    return state + ((k, value),)


def make_core(values=None):
    values = values or {}
    return CheckpointChaCore(
        propose=lambda k: values.get(k, f"v{k}"),
        reducer=tuple_reducer,
        initial_state=(),
    )


def run_instance(core, *, clean=True, veto2_collision=False):
    own = begin(core)
    core.step_ballot([own.ballot], collision=not clean)
    core.step_veto1(False, not clean and False)
    return end(core, False, veto2_collision)


class TestCoreFolding:
    def test_green_instance_folds_and_outputs_checkpoint(self):
        core = make_core()
        k, out = run_instance(core)
        assert isinstance(out, CheckpointOutput)
        assert out.checkpoint_instance == 1
        assert out.checkpoint_state == ((1, "v1"),)
        assert len(out.suffix) == 0

    def test_yellow_instance_outputs_bottom_and_keeps_state(self):
        core = make_core()
        run_instance(core)
        k, out = run_instance(core, veto2_collision=True)
        assert out is BOTTOM
        assert core.checkpoint_instance == 1
        # The yellow instance's entries are retained (no GC below green).
        assert 2 in core.status

    def test_gc_discards_entries_below_checkpoint(self):
        core = make_core()
        for _ in range(10):
            run_instance(core)
        # Only the anchor instance's entries survive.
        assert set(core.ballots) == {10}
        assert set(core.status) == {10}
        assert core.checkpoint_instance == 10

    def test_space_bounded_in_stable_run(self):
        core = make_core()
        residents = []
        for _ in range(50):
            run_instance(core)
            residents.append(core.resident_entries())
        assert max(residents) <= 4

    def test_space_grows_without_green(self):
        core = make_core()
        for _ in range(20):
            run_instance(core, veto2_collision=True)  # all yellow
        assert core.resident_entries() >= 20

    def test_checkpoint_output_includes(self):
        core = make_core()
        run_instance(core)
        run_instance(core)
        out = core.current_checkpoint_output()
        assert out.includes(1) and out.includes(2)
        assert not out.includes(3)

    def test_fold_skips_bottom_instances(self):
        core = make_core()
        run_instance(core)
        # Orange instance: bad, not folded, then a green one folds over it.
        own = begin(core)
        core.step_ballot([own.ballot], collision=False)
        core.step_veto1(True, False)
        core.step_end(True, False)
        run_instance(core)
        assert core.checkpoint_state == ((1, "v1"), (3, "v3"))


class TestEnsemble:
    def test_checkpoint_states_agree_across_nodes(self):
        run = (scenario().nodes(4).instances(15)
               .checkpoint_cha(reducer=tuple_reducer, initial_state=())
               .run())
        finals = set()
        for proc in run.processes.values():
            cp = proc.checkpoint
            finals.add((cp.checkpoint_instance, cp.checkpoint_state))
        assert len(finals) == 1

    def test_checkpoint_states_prefix_consistent_under_adversity(self):
        run = (scenario().nodes(4).instances(40)
               .checkpoint_cha(reducer=tuple_reducer, initial_state=())
               .adversary(RandomLossAdversary(p_drop=0.4, p_false=0.2, seed=11))
               .detector(EventuallyAccurateDetector(racc=75))
               .contention(LeaderElectionCM(stable_round=75, chaos="random",
                                            seed=11))
               .radio(rcf=75)
               .run())
        # With the tuple reducer the checkpoint state is the decided
        # history: all states must be prefix-ordered.
        states = sorted(
            (proc.checkpoint.checkpoint_state for proc in run.processes.values()),
            key=len,
        )
        for a, b in zip(states, states[1:]):
            assert b[:len(a)] == a

    def test_space_advantage_over_plain_cha(self):
        plain = scenario().nodes(3).instances(60).cha().run()
        gc = (scenario().nodes(3).instances(60)
              .checkpoint_cha(reducer=tuple_reducer, initial_state=())
              .run())
        plain_resident = plain.processes[0].core.resident_entries()
        gc_resident = gc.processes[0].core.resident_entries()
        assert gc_resident < plain_resident
        assert plain_resident >= 120  # grows linearly: ballots + status
        assert gc_resident <= 4       # bounded

    def test_outputs_are_checkpoint_outputs(self):
        run = (scenario().nodes(2).instances(3)
               .checkpoint_cha(reducer=tuple_reducer, initial_state=())
               .run())
        for _, out in run.outputs[0]:
            assert out is BOTTOM or isinstance(out, CheckpointOutput)


class TestFoldCallCounts:
    """Fold-count regression (ISSUE 5 satellite): exactly one chain fold
    per green instance, and the cache-invalidation paths (fold / restore
    / reset) keep folding correct without extra re-folds.  Mirrors PR
    4's zero-``History.__init__`` pin for the plain engine."""

    @staticmethod
    def _count_folds(monkeypatch, counter=None):
        counter = counter if counter is not None else {"calls": 0}
        seed = CheckpointChaCore.current_history

        def counting(self):
            counter["calls"] += 1
            return seed(self)

        monkeypatch.setattr(CheckpointChaCore, "current_history", counting)
        return counter

    def test_green_instance_costs_exactly_one_fold(self, monkeypatch):
        core = make_core()
        counter = self._count_folds(monkeypatch)
        for i in range(1, 9):
            run_instance(core)
            # One fold serves _fold_to AND the (checkpoint, suffix)
            # output; the seed path paid two.
            assert counter["calls"] == i

    def test_non_green_instances_fold_nothing(self, monkeypatch):
        core = make_core()
        counter = self._count_folds(monkeypatch)
        run_instance(core, clean=False)           # red: bottom output
        run_instance(core, veto2_collision=True)  # yellow: bottom output
        assert counter["calls"] == 0

    @pytest.mark.parametrize("core_type", [CheckpointChaCore,
                                           SlottedCheckpointChaCore])
    def test_fold_across_a_gap_reads_the_chain_once(self, monkeypatch,
                                                    core_type):
        """A green instance after ``d`` yellow ones folds ``d + 1``
        instances; reading each with ``history(k)`` would walk from the
        tip every time (quadratic in ``d``)."""
        core = core_type(propose=lambda k: f"v{k}", reducer=tuple_reducer,
                         initial_state=())
        run_instance(core)
        for _ in range(30):
            run_instance(core, veto2_collision=True)
        walks = []
        prefix = HistoryChain.prefix
        monkeypatch.setattr(HistoryChain, "prefix",
                            lambda self, cut: walks.append(cut)
                            or prefix(self, cut))
        k, out = run_instance(core)
        assert walks == []
        assert out.checkpoint_state == tuple(
            (i, f"v{i}") for i in range(1, k + 1))

    def test_restore_and_reset_invalidate_without_refolding(self, monkeypatch):
        donor = make_core()
        for _ in range(4):
            run_instance(donor)
        snapshot = donor.snapshot()

        joiner = make_core()
        counter = self._count_folds(monkeypatch)
        joiner.restore(snapshot)
        assert counter["calls"] == 0      # restore itself never folds
        assert joiner._fold_cache == {}   # ... but drops stale chains
        k, out = run_instance(joiner)
        assert counter["calls"] == 1      # next green folds exactly once
        assert out.checkpoint_state == donor.checkpoint_state + ((k, f"v{k}"),)

        joiner.reset_to(10, ())
        assert joiner._fold_cache == {}
        counter["calls"] = 0
        k, out = run_instance(joiner)
        assert (k, counter["calls"]) == (11, 1)
        assert out.checkpoint_instance == 11 and out.suffix.length == 11

    def test_standalone_checkpoint_output_folds_once(self, monkeypatch):
        core = make_core()
        for _ in range(3):
            run_instance(core)
        counter = self._count_folds(monkeypatch)
        out = core.current_checkpoint_output()
        assert counter["calls"] == 1
        assert out.checkpoint_instance == 3


class _CountingList(list):
    """A status array that counts element reads."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return list.__getitem__(self, index)


class _FoldProbe(SlottedCheckpointChaCore):
    """Attributes the status-array reads made inside ``_fold_to``."""

    __slots__ = ("fold_reads",)

    def _fold_to(self, green, state):
        before = self._c.status.reads
        super()._fold_to(green, state)
        self.fold_reads += self._c.status.reads - before


class TestGcFloor:
    """The slotted core's GC is incremental (work-count pin, in the
    style of PR 7's counting tests) and its floor never hides a live
    slot (twin test against the dict core)."""

    @staticmethod
    def _probe():
        core = _FoldProbe(propose=lambda k: f"v{k}", reducer=tuple_reducer,
                          initial_state=())
        core.fold_reads = 0
        core._c.status = _CountingList(core._c.status)
        return core

    def test_green_run_reads_a_bounded_number_of_slots_per_fold(self):
        instances = 2000
        core = self._probe()
        cache = core._c.cache
        for _ in range(instances):
            run_instance(core)
            assert core._c.cache is cache        # cleared in place
        assert core.checkpoint_instance == instances
        assert core.resident_entries() == 2         # the anchor's pair
        # A sweep from slot 0 on every green instance reads ~2 000 000.
        assert 0 < core.fold_reads <= 4 * instances

    def test_sweep_is_proportional_to_the_gap_between_green_instances(self):
        core = self._probe()
        cache = core._c.cache
        total = 0
        for gap in (1, 5, 40, 2, 300, 1):
            for _ in range(gap - 1):
                run_instance(core, veto2_collision=True)    # yellow
            before = core.fold_reads
            run_instance(core)                              # green
            total += gap
            assert core.fold_reads - before <= gap + 1
            assert core._c.cache is cache
            assert not any(cache[:total + 1])
            assert core.resident_entries() == 2

    # -- the floor never hides a live slot -------------------------------

    @staticmethod
    def _twins():
        make = dict(propose=lambda k: f"v{k}", reducer=tuple_reducer,
                    initial_state=())
        return CheckpointChaCore(**make), SlottedCheckpointChaCore(**make)

    @staticmethod
    def _assert_in_step(dict_core, slotted, instances=3):
        assert slotted.snapshot() == dict_core.snapshot()
        for _ in range(instances):
            assert run_instance(slotted) == run_instance(dict_core)
            assert slotted.snapshot() == dict_core.snapshot()
            assert slotted.resident_entries() == dict_core.resident_entries()

    @pytest.mark.parametrize("write", ["views", "setters"])
    def test_entries_written_below_the_checkpoint_are_collected(self, write):
        twins = self._twins()
        for core in twins:
            for _ in range(8):
                run_instance(core)
            assert core.checkpoint_instance == 8
            if write == "views":
                core.status[2] = Color.YELLOW
                core.ballots[3] = Ballot("late", 1)
                core.status[0] = Color.RED
            else:
                core.status = {**core.status, 1: Color.RED, 5: Color.ORANGE}
                core.ballots = {**core.ballots, 4: Ballot("late", 2)}
        assert twins[1]._c.gc_floor <= 1
        self._assert_in_step(*twins)
        assert twins[1].resident_entries() == 2
        assert twins[1]._c.gc_floor == twins[1].checkpoint_instance

    def test_restoring_an_older_snapshot_lowers_the_floor(self):
        donor = make_core()
        for _ in range(3):
            run_instance(donor)
        run_instance(donor, veto2_collision=True)
        run_instance(donor, veto2_collision=True)
        old = donor.snapshot()          # checkpoint 3, entries at 3, 4, 5
        twins = self._twins()
        for core in twins:
            for _ in range(12):
                run_instance(core)
            core.restore(old)
        assert twins[1]._c.gc_floor <= 3
        self._assert_in_step(*twins)

    def test_reset_below_the_floor_then_a_pre_instance_reception(self):
        twins = self._twins()
        for core in twins:
            for _ in range(12):
                run_instance(core)
            core.reset_to(5, ())
            # A ballot heard before the first instance begins lands in
            # slot ``k`` itself (the reference dicts' quirk).
            core.step_ballot([Ballot("early", 4)], False)
        self._assert_in_step(*twins)
        assert twins[1].resident_entries() == 2
