"""Unit tests for crash schedules and crash-point semantics, and for the
shape of a process's receive step."""

import pytest

import repro.baselines  # noqa: F401  (registers the baseline processes)
import repro.core  # noqa: F401
import repro.vi  # noqa: F401
from repro.net import Crash, CrashPoint, CrashSchedule
from repro.net.node import Ensemble, Process


class TestCrashSchedule:
    def test_empty_schedule_never_crashes(self):
        cs = CrashSchedule()
        assert not cs.crashed_by(0, 100)
        assert cs.sends_in(0, 100)
        assert cs.receives_in(0, 100)

    def test_before_send_semantics(self):
        cs = CrashSchedule([Crash(0, 5, CrashPoint.BEFORE_SEND)])
        assert cs.sends_in(0, 4)
        assert not cs.sends_in(0, 5)
        assert cs.receives_in(0, 4)
        assert not cs.receives_in(0, 5)

    def test_before_send_fully_gone_in_crash_round(self):
        cs = CrashSchedule([Crash(0, 5, CrashPoint.BEFORE_SEND)])
        assert cs.crashed_by(0, 5)

    def test_after_send_sends_but_does_not_receive(self):
        cs = CrashSchedule([Crash(0, 5, CrashPoint.AFTER_SEND)])
        assert cs.sends_in(0, 5)
        assert not cs.receives_in(0, 5)
        assert not cs.crashed_by(0, 5)
        assert cs.crashed_by(0, 6)

    def test_of_shorthand(self):
        cs = CrashSchedule.of({1: 3, 2: 7})
        assert cs.crashed_by(1, 3)
        assert cs.crashed_by(2, 7)
        assert not cs.crashed_by(2, 6)

    def test_double_crash_rejected(self):
        with pytest.raises(ValueError):
            CrashSchedule([Crash(0, 1), Crash(0, 2)])

    def test_iteration_and_len(self):
        cs = CrashSchedule([Crash(0, 1), Crash(1, 2)])
        assert len(cs) == 2
        assert {c.node for c in cs} == {0, 1}

    def test_crash_for(self):
        crash = Crash(3, 9, CrashPoint.AFTER_SEND)
        cs = CrashSchedule([crash])
        assert cs.crash_for(3) == crash
        assert cs.crash_for(4) is None


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_a_process_has_one_receive_step():
    """A process receives a round through ``deliver`` alone; only an
    ensemble is handed the round's batch (``deliver_round``)."""
    procs = list(_subclasses(Process))
    names = {cls.__name__ for cls in procs}
    assert {"CHAProcess", "VIDevice", "MajorityRSMProcess"} <= names
    assert [cls.__name__ for cls in procs
            if hasattr(cls, "deliver_batch")] == []
    assert all(hasattr(cls, "deliver_round") for cls in _subclasses(Ensemble))
