"""Unit tests for the measurement helpers."""

import pytest

from repro.analysis import (
    SizeStats,
    bottom_rate,
    color_divergence_histogram,
    convergence_instance,
    decided_instances,
    decision_throughput,
    green_fraction_by_window,
    message_size_stats,
    rounds_per_decided_instance,
)
from repro import scenario
from repro.contention import LeaderElectionCM
from repro.detectors import EventuallyAccurateDetector
from repro.net import RandomLossAdversary


@pytest.fixture(scope="module")
def stable_run():
    return scenario().nodes(4).instances(20).cha().run()


@pytest.fixture(scope="module")
def unstable_run():
    return (scenario().nodes(4).instances(30).cha()
            .adversary(RandomLossAdversary(p_drop=0.4, p_false=0.25, seed=1))
            .detector(EventuallyAccurateDetector(racc=45))
            .contention(LeaderElectionCM(stable_round=45, chaos="random",
                                         seed=1))
            .radio(rcf=45)
            .run())


class TestSizeStats:
    def test_of_empty(self):
        assert SizeStats.of([]) == SizeStats(0, 0, 0.0)

    def test_of_values(self):
        stats = SizeStats.of([2, 4, 6])
        assert stats == SizeStats(3, 6, 4.0)

    def test_trace_window(self, stable_run):
        full = message_size_stats(stable_run.trace)
        head = message_size_stats(stable_run.trace, last_round=6)
        assert head.count < full.count
        assert head.max == full.max  # constant-size protocol

    def test_chap_sizes_constant(self, stable_run):
        stats = message_size_stats(stable_run.trace)
        # Ballot and veto payloads only: at most 2 distinct sizes.
        assert stats.max <= stats.mean * 2


class TestDecisionMetrics:
    def test_stable_run_decides_everything(self, stable_run):
        assert decided_instances(stable_run, 0) == 20
        assert bottom_rate(stable_run, 0) == 0.0

    def test_throughput_is_one_third(self, stable_run):
        assert decision_throughput(stable_run, 0) == pytest.approx(1 / 3)
        assert rounds_per_decided_instance(stable_run, 0) == pytest.approx(3.0)

    def test_unstable_run_has_bottoms(self, unstable_run):
        assert bottom_rate(unstable_run, 0) > 0.0
        assert rounds_per_decided_instance(unstable_run, 0) > 3.0

    def test_no_decisions_gives_infinite_cost(self, unstable_run):
        # Construct a node view with zero decisions by slicing: use a run
        # where everything is bottom early; simplest: check the guard.
        run = (scenario().nodes(3).instances(3).cha()
               .adversary(RandomLossAdversary(p_drop=1.0, seed=0))
               .detector(EventuallyAccurateDetector(racc=100))
               .contention(LeaderElectionCM(stable_round=100, chaos="none"))
               .radio(rcf=100)
               .run())
        assert rounds_per_decided_instance(run, 0) == float("inf")
        assert decision_throughput(run, 0) == 0.0


class TestColorHistogram:
    def test_stable_all_zero_divergence(self, stable_run):
        hist = color_divergence_histogram(stable_run)
        assert hist == {0: 20}

    def test_unstable_support_within_property4(self, unstable_run):
        hist = color_divergence_histogram(unstable_run)
        assert set(hist) <= {0, 1}
        assert sum(hist.values()) == 30


class TestConvergence:
    def test_stable_converges_at_one(self, stable_run):
        assert convergence_instance(stable_run) == 1

    def test_unstable_converges_after_stabilisation(self, unstable_run):
        kst = convergence_instance(unstable_run)
        assert kst is not None and 1 < kst <= 17

    def test_green_fraction_windows(self, unstable_run):
        fractions = green_fraction_by_window(unstable_run, window=10)
        assert len(fractions) == 3
        assert fractions[-1] == 1.0  # stabilised tail fully green
