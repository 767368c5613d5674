"""Unit tests for the glass-box lemma checkers."""

import pytest

from repro.analysis import (
    check_all_invariants,
    check_lemma5,
    check_lemma6,
    check_lemma9,
    check_prev_pointer_discipline,
    check_property4,
)
from repro import scenario
from repro.contention import LeaderElectionCM
from repro.detectors import EventuallyAccurateDetector
from repro.errors import SpecViolation
from repro.net import RandomLossAdversary
from repro.types import Color


@pytest.fixture(scope="module")
def runs():
    """A batch of adversarial executions for soak-checking."""
    out = []
    for seed in range(6):
        out.append(
            scenario().nodes(5).instances(25).cha()
            .adversary(RandomLossAdversary(p_drop=0.4, p_false=0.25,
                                           seed=seed))
            .detector(EventuallyAccurateDetector(racc=45))
            .contention(LeaderElectionCM(stable_round=45, chaos="random",
                                         seed=seed))
            .radio(rcf=45)
            .run())
    return out


class TestCheckersPassOnRealExecutions:
    def test_property4(self, runs):
        for run in runs:
            check_property4(run)

    def test_lemma5(self, runs):
        for run in runs:
            check_lemma5(run)

    def test_lemma6(self, runs):
        for run in runs:
            check_lemma6(run)

    def test_lemma9(self, runs):
        for run in runs:
            check_lemma9(run)

    def test_prev_pointer(self, runs):
        for run in runs:
            check_prev_pointer_discipline(run)

    def test_check_all(self, runs):
        check_all_invariants(runs[0])


class TestCheckersDetectViolations:
    """Corrupt a finished run's state and confirm each checker fires."""

    def make_run(self):
        return scenario().nodes(3).instances(5).cha().run()

    def test_property4_fires_on_two_shade_gap(self):
        run = self.make_run()
        run.processes[0].core.status[3] = Color.RED
        run.processes[1].core.status[3] = Color.YELLOW
        with pytest.raises(SpecViolation, match="Property 4"):
            check_property4(run)

    def test_lemma5_fires_on_green_orange_mix(self):
        run = self.make_run()
        run.processes[0].core.status[2] = Color.ORANGE
        with pytest.raises(SpecViolation, match="Lemma 5"):
            check_lemma5(run)

    def test_lemma6_fires_on_red_included_instance(self):
        run = self.make_run()
        # All histories include instance 2; painting it red at one node
        # (keeping others orange to appease Lemma 5's shape) must trip it.
        run.processes[0].core.status[2] = Color.RED
        with pytest.raises(SpecViolation, match="Lemma 6"):
            check_lemma6(run)

    def test_lemma9_fires_on_missing_green(self):
        run = self.make_run()
        # Forge an output that omits a green instance.
        from repro.core import History
        node = 0
        log = run.processes[node].core.outputs
        bad = History(5, {k: f"v0.{k:06d}" for k in (1, 2, 4, 5)})
        log.append((5, bad))
        with pytest.raises(SpecViolation, match="Lemma 9"):
            check_lemma9(run)

    def test_prev_pointer_fires_on_stale_pointer(self):
        run = self.make_run()
        run.processes[0].core.prev_instance = 1
        with pytest.raises(SpecViolation, match="prev-instance"):
            check_prev_pointer_discipline(run)


class TestCollectViolations:
    """The non-raising enumeration used for ad-hoc debugging of a result."""

    def make_run(self):
        return scenario().nodes(3).instances(5).cha().run()

    def test_clean_run_yields_nothing(self):
        from repro.analysis import collect_violations, first_violation

        run = self.make_run()
        assert collect_violations(run) == {}
        assert first_violation(run) is None

    def test_all_failures_reported_with_context(self):
        from repro.analysis import collect_violations, first_violation

        run = self.make_run()
        # One corruption tripping several checkers at once.
        run.processes[0].core.status[2] = Color.RED
        violations = collect_violations(run)
        assert {"lemma5", "lemma6"} <= set(violations)
        assert all(isinstance(v, SpecViolation) for v in violations.values())
        assert violations["lemma6"].context["instance"] == 2
        assert first_violation(run) is not None

    def test_registry_matches_check_all_invariants(self):
        from repro.analysis import GLASS_BOX_CHECKERS

        assert set(GLASS_BOX_CHECKERS) == {
            "property4", "lemma5", "lemma6", "lemma9", "prev_pointer",
        }
