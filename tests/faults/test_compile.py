"""Compilation of fault plans into environment components and specs."""

import pytest

import repro
from repro.contention import LeaderElectionCM
from repro.detectors import EventuallyAccurateDetector, PerfectDetector
from repro.errors import ConfigurationError
from repro.faults import (
    CrashWave,
    DetectorNoise,
    MessageStorm,
    MobilityChurn,
    Partition,
    apply_faults,
    materialize,
    plan,
)
from repro.net import ComposedAdversary, Message, ScriptedAdversary


def drops_trace(adversary, rounds=20):
    t = {1: (Message(0, "a"), Message(2, "b")), 3: (Message(0, "a"),)}
    return [adversary.drops(r, t) for r in range(rounds)]


class TestMaterialize:
    def test_deterministic(self):
        p = plan(MessageStorm(intensity=0.6, until=15),
                 CrashWave(fraction=0.5, horizon=10), seed=5)
        a, b = materialize(p, n=6), materialize(p, n=6)
        assert drops_trace(a.adversary) == drops_trace(b.adversary)
        assert tuple(a.crashes) == tuple(b.crashes)

    def test_primitives_draw_independent_subseeds(self):
        """Removing, prepending, or weakening a sibling primitive must
        not perturb another primitive's output — the invariant the
        shrinker's drop-a-primitive step relies on."""
        wave = CrashWave(fraction=0.5, horizon=10)
        alone = materialize(plan(wave, seed=5), n=6)
        trailing = materialize(plan(wave, MessageStorm(until=15), seed=5), n=6)
        # The storm *preceding* the wave shifts the wave's position but
        # must not shift its seed.
        leading = materialize(plan(MessageStorm(until=15), wave, seed=5), n=6)
        weakened = materialize(
            plan(MessageStorm(intensity=0.1, until=15), wave, seed=5), n=6)
        assert tuple(alone.crashes) == tuple(trailing.crashes) \
            == tuple(leading.crashes) == tuple(weakened.crashes)

    def test_equal_twin_primitives_draw_distinct_subseeds(self):
        wave = CrashWave(fraction=0.5, horizon=10, spare=frozenset())
        mat = materialize(plan(wave, wave, seed=5), n=12)
        rounds = {c.node: c.round for c in mat.crashes}
        # Twins crash different victims/rounds: the occurrence counter
        # separates identical primitives.
        assert len(rounds) > len(materialize(plan(wave, seed=5), n=12).crashes)

    def test_duplicate_crash_victims_keep_earliest(self):
        p = plan(CrashWave(fraction=1.0, horizon=10),
                 CrashWave(fraction=1.0, horizon=10), seed=1)
        mat = materialize(p, n=4)
        # CrashSchedule would have raised on duplicates; one crash each.
        assert len(mat.crashes) == 3  # node 0 spared by default

    def test_requirements_forwarded(self):
        mat = materialize(plan(Partition(until=22),
                               DetectorNoise(p_false=0.2, until=31)), n=4)
        assert (mat.rcf, mat.racc) == (22, 31)

    def test_empty_plan_is_benign(self):
        mat = materialize(plan(), n=4)
        assert mat.adversary is None and mat.crashes is None
        assert mat.mobility == ()


def cluster_spec(**kwargs):
    defaults = dict(
        protocol=repro.CHA(),
        world=repro.ClusterWorld(n=5),
        workload=repro.WorkloadSpec(instances=20),
    )
    defaults.update(kwargs)
    return repro.ExperimentSpec(**defaults)


class TestApplyFaults:
    PLAN = plan(MessageStorm(intensity=0.4, until=24),
                DetectorNoise(p_false=0.2, until=30),
                CrashWave(fraction=0.3, horizon=15), seed=2)

    def test_noop_without_plan(self):
        spec = cluster_spec()
        assert apply_faults(spec) is spec

    def test_cluster_world_rcf_raised(self):
        spec = apply_faults(cluster_spec(faults=self.PLAN))
        assert spec.world.rcf == 24

    def test_detector_defaults_to_plan_racc(self):
        spec = apply_faults(cluster_spec(faults=self.PLAN))
        assert isinstance(spec.environment.detector,
                          EventuallyAccurateDetector)
        assert spec.environment.detector.racc == 30

    def test_explicit_detector_kept(self):
        spec = cluster_spec(
            faults=self.PLAN,
            environment=repro.EnvironmentSpec(detector=PerfectDetector()),
        )
        assert isinstance(apply_faults(spec).environment.detector,
                          PerfectDetector)

    def test_default_cm_stabilises_with_the_plan(self):
        cm = apply_faults(cluster_spec(faults=self.PLAN)).environment.cm
        assert isinstance(cm, LeaderElectionCM)
        assert cm.stable_round == 30
        assert cm.chaos == "random"

    def test_explicit_adversary_composes(self):
        scripted = ScriptedAdversary(drop_script={(0, 1): "all"})
        spec = cluster_spec(
            faults=self.PLAN,
            environment=repro.EnvironmentSpec(adversary=scripted),
        )
        adv = apply_faults(spec).environment.adversary
        assert isinstance(adv, ComposedAdversary)
        assert scripted in adv.parts

    def test_crash_conflict_rejected(self):
        from repro.net import Crash, CrashSchedule

        spec = cluster_spec(
            faults=self.PLAN,
            environment=repro.EnvironmentSpec(
                crashes=CrashSchedule([Crash(1, 3)]),
            ),
        )
        with pytest.raises(ConfigurationError):
            apply_faults(spec)

    def test_application_is_idempotent(self):
        once = apply_faults(cluster_spec(faults=self.PLAN))
        assert once.faults is None
        assert apply_faults(once) is once

    def test_three_phase_commit_rejects_faults(self):
        spec = repro.ExperimentSpec(
            protocol=repro.ThreePhaseCommit(votes=(True, True)),
            faults=self.PLAN,
        )
        with pytest.raises(ConfigurationError):
            spec.validate()

    def test_deployed_world_gets_churn_devices(self):
        from repro.vi.program import CounterProgram
        from repro.workloads import single_region

        sites, positions = single_region(3)
        spec = repro.ExperimentSpec(
            protocol=repro.VIEmulation(programs={0: CounterProgram()}),
            world=repro.DeployedWorld(
                sites=tuple(sites),
                devices=tuple(repro.DeviceSpec(mobility=p) for p in positions),
            ),
            workload=repro.WorkloadSpec(virtual_rounds=6),
            faults=plan(MobilityChurn(count=2), Partition(until=9), seed=1),
        )
        applied = apply_faults(spec)
        assert len(applied.world.devices) == 5
        assert applied.world.rcf == 9
        assert applied.world.cm_stable_round == 9

    def test_run_applies_the_plan(self):
        result = repro.run(cluster_spec(
            faults=self.PLAN,
            metrics=repro.MetricsSpec(invariants=("all",)),
        ))
        assert result.ok(), result.invariants
        assert result.spec.faults is None
        assert result.spec.environment.adversary is not None

    def test_builder_attaches_plan(self):
        spec = (repro.scenario().nodes(4).instances(10).cha()
                .faults(self.PLAN, seed=8).build())
        assert spec.faults.seed == 8
