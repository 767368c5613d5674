"""Unit tests for fault-plan primitives and plan composition."""

import pickle

import pytest

import repro.faults
from repro.faults import (
    NEVER,
    CrashWave,
    DetectorNoise,
    FaultPlan,
    MessageStorm,
    MobilityChurn,
    Partition,
    SenderSuppression,
    plan,
    subseed,
)
from repro.net import CrashPoint

ALL_PRIMITIVES = plan(
    CrashWave(fraction=0.4, horizon=25),
    Partition(until=30, n_groups=2),
    MessageStorm(intensity=0.5, detector_noise=0.1, until=35),
    SenderSuppression(senders=(1, 2), until=20),
    DetectorNoise(p_false=0.3, until=40),
    MobilityChurn(count=2),
    seed=9,
)


class TestPlanAlgebra:
    def test_pipe_appends_primitive(self):
        p = plan(MessageStorm()) | CrashWave()
        assert len(p.primitives) == 2
        assert isinstance(p.primitives[1], CrashWave)

    def test_pipe_unions_plans(self):
        p = plan(MessageStorm(), seed=1) | plan(CrashWave(), seed=2)
        assert len(p.primitives) == 2
        assert p.seed == 1  # left seed wins

    def test_with_seed(self):
        assert plan(CrashWave()).with_seed(7).seed == 7

    def test_non_primitive_rejected(self):
        with pytest.raises(TypeError):
            FaultPlan(primitives=("storm",))


class TestRequirements:
    def test_rcf_is_max_over_drop_windows(self):
        assert ALL_PRIMITIVES.rcf_requirement() == 35

    def test_racc_is_max_over_noise_windows(self):
        assert ALL_PRIMITIVES.racc_requirement() == 40

    def test_stabilization_round(self):
        assert ALL_PRIMITIVES.stabilization_round() == 40

    def test_crashes_and_churn_need_no_stabilisation(self):
        p = plan(CrashWave(), MobilityChurn())
        assert p.stabilization_round() == 0

    def test_unbounded_storm_never_stabilises(self):
        p = plan(MessageStorm(until=None))
        assert p.rcf_requirement() == NEVER


class TestReprRoundTrip:
    def test_every_primitive_repr_is_evalable(self):
        clone = eval(repr(ALL_PRIMITIVES), vars(repro.faults))
        assert clone == ALL_PRIMITIVES

    def test_plans_pickle(self):
        assert pickle.loads(pickle.dumps(ALL_PRIMITIVES)) == ALL_PRIMITIVES


class TestCrashWave:
    def test_seeded_and_deterministic(self):
        wave = CrashWave(fraction=0.5, horizon=30)
        assert wave.crashes(8, 3) == wave.crashes(8, 3)
        assert wave.crashes(8, 3) != wave.crashes(8, 4)

    def test_fraction_sets_victim_count(self):
        wave = CrashWave(fraction=0.4, horizon=100, spare=frozenset())
        assert len(wave.crashes(10, 1)) == 4

    def test_rounds_within_horizon(self):
        wave = CrashWave(fraction=1.0, horizon=30, spare=frozenset())
        assert all(1 <= c.round < 30 for c in wave.crashes(10, 5))

    def test_spare_nodes_survive(self):
        wave = CrashWave(fraction=1.0, horizon=30, spare=frozenset({0, 1}))
        assert all(c.node not in (0, 1) for c in wave.crashes(6, 5))

    def test_after_send_crashes_present(self):
        wave = CrashWave(fraction=1.0, horizon=50, after_send_fraction=0.5)
        points = {c.point for c in wave.crashes(30, 2)}
        assert points == {CrashPoint.BEFORE_SEND, CrashPoint.AFTER_SEND}

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            CrashWave(fraction=1.2)


class TestPartition:
    def test_scripted_groups_respected(self):
        adv = Partition(until=10, groups=((0, 1), (2,))).adversary(3, 0)
        from repro.net import Message
        t = {0: (Message(2, "x"),)}
        assert adv.drops(5, t) == {0: frozenset({2})}

    def test_random_groups_cover_all_nodes(self):
        adv = Partition(until=10, n_groups=3).adversary(9, 4)
        # All 9 nodes belong to some group (none dropped from the split).
        assert sorted(adv._group_of) == list(range(9))
        assert len(set(adv._group_of.values())) == 3

    def test_single_group_rejected(self):
        with pytest.raises(ValueError):
            Partition(n_groups=1)


class TestShrinkVariants:
    @pytest.mark.parametrize("primitive", ALL_PRIMITIVES.primitives,
                             ids=lambda p: type(p).__name__)
    def test_variants_are_strictly_different(self, primitive):
        variants = list(primitive.shrink_variants())
        assert variants, "default-sized primitives must be shrinkable"
        assert all(v != primitive for v in variants)

    def test_shrinking_terminates(self):
        # Repeatedly taking the first variant must bottom out.
        current = MessageStorm(intensity=0.9, detector_noise=0.8, until=100)
        for _ in range(100):
            variants = list(current.shrink_variants())
            if not variants:
                break
            current = variants[0]
        else:
            pytest.fail("shrink_variants never reached a fixpoint")


class TestSubseed:
    def test_stable_and_distinct(self):
        assert subseed(3, 0, 1) == subseed(3, 0, 1)
        assert subseed(3, 0, 1) != subseed(3, 1, 1)
        assert subseed(3, 0, 1) != subseed(4, 0, 1)
