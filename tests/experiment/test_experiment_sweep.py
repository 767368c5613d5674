"""Grid expansion and the serial/parallel sweep equivalence guarantee."""

import pickle

import pytest

from repro import scenario, sweep
from repro.detectors import EventuallyAccurateDetector
from repro.errors import ConfigurationError
from repro.experiment import expand_grid
from repro.net import RandomLossAdversary
from repro.switches import Switches


def seeded_spec():
    return (scenario().nodes(3).instances(8).cha()
            .adversary(RandomLossAdversary(p_drop=0.3, p_false=0.2, seed=42))
            .detector(EventuallyAccurateDetector(racc=12))
            .radio(rcf=12)
            .metrics("decided_instances", "max_message_size",
                     "total_broadcasts", "convergence_instance")
            .invariants("agreement", "validity")
            .build())


class TestExpandGrid:
    def test_empty_grid_is_one_point(self):
        assert expand_grid({}) == [{}]

    def test_row_major_order(self):
        grid = {"a": (1, 2), "b": (10, 20)}
        assert expand_grid(grid) == [
            {"a": 1, "b": 10}, {"a": 1, "b": 20},
            {"a": 2, "b": 10}, {"a": 2, "b": 20},
        ]

    def test_string_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            expand_grid({"a": "abc"})

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            expand_grid({"a": ()})


class TestSweep:
    GRID = {"world__n": (2, 3), "workload__instances": (4, 8)}

    def test_point_count_and_override_recording(self):
        points = sweep(seeded_spec(), self.GRID)
        assert len(points) == 4
        assert points[0].overrides == (("world__n", 2),
                                       ("workload__instances", 4))
        assert points[-1]["world__n"] == 3
        assert points[-1]["workload__instances"] == 8

    def test_parallel_metrics_byte_identical_to_serial(self):
        serial = sweep(seeded_spec(), self.GRID)
        parallel = sweep(seeded_spec(), self.GRID, workers=2)
        assert [pickle.dumps(p) for p in serial] \
            == [pickle.dumps(p) for p in parallel]

    def test_sweep_does_not_consume_the_base_spec(self):
        spec = seeded_spec()
        first = sweep(spec, self.GRID)
        second = sweep(spec, self.GRID)
        assert [pickle.dumps(p) for p in first] \
            == [pickle.dumps(p) for p in second]

    def test_metrics_vary_with_the_grid(self):
        points = sweep(seeded_spec(), self.GRID)
        by_overrides = {p.overrides: p.metrics for p in points}
        small = by_overrides[(("world__n", 2), ("workload__instances", 4))]
        large = by_overrides[(("world__n", 3), ("workload__instances", 8))]
        assert set(small["decided_instances"]) == {0, 1}
        assert set(large["decided_instances"]) == {0, 1, 2}

    def test_invariants_ride_along(self):
        points = sweep(seeded_spec(), {"world__n": (2,)})
        assert points[0].invariants == {"agreement": "ok", "validity": "ok"}

    def test_workers_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            sweep(seeded_spec(), self.GRID, workers=0)

    @pytest.mark.parametrize("workers", [0, -1, -4])
    def test_bad_worker_count_fails_before_any_pool(self, workers):
        # An unknown start method would raise ValueError if a pool were
        # ever built: the worker check must come first.
        with pytest.raises(ConfigurationError, match="at least 1"):
            sweep(seeded_spec(), self.GRID, workers=workers,
                  start_method="telepathy")

    def test_more_workers_than_points_matches_serial(self):
        grid = {"world__n": (3,)}
        serial = sweep(seeded_spec(), grid)
        parallel = sweep(seeded_spec(), grid, workers=4)
        assert [pickle.dumps(p) for p in serial] \
            == [pickle.dumps(p) for p in parallel]

    def test_missing_override_key_raises(self):
        points = sweep(seeded_spec(), {"world__n": (2,)})
        with pytest.raises(KeyError):
            points[0]["workload__instances"]

    def test_emulation_specs_sweep_too(self):
        from repro.vi import SilentProgram

        spec = (scenario().single_region(n_replicas=2)
                .program(0, SilentProgram())
                .virtual_rounds(2)
                .metrics("availability")
                .build())
        points = sweep(spec, {"workload__virtual_rounds": (2, 4)}, workers=2)
        assert [p.metrics["availability"] for p in points] == [{0: 1.0}, {0: 1.0}]


class TestSweepWithFaultPlan:
    """A FaultPlan on the spec materialises per point inside the worker,
    so fault-laden sweeps keep the serial/parallel byte-identity
    guarantee — and the plan's seed is just another grid axis."""

    def faulted_spec(self):
        from repro.faults import CrashWave, MessageStorm, plan

        return (scenario().nodes(5).instances(15).cha()
                .faults(plan(MessageStorm(intensity=0.4, until=24),
                             CrashWave(fraction=0.3, horizon=18)))
                .metrics("decided_instances", "total_broadcasts",
                         "collision_flags")
                .invariants("all")
                .build())

    GRID = {"faults__seed": (0, 1, 2, 3), "world__n": (4, 6)}

    def test_serial_and_parallel_byte_identical(self):
        serial = sweep(self.faulted_spec(), self.GRID)
        parallel = sweep(self.faulted_spec(), self.GRID, workers=3)
        assert [pickle.dumps(p) for p in serial] \
            == [pickle.dumps(p) for p in parallel]

    def test_plan_seed_is_a_grid_axis_that_matters(self):
        points = sweep(self.faulted_spec(), self.GRID, workers=2)
        assert len(points) == 8
        by_seed = {p["faults__seed"]: p.metrics["collision_flags"]
                   for p in points if p["world__n"] == 6}
        assert len({repr(flags) for flags in by_seed.values()}) > 1

    def test_invariants_hold_across_the_grid(self):
        for point in sweep(self.faulted_spec(), self.GRID, workers=2):
            assert all(v == "ok" for v in point.invariants.values()), point


class TestEngineSwitchSweep:
    """The batched engine under the worker pool: sweeping the engine
    switch itself must produce byte-identical points serially and in
    parallel, and both engine values must yield the same metrics."""

    GRID = {"switches": (Switches(), Switches(engine=True)),
            "workload__instances": (6, 10)}

    def test_serial_and_parallel_byte_identical(self):
        serial = sweep(seeded_spec(), self.GRID)
        parallel = sweep(seeded_spec(), self.GRID, workers=2)
        assert [pickle.dumps(p) for p in serial] \
            == [pickle.dumps(p) for p in parallel]

    def test_engines_agree_point_for_point(self):
        points = sweep(seeded_spec(), self.GRID, workers=2)
        by_engine = {}
        for point in points:
            key = point["workload__instances"]
            by_engine.setdefault(key, []).append(
                (point.metrics, point.invariants))
        for key, pairs in by_engine.items():
            assert pairs[0] == pairs[1], key


class TestStartMethods:
    """The byte-identity guarantee must hold under an *explicit* start
    method — fork inherits module state, spawn re-imports from scratch —
    not just whatever the platform defaults to."""

    GRID = {"world__n": (2, 3), "workload__instances": (4,)}

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_agreement_under_pinned_start_method(self, method):
        import multiprocessing

        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"start method {method!r} unavailable")
        serial = sweep(seeded_spec(), self.GRID)
        parallel = sweep(seeded_spec(), self.GRID, workers=2,
                         start_method=method)
        assert [pickle.dumps(p) for p in serial] \
            == [pickle.dumps(p) for p in parallel]

    def test_default_context_is_explicitly_named(self):
        from repro.experiment.sweep import pool_context

        ctx = pool_context()
        assert ctx.get_start_method() in ("fork", "spawn")
        assert pool_context("spawn").get_start_method() == "spawn"

    def test_unknown_start_method_raises(self):
        from repro.experiment.sweep import pool_context

        with pytest.raises(ValueError):
            pool_context("telepathy")
