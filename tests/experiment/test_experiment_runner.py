"""One entrypoint, every protocol: the acceptance surface of repro.run."""

import pytest

from repro import run, scenario
from repro.errors import ConfigurationError
from repro.experiment import (
    CHA,
    CheckpointCHA,
    ClusterWorld,
    ExperimentSpec,
    MetricsSpec,
    WorkloadSpec,
)
from repro.geometry import Point
from repro.net import CrashSchedule, RandomLossAdversary
from repro.types import BOTTOM


def count_reducer(state, k, value):
    return state + (0 if value is BOTTOM else 1)


class TestClusterProtocols:
    def test_explicit_node_ids(self):
        result = run(ExperimentSpec(protocol=CHA(), world=ClusterWorld(n=3),
                                    workload=WorkloadSpec(instances=2)))
        assert sorted(result.processes) == [0, 1, 2]
        assert result.simulator.node_ids == [0, 1, 2]

    def test_checkpoint_cha(self):
        result = (scenario().nodes(3).instances(9)
                  .checkpoint_cha(reducer=count_reducer, initial_state=0)
                  .metrics("resident_entries")
                  .invariants("all")
                  .run())
        result.assert_ok()
        # GC keeps resident state flat: entries don't grow with instances.
        assert all(v <= 4 for v in result.metrics["resident_entries"].values())
        checkpoint = result.processes[0].checkpoint
        assert checkpoint.checkpoint_state == checkpoint.checkpoint_instance

    def test_checkpoint_cha_serves_every_cha_metric(self):
        """Checkpoint outputs answer ``includes`` only; the liveness
        measurement must get by on that."""
        from repro.experiment.runner import _CHA_METRICS

        instances = 30
        result = (scenario().nodes(4).instances(instances)
                  .checkpoint_cha(reducer=count_reducer, initial_state=0)
                  .adversary(RandomLossAdversary(p_drop=0.3, seed=5))
                  .radio(rcf=40)
                  .metrics(*_CHA_METRICS).invariants("all").run())
        result.assert_ok()
        logs = [dict(log) for log in result.outputs.values()]
        assert any(out is BOTTOM for log in logs for out in log.values())

        def works(kst):
            return all(
                log[k] is not BOTTOM
                and all(log[k].includes(j) for j in range(kst, k + 1))
                for log in logs for k in range(kst, instances + 1))

        kst = result.metrics["convergence_instance"]
        assert 1 < kst <= instances
        assert works(kst) and not any(works(j) for j in range(1, kst))

    def test_naive_rsm_messages_grow(self):
        result = (scenario().nodes(3).instances(12).naive_rsm()
                  .metrics("max_message_size")
                  .invariants("agreement", "validity")
                  .run())
        result.assert_ok()
        plain = (scenario().nodes(3).instances(12).cha()
                 .metrics("max_message_size").run())
        assert result.metrics["max_message_size"] > plain.metrics["max_message_size"]

    def test_two_phase_cha(self):
        result = (scenario().nodes(3).instances(8).two_phase_cha()
                  .metrics("decided_instances").run())
        assert result.metrics["decided_instances"][0] == 8
        assert len(result.trace) == 16  # 2 rounds per instance

    def test_majority_rsm(self):
        result = (scenario().nodes(4).rounds(60).majority_rsm()
                  .metrics("decided_instances").run())
        # 6 rounds per instance at n=4.
        assert result.metrics["decided_instances"][1] == 10
        assert result.outputs is None

    def test_crashes_flow_through(self):
        result = (scenario().nodes(3).instances(5).cha()
                  .crashes(CrashSchedule.of({1: 4}))
                  .run())
        assert result.surviving_nodes() == [0, 2]


class TestOffChannelAndEmulation:
    def test_three_phase_commit_commit_path(self):
        result = (scenario().three_phase_commit([True, True, True])
                  .metrics("decision", "state_spread").run())
        assert result.metrics["decision"] == "commit"
        assert result.metrics["state_spread"] == 0

    def test_three_phase_commit_abort_path(self):
        result = (scenario().three_phase_commit([True, False, True])
                  .metrics("decision").run())
        assert result.metrics["decision"] == "abort"

    def test_vi_emulation(self):
        from repro.vi import CounterProgram, ScriptedClient

        result = (scenario()
                  .single_region(n_replicas=3)
                  .program(0, CounterProgram())
                  .client(Point(0.4, 0.0),
                          ScriptedClient({1: ("add", 1), 3: ("add", 1)}),
                          name="writer")
                  .virtual_rounds(6)
                  .metrics("availability", "rounds_per_virtual_round")
                  .invariants("all")
                  .run())
        result.assert_ok()
        assert result.metrics["availability"] == {0: 1.0}
        assert result.metrics["rounds_per_virtual_round"] == \
            result.world.clock.rounds_per_virtual_round
        assert set(result.world.vn_states(0).values()) == {2}

    def test_vi_named_clients_are_live(self):
        from repro.vi import SilentClient, SilentProgram

        listener = SilentClient()
        result = (scenario().single_region(n_replicas=2)
                  .program(0, SilentProgram())
                  .client(Point(0.0, 0.4), SilentClient(), name="listener")
                  .virtual_rounds(4).run())
        assert len(result.client("listener").heard) == 4
        with pytest.raises(ConfigurationError):
            result.client("nobody")
        assert not listener.heard  # un-deployed instance untouched


class TestMetricsAndInvariants:
    def test_online_wire_metrics_match_trace(self):
        result = (scenario().nodes(4).instances(10).cha()
                  .adversary(RandomLossAdversary(p_drop=0.2, p_false=0.1, seed=5))
                  .metrics("max_message_size", "mean_message_size",
                           "total_broadcasts", "rounds")
                  .run())
        trace = result.trace
        assert result.metrics["max_message_size"] == trace.max_message_size()
        assert result.metrics["mean_message_size"] == pytest.approx(
            trace.mean_message_size())
        assert result.metrics["total_broadcasts"] == trace.total_broadcasts()
        assert result.metrics["rounds"] == len(trace)

    def test_keep_trace_false_still_produces_metrics(self):
        result = (scenario().nodes(3).instances(5).cha()
                  .metrics("total_broadcasts", "decided_instances")
                  .keep_trace(False)
                  .run())
        assert result.trace is None
        assert len(result.simulator.trace) == 0
        assert result.metrics["total_broadcasts"] > 0
        assert result.metrics["decided_instances"][0] == 5

    def test_unknown_metric_rejected(self):
        with pytest.raises(ConfigurationError, match="metric"):
            scenario().nodes(2).instances(2).cha().metrics("bogus").run()

    def test_metric_unavailable_for_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            (scenario().three_phase_commit([True])
             .metrics("decided_instances").run())

    def test_unknown_invariant_rejected(self):
        with pytest.raises(ConfigurationError, match="invariant"):
            scenario().nodes(2).instances(2).cha().invariants("bogus").run()

    def test_violated_invariant_is_a_verdict_not_an_exception(self):
        # liveness_by=0 is unsatisfiable: convergence instances start at 1.
        result = (scenario().nodes(2).instances(3).cha()
                  .liveness_by(0)
                  .run())
        assert result.invariants["liveness"].startswith("violated")
        assert not result.ok()
        with pytest.raises(AssertionError):
            result.assert_ok()

    def test_all_expands_per_protocol(self):
        result = (scenario().nodes(2).instances(3).cha()
                  .invariants("all").run())
        assert set(result.invariants) == {
            "agreement", "lemma5", "lemma6", "lemma9", "prev_pointer",
            "property4", "validity",
        }
        result.assert_ok()
