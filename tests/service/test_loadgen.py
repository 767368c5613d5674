"""The load harness: seeded client populations and their bench wiring."""

from __future__ import annotations

import pytest

from repro import CHA, ClusterWorld, ExperimentSpec, WorkloadSpec
from repro.bench import ALL_SCENARIOS, LoadScenario, run_scenario, scenario_by_name
from repro.bench.history import history_entry
from repro.bench.runner import run_benchmarks
from repro.experiment import MetricsSpec
from repro.service import LoadProfile, ServiceConfig, percentiles, run_load_sync

pytestmark = pytest.mark.fast


def _spec(instances: int = 40, n: int = 8) -> ExperimentSpec:
    return ExperimentSpec(
        protocol=CHA(), world=ClusterWorld(n=n),
        workload=WorkloadSpec(instances=instances),
        metrics=MetricsSpec(metrics=("rounds",),
                            invariants=("agreement", "validity")),
        keep_trace=False,
    )


# ----------------------------------------------------------------------
# Pieces
# ----------------------------------------------------------------------

def test_percentiles_empty_and_singleton():
    assert percentiles([]) == {"count": 0}
    single = percentiles([0.5])
    assert single["p50"] == single["p99"] == single["max"] == 0.5
    assert single["count"] == 1


def test_percentiles_nearest_rank():
    samples = [float(i) for i in range(1, 101)]  # 1..100
    result = percentiles(samples)
    assert result["p50"] == 50.0
    assert result["p90"] == 90.0
    assert result["p99"] == 99.0
    assert result["max"] == 100.0 and result["count"] == 100


def test_load_profile_validation():
    with pytest.raises(ValueError, match="unknown load pattern"):
        LoadProfile(sessions=10, pattern="stampede")
    with pytest.raises(ValueError, match="sessions"):
        LoadProfile(sessions=0)


# ----------------------------------------------------------------------
# Populations
# ----------------------------------------------------------------------

def test_flash_crowd_closed_loop_accounting():
    report = run_load_sync(
        _spec(), LoadProfile(sessions=60, pattern="flash",
                             proposals_per_session=2))
    assert report["sessions_opened"] == 60
    assert report["peak_sessions"] == 60  # flash: everyone attached at once
    assert report["proposals_submitted"] == 120
    assert report["proposals_accepted"] == 120
    assert report["decisions_observed"] == 120
    assert report["unserved"] == 0
    assert report["decision_latency_s"]["count"] == 120
    assert 0 < report["decision_latency_s"]["p50"] \
        <= report["decision_latency_s"]["p99"] \
        <= report["decision_latency_s"]["max"]
    assert report["proposals_per_sec"] > 0
    assert report["invariants"] == {"agreement": "ok", "validity": "ok"}
    assert report["rounds"] == 120  # the world always completes


def test_churn_reconnects_are_seeded():
    def go(seed):
        return run_load_sync(
            _spec(instances=60),
            LoadProfile(sessions=40, pattern="churn",
                        proposals_per_session=3, churn_rate=0.5, seed=seed))

    first, again = go(3), go(3)
    assert first["reconnects"] == again["reconnects"] > 0
    assert first["sessions_opened"] == again["sessions_opened"] \
        == 40 + first["reconnects"]
    assert first["decisions_observed"] == 120


def test_ramp_staggers_arrivals():
    report = run_load_sync(
        _spec(instances=30),
        LoadProfile(sessions=20, pattern="ramp", ramp_s=0.05,
                    proposals_per_session=1),
        ServiceConfig(tick_interval=0.005),
    )
    assert report["sessions_opened"] == 20
    assert report["profile"]["pattern"] == "ramp"
    # On a paced world, arrivals spread out: the flash-crowd peak is
    # not guaranteed, but everyone is eventually served.
    assert report["decisions_observed"] + report["unserved"] == 20


def test_world_completion_bounds_unserved_proposals():
    # 2 instances cannot serve 30 sessions x 3 proposals: the harness
    # must report the shortfall rather than hang.
    report = run_load_sync(
        _spec(instances=2),
        LoadProfile(sessions=30, pattern="flash", proposals_per_session=3))
    assert report["decisions_observed"] < 90
    assert report["unserved"] > 0
    assert report["decisions_observed"] + report["unserved"] \
        + report["proposals_rejected"] >= 90


# ----------------------------------------------------------------------
# Bench wiring
# ----------------------------------------------------------------------

TINY_LOAD = LoadScenario(
    name="tiny-svc", family="service", n=25,
    description="unit-test load scenario",
    make_load=lambda: (
        _spec(instances=12, n=5),
        LoadProfile(sessions=25, pattern="flash"),
        ServiceConfig(queue_limit=64, decision_log_limit=8),
    ),
)


def test_run_scenario_dispatches_load_scenarios():
    result = run_scenario(TINY_LOAD, repeats=2, reference=True)
    assert result.name == "tiny-svc" and result.family == "service"
    assert result.n == 25 and result.gated is False
    assert result.rounds == 36 and result.rounds_per_sec > 0
    # No reference path exists for a served world.
    assert result.reference_wall_s is None
    assert result.speedup_vs_reference is None
    extras = result.extras
    assert extras["sessions"] == 25
    assert extras["peak_sessions"] == 25
    assert extras["proposals_accepted"] == 25
    assert extras["decision_latency_s"]["count"] == 25
    assert extras["dropped_events"] == 0
    assert extras["invariants"] == {"agreement": "ok", "validity": "ok"}


def test_load_scenarios_flow_into_reports_and_history(monkeypatch):
    monkeypatch.setattr("repro.bench.scenarios.ALL_SCENARIOS", (TINY_LOAD,))
    report = run_benchmarks([TINY_LOAD], repeats=1, reference=True,
                            machine_class="unit-test-box")
    row = report["results"]["tiny-svc"]
    assert row["extras"]["decision_latency_s"]["count"] == 25
    digest = history_entry(report)["results"]["tiny-svc"]
    assert digest["rounds_per_sec"] > 0
    assert digest["speedup_vs_reference"] is None
    assert digest["gated"] is False


def test_svc_scenarios_registered():
    names = {s.name for s in ALL_SCENARIOS}
    assert {"svc-smoke", "svc-churn-500", "svc-ramp-500",
            "svc-flash-1k"} <= names
    smoke = scenario_by_name("svc-smoke")
    assert isinstance(smoke, LoadScenario)
    assert smoke.quick and not smoke.gated
    assert smoke.n >= 50  # n is the concurrent-session count
    headliner = scenario_by_name("svc-flash-1k")
    assert headliner.n == 1000
    spec, profile, config = headliner.make_load()
    assert profile.sessions == 1000 and profile.pattern == "flash"
    # Load scenarios are deterministic descriptions: fresh builds agree.
    spec2, profile2, config2 = headliner.make_load()
    assert (profile, config) == (profile2, config2)
    assert spec == spec2


# ----------------------------------------------------------------------
# Bounded decision waits (evicted-event protection)
# ----------------------------------------------------------------------

def test_load_profile_decision_wait_validation():
    with pytest.raises(ValueError, match="decision_wait_s"):
        LoadProfile(sessions=1, decision_wait_s=0.0)


class _StubClient:
    """Replays scripted events, then goes silent forever."""

    def __init__(self, events):
        import asyncio

        self._events = list(events)
        self._silence = asyncio.Event()
        self.dropped = 0

    async def next_event(self):
        if self._events:
            return self._events.pop(0)
        await self._silence.wait()  # nothing will ever arrive

    def close(self):
        pass


def _await(client, instance, wait_s):
    import asyncio

    from repro.service.loadgen import _await_decision

    return asyncio.run(_await_decision(client, instance, wait_s))


def test_await_decision_times_out_when_event_never_arrives():
    from repro.service.loadgen import _TIMED_OUT

    # The decision for instance 3 was evicted; only instance 7's remains.
    client = _StubClient([{"type": "decision", "instance": 7}])
    assert _await(client, 3, 0.05) is _TIMED_OUT


def test_await_decision_returns_matching_decision():
    client = _StubClient([
        {"type": "decision", "instance": 1},
        {"type": "decision", "instance": 2},
    ])
    event = _await(client, 2, 5.0)
    assert event == {"type": "decision", "instance": 2}


def test_await_decision_none_on_world_complete():
    client = _StubClient([{"type": "world-complete"}])
    assert _await(client, 0, 5.0) is None


def test_evicted_decision_counts_dropped_sample_not_hang():
    """queue_limit=1 with two decisions per tick evicts the first
    decision in the same synchronous burst that publishes the second —
    the closed-loop client must time out and account the sample instead
    of waiting for an event that can never arrive."""
    report = run_load_sync(
        _spec(instances=30),
        LoadProfile(sessions=1, proposals_per_session=1,
                    decision_wait_s=0.4),
        ServiceConfig(queue_limit=1, rounds_per_tick=6, tick_interval=0.05),
    )
    assert report["dropped_samples"] == 1
    assert report["decisions_observed"] == 0
    assert report["decision_latency_s"] == {"count": 0}
    assert report["dropped_events"] >= 1  # the eviction really happened
    assert report["unserved"] == 0  # accounted as dropped, not unserved


# ----------------------------------------------------------------------
# Percentile properties
# ----------------------------------------------------------------------

def _oracle_percentile(samples: list[float], p: float) -> float:
    """Brute-force nearest-rank: smallest x with rank(x) >= p*count."""
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, int(p * len(ordered) + 0.5) - 1))
    # Walk instead of index: the oracle re-derives the answer by counting.
    target = rank + 1
    seen = 0
    for x in ordered:
        seen += 1
        if seen >= target:
            return x
    return ordered[-1]


class TestPercentileProperties:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    _samples = st.lists(
        st.floats(min_value=0.0, max_value=1e6,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=200)
    #: Unique by integer percent: two points inside one percent share a
    #: result key, which ``percentiles`` rejects (tested by name below).
    _points = st.lists(st.floats(min_value=0.0, max_value=1.0,
                                 allow_nan=False),
                       min_size=1, max_size=5,
                       unique_by=lambda p: int(p * 100))

    @given(samples=_samples, points=_points)
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_oracle(self, samples, points):
        result = percentiles(samples, points=tuple(points))
        for p in points:
            assert result[f"p{int(p * 100)}"] == _oracle_percentile(samples, p)
        assert result["max"] == max(samples)
        assert result["count"] == len(samples)
        assert result["mean"] == sum(sorted(samples)) / len(samples)

    @given(samples=_samples)
    @settings(max_examples=100, deadline=None)
    def test_edges_and_monotonicity(self, samples):
        result = percentiles(samples, points=(0.0, 0.5, 1.0))
        ordered = sorted(samples)
        assert result["p0"] == ordered[0]  # p0 is the minimum
        assert result["p100"] == ordered[-1] == result["max"]
        assert result["p0"] <= result["p50"] <= result["p100"]
        # Every reported percentile is an actual sample (nearest rank
        # never interpolates).
        assert {result["p0"], result["p50"], result["p100"]} <= set(ordered)

    def test_points_inside_one_percent_are_rejected(self):
        """The pair Hypothesis found: both points key as ``p78``, and the
        first used to read back the second's rank."""
        samples = [0.0] * 12 + [1.0] * 4
        with pytest.raises(ValueError, match=r"0\.78125.*0\.78094.*'p78'"):
            percentiles(samples, points=(0.78125, 0.7809448242187501))
        with pytest.raises(ValueError, match=r"0\.99.*0\.999.*'p99'"):
            percentiles(samples, points=(0.99, 0.999))
        with pytest.raises(ValueError):  # checked before the empty shortcut
            percentiles([], points=(0.5, 0.5))

    def test_single_sample_all_points_collapse(self):
        result = percentiles([3.25], points=(0.0, 0.25, 0.5, 0.99, 1.0))
        for key in ("p0", "p25", "p50", "p99", "p100"):
            assert result[key] == 3.25

    def test_ties_report_the_tied_value(self):
        result = percentiles([1.0] * 7 + [2.0] * 3, points=(0.5, 0.7, 0.9))
        assert result["p50"] == 1.0
        assert result["p70"] == 1.0  # rank 7 of 10 is the last 1.0
        assert result["p90"] == 2.0
