"""Seeds drive the inputs; proxies and clients stay honest."""

import pickle

import pytest

from repro.contention import LeaderElectionCM, RegionalCM
from repro.geometry import Point
from repro.net import Channel, OrbitMobility, RadioSpec, RandomLossAdversary

from perfbench.harness import run_pass
from perfbench.hostclock import HostClock
from perfbench.service import check_decisions
from perfbench.trace import (
    ContentionTotals,
    MobilityTotals,
    TimedAdversary,
    TimedCM,
    TimedChannel,
    TimedMobility,
)
from perfbench.metrics import WORKLOADS
from perfbench.workloads import SeededProposals, make_inputs


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_changes_inputs_and_digest(workload):
    def spec_bytes(seed):
        return pickle.dumps(make_inputs(workload, seed, smoke=True).spec)

    assert spec_bytes(1) == spec_bytes(1)
    assert spec_bytes(1) != spec_bytes(2)
    first, again, other = (run_pass(workload, seed, trace=False, smoke=True)
                           for seed in (1, 1, 2))
    assert first["digest"] == again["digest"]
    assert first["digest"] != other["digest"]
    assert first["ops_failed"] == other["ops_failed"] == 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_pass_computes_what_an_untraced_one_does(workload):
    untraced = run_pass(workload, 3, trace=False, smoke=True)
    traced = run_pass(workload, 3, trace=True, smoke=True)
    assert traced["digest"] == untraced["digest"]
    assert traced["stats"] == untraced["stats"]
    assert traced["invariants"] == untraced["invariants"]


def _public(obj):
    return [name for name in dir(obj) if not name.startswith("__")]


def _same(a, b):
    """Equal values, or bound methods of the same object and function."""
    if getattr(a, "__self__", None) is not None and hasattr(a, "__func__"):
        return a.__self__ is getattr(b, "__self__", None) \
            and a.__func__ is b.__func__
    return a is b or a == b


@pytest.mark.parametrize("build, timed", [
    (lambda clock: (ch := Channel(RadioSpec(r1=1.0, r2=1.5)),
                    TimedChannel(ch, clock)),
     {"deliver", "deliver_batch"}),
    (lambda clock: (cm := LeaderElectionCM(stable_round=3),
                    TimedCM(cm, clock, ContentionTotals())),
     {"advise", "feedback"}),
    (lambda clock: (cm := RegionalCM(location=Point(0.0, 0.0),
                                     region_radius=0.25,
                                     locate=lambda node: Point(0.0, 0.0)),
                    TimedCM(cm, clock, ContentionTotals())),
     {"advise", "feedback"}),
    (lambda clock: (adv := RandomLossAdversary(p_drop=0.1, seed=4),
                    TimedAdversary(adv, clock)),
     {"drops"}),
    (lambda clock: (mob := OrbitMobility(Point(1.0, 2.0), 0.1, 0.01),
                    TimedMobility(mob, MobilityTotals(), clock)),
     {"position_at"}),
])
def test_proxy_forwards_every_attribute(build, timed):
    clock = HostClock()
    inner, proxy = build(clock)
    for name in _public(inner):
        if name in timed:
            assert callable(getattr(proxy, name))
        elif name == "_abc_impl":
            continue  # ABC bookkeeping of the proxy's own class
        else:
            assert _same(getattr(inner, name), getattr(proxy, name)), name
    with pytest.raises(AttributeError):
        proxy.no_such_attribute


def test_timed_calls_return_the_inner_result_and_count():
    clock = HostClock()
    totals = ContentionTotals()
    cm = TimedCM(LeaderElectionCM(), clock, totals)
    assert cm.advise(5, [7, 3, 9]) == frozenset({3})
    cm.feedback(5, active=frozenset({3}), collided=False)
    assert (totals.calls, totals.contenders, totals.granted) == (1, 3, 1)
    assert totals.advise_s > 0.0 and totals.feedback_s > 0.0

    mobility = MobilityTotals()
    orbit = OrbitMobility(Point(1.0, 2.0), 0.1, 0.01)
    proxy = TimedMobility(orbit, mobility, clock)
    assert proxy.position_at(17) == orbit.position_at(17)
    assert proxy.max_speed() == 0.01 and proxy.moved_in(3) is True
    assert mobility.calls == 1


PROPOSALS = SeededProposals("s0001n")


def _decisions(instances):
    return {k: (f"s0001n0.{k:06d}", "ok") for k in range(1, instances + 1)}


def test_client_accepts_default_and_acked_values():
    decisions = _decisions(5)
    decisions[3] = ("s0001nc1.000002", "ok")
    acked = {3: ["s0001nc0.000002", "s0001nc1.000002"]}
    assert check_decisions(decisions, acked, PROPOSALS, 5) == 0


def test_client_rejects_a_wrong_value_decision():
    decisions = _decisions(5)
    # Acked for instance 3, but something else was decided there.
    acked = {3: ["s0001nc0.000002"]}
    assert check_decisions(decisions, acked, PROPOSALS, 5) == 1
    # Nobody was acked for instance 4, yet a non-default value won.
    decisions[3] = ("s0001nc0.000002", "ok")
    decisions[4] = ("s0001nc0.000009", "ok")
    assert check_decisions(decisions, acked, PROPOSALS, 5) == 1
    # Another seed's (or instance's) default proposal is not ours.
    decisions[4] = ("s0002n0.000004", "ok")
    assert check_decisions(decisions, acked, PROPOSALS, 5) == 1
    decisions[4] = ("s0001n0.000005", "ok")
    assert check_decisions(decisions, acked, PROPOSALS, 5) == 1


def test_client_rejects_missing_and_disagreeing_decisions():
    decisions = _decisions(5)
    del decisions[2]
    decisions[5] = (decisions[5][0], "violated: nodes 1 and 2 differ")
    assert check_decisions(decisions, {}, PROPOSALS, 5) == 2
