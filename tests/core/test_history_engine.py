"""Engine-level tests for the incremental history fold.

Covers the reference switch on a whole run and the regression guarantee
that motivated the engine: a protocol run — including its Agreement
check — materialises *no* per-output history dictionaries
(``History.__init__`` is the seed dict-form constructor; the chain
engine bypasses it entirely).
"""

from __future__ import annotations

import pytest

from repro import CHA, ClusterWorld, ExperimentSpec, MetricsSpec, WorkloadSpec
from repro.core import ChaCore, History
from repro.experiment.runner import run
from repro.switches import Switches

pytestmark = pytest.mark.fast


def _count_inits(monkeypatch):
    counter = {"calls": 0}
    seed_init = History.__init__

    def counting_init(self, length, entries):
        counter["calls"] += 1
        seed_init(self, length, entries)

    monkeypatch.setattr(History, "__init__", counting_init)
    return counter


def _cha50_spec(**overrides):
    return ExperimentSpec(
        protocol=CHA(),
        world=ClusterWorld(n=50),
        workload=WorkloadSpec(instances=40),
        metrics=MetricsSpec(invariants=("agreement",)),
        keep_trace=False,
        **overrides,
    )


def test_cha50_run_materialises_no_history_dicts(monkeypatch):
    """The satellite regression: a seeded cha-50 run (with the Agreement
    check that used to rebuild a prefix dict per comparison) performs
    zero dict-form History constructions on the chain engine."""
    counter = _count_inits(monkeypatch)
    result = run(_cha50_spec())
    assert result.invariants == {"agreement": "ok"}
    assert counter["calls"] == 0


def test_cha50_reference_run_still_materialises(monkeypatch):
    """Sanity check of the counter itself: the reference engine builds
    one dict-form History per green output, so the count is O(n * k)."""
    counter = _count_inits(monkeypatch)
    result = run(_cha50_spec(switches=Switches(history=True)))
    assert result.invariants == {"agreement": "ok"}
    assert counter["calls"] >= 50 * 40  # one per node per green instance


def test_prefix_does_not_rebuild_dicts(monkeypatch):
    h = History(5, {1: "a", 3: "c", 5: "e"})
    h._as_chain()  # derive the spine once, outside the counted region
    counter = _count_inits(monkeypatch)
    p = h.prefix(3)
    assert p.length == 3 and p(3) == "c" and not p.includes(5)
    assert h.prefix(4).agrees_with(p)
    assert counter["calls"] == 0


def test_history_pickles_to_canonical_dict_form():
    import pickle

    ballots_core = ChaCore(propose=lambda k: "x", switches=Switches())
    from repro.core.ballot import Ballot
    ballots_core.ballots = {1: Ballot("a", 0), 2: Ballot("b", 1)}
    ballots_core.k = 2
    ballots_core.prev_instance = 2
    chain_backed = ballots_core.current_history()
    dict_built = History(2, {1: "a", 2: "b"})
    assert pickle.dumps(chain_backed) == pickle.dumps(dict_built)
    assert pickle.loads(pickle.dumps(chain_backed)) == chain_backed
