"""The spec checkers on a real run's output logs, read as records.

``check_validity`` and ``check_agreement`` read a slotted core's log
view through ``log_records``: a chain-form output is its
``HistoryChain`` link, and a :class:`History` is built only where a
comparison needs one.  On a small lossy CHAP cluster (seeded loss until
``rcf`` mid-run, so the logs hold ⊥ rows, forked members and merged
prefixes) this pins:

* a mutation corpus — a corrupted proposal, a member's chain record
  replaced by a diverging link, an output written verbatim through the
  view — that both checkers report identically through the views and
  through ``list(view)`` of every member, on every corner of the core
  and history switches;
* a count gate: a ``finish()`` whose validity and agreement checks pass
  builds no :class:`History` while the verdicts are extracted.
"""

from __future__ import annotations

import dataclasses

import pytest

from _switches import corners
from repro import CHA, ClusterWorld, ExperimentSpec, WorkloadSpec
from repro.core import History, check_agreement, check_validity
from repro.core.slotted import SlottedChaCore
from repro.errors import SpecViolation
from repro.experiment import EnvironmentSpec, MetricsSpec
from repro.experiment import runner
from repro.experiment.runner import ExperimentStepper
from repro.net import RandomLossAdversary
from repro.types import BOTTOM

pytestmark = pytest.mark.fast

INSTANCES = 30


def _spec(**metrics) -> ExperimentSpec:
    return ExperimentSpec(
        protocol=CHA(), world=ClusterWorld(n=5, rcf=3 * INSTANCES // 2),
        environment=EnvironmentSpec(
            adversary=RandomLossAdversary(p_drop=0.2, seed=7)),
        workload=WorkloadSpec(instances=INSTANCES), keep_trace=False,
        **metrics)


def _outcome(fn, *args, **kwargs):
    try:
        return ("ok", fn(*args, **kwargs))
    except SpecViolation as exc:
        return ("violation", str(exc), repr(exc.context))


def _verdicts(processes, switches):
    """Both checkers' outcomes, through the logs as the cores hand them
    out and through ``list`` of every member's log."""
    proposals = {node: proc.proposals_made for node, proc in processes.items()}
    views = {node: proc.outputs for node, proc in processes.items()}
    lists = {node: list(log) for node, log in views.items()}
    return [
        [_outcome(check_validity, logs, proposals),
         _outcome(check_agreement, logs, switches=switches),
         _outcome(check_agreement, logs, exhaustive=True, switches=switches)]
        for logs in (views, lists)
    ]


def _last_decided(log):
    """``(index, instance, history)`` of the log's last output that
    includes an instance."""
    for i in range(len(log) - 1, -1, -1):
        k, out = log[i]
        if out is not BOTTOM and len(out):
            return i, k, out
    raise AssertionError("no decided output")


def _corrupt_proposal(processes):
    _, _, out = _last_decided(processes[0].outputs)
    at = out.last_included()
    for proc in processes.values():
        if proc.proposals_made.get(at) == out(at):
            proc.proposals_made[at] = "ghost"
            return


def _diverging_link(processes):
    """Member 1's last decided output, its top entry swapped for another
    node's proposal at that instance (still valid, no longer agreeing)."""
    i, k, out = _last_decided(processes[1].outputs)
    link = out._as_chain()
    other = next(value for proc in processes.values()
                 if (value := proc.proposals_made.get(link.anchor))
                 not in (None, link.value))
    diverging = link.parent.child(link.anchor, other)
    core = processes[1].core
    if isinstance(core, SlottedChaCore):
        core._owned().out_recs[i] = diverging
    else:
        core.outputs[i] = (k, History._from_chain(k, diverging))


def _write_verbatim(processes):
    log = processes[2].outputs
    i, k, out = _last_decided(log)
    log[i] = (k, History(k, {**dict(out.items()),
                             out.last_included(): "ghost"}))


@pytest.mark.parametrize("switches", corners("core", "history"),
                         ids=lambda s: f"core={s.core}-history={s.history}")
@pytest.mark.parametrize("mutate, fails", [
    (None, (False, False)),
    (_corrupt_proposal, (True, False)),
    (_diverging_link, (False, True)),
    (_write_verbatim, (True, True)),
], ids=["none", "proposal", "diverging-link", "verbatim"])
def test_views_and_lists_report_the_same_violation(switches, mutate, fails):
    result = runner.run(dataclasses.replace(_spec(), switches=switches))
    processes = result.processes
    logs = [proc.outputs for proc in processes.values()]
    assert any(out is BOTTOM for log in logs for _, out in log)
    if mutate is not None:
        mutate(processes)
    through_views, through_lists = _verdicts(processes, switches)
    assert through_views == through_lists
    validity, agreement, exhaustive = through_views
    assert (validity[0], agreement[0]) == tuple(
        "violation" if fail else "ok" for fail in fails)
    assert exhaustive[0] == agreement[0]


def test_a_passing_finish_builds_no_history(monkeypatch):
    """Count, not time: with the checks passing, ``_extract`` reads
    every output as its chain link, so no :class:`History` is built."""
    built = {"_from_chain": 0, "__init__": 0}
    extracting = [False]
    from_chain, init = History._from_chain.__func__, History.__init__

    def counted_from_chain(cls, *args):
        built["_from_chain"] += extracting[0]
        return from_chain(cls, *args)

    def counted_init(self, *args):
        built["__init__"] += extracting[0]
        init(self, *args)

    def counted_extract(*args):
        extracting[0] = True
        try:
            return extract(*args)
        finally:
            extracting[0] = False

    extract = runner._extract
    monkeypatch.setattr(History, "_from_chain", classmethod(counted_from_chain))
    monkeypatch.setattr(History, "__init__", counted_init)
    monkeypatch.setattr(runner, "_extract", counted_extract)
    result = ExperimentStepper(_spec(metrics=MetricsSpec(
        invariants=("agreement", "validity")))).finish()
    assert result.invariants == {"agreement": "ok", "validity": "ok"}
    assert any(out is BOTTOM for log in result.outputs.values()
               for _, out in log)
    assert built == {"_from_chain": 0, "__init__": 0}
