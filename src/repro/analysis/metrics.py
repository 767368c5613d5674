"""Measurement helpers for the experiment tables.

Every benchmark in ``benchmarks/`` is "run a configuration, feed the
result through one of these functions, print a table row".  Keeping the
measurement code here (and under unit test) keeps the benchmarks thin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from ..core.spec import log_bottoms
from ..net.trace import Trace
from ..types import Color, Instance, NodeId

if TYPE_CHECKING:  # pragma: no cover - repro.experiment sits above this
    from ..experiment.result import ExperimentResult


@dataclass(frozen=True)
class SizeStats:
    """Summary of wire message sizes over (a slice of) an execution."""

    count: int
    max: int
    mean: float

    @classmethod
    def of(cls, sizes: Sequence[int]) -> "SizeStats":
        if not sizes:
            return cls(0, 0, 0.0)
        return cls(len(sizes), max(sizes), sum(sizes) / len(sizes))


def message_size_stats(trace: Trace, *, first_round: int = 0,
                       last_round: int | None = None) -> SizeStats:
    """Wire-size stats over the broadcasts in a round window."""
    last = len(trace) if last_round is None else last_round
    sizes = [
        msg.size
        for rec in trace
        if first_round <= rec.round < last
        for _, msg in sorted(rec.broadcasts.items())
    ]
    return SizeStats.of(sizes)


def decided_instances(run: ExperimentResult, node: NodeId) -> int:
    """Instances for which ``node`` output a history (not bottom)."""
    log = run.processes[node].outputs
    return len(log) - log_bottoms(log)


def decision_throughput(run: ExperimentResult, node: NodeId) -> float:
    """Decided instances per real communication round."""
    rounds = run.simulator.current_round
    if rounds == 0:
        return 0.0
    return decided_instances(run, node) / rounds


def rounds_per_decided_instance(run: ExperimentResult, node: NodeId) -> float:
    """Real rounds spent per decided instance (inverse throughput)."""
    decided = decided_instances(run, node)
    if decided == 0:
        return float("inf")
    return run.simulator.current_round / decided


def color_divergence_histogram(run: ExperimentResult) -> dict[int, int]:
    """Instances binned by the maximum shade distance across nodes.

    Property 4 asserts the support of this histogram is ``{0, 1}``.
    """
    histogram: dict[int, int] = {}
    for k in range(1, run.instances + 1):
        colors = list(run.colors_at(k).values())
        if not colors:
            continue
        worst = max(a.shade_distance(b) for a in colors for b in colors)
        histogram[worst] = histogram.get(worst, 0) + 1
    return histogram


def bottom_rate(run: ExperimentResult, node: NodeId) -> float:
    """Fraction of instances for which ``node`` output bottom."""
    log = run.processes[node].outputs
    if not log:
        return 0.0
    return log_bottoms(log) / len(log)


def convergence_instance(run: ExperimentResult) -> Instance | None:
    """The liveness point of the surviving nodes, if any."""
    from ..core.spec import find_liveness_point

    survivors = run.surviving_nodes()
    outputs = run.outputs
    outs = {node: outputs[node] for node in survivors}
    return find_liveness_point(outs, alive=survivors)


def green_fraction_by_window(run: ExperimentResult, window: int) -> list[float]:
    """Per-window fraction of instances any node designated green.

    Visualises the instability -> stability transition for experiment E6.
    """
    fractions = []
    for start in range(1, run.instances + 1, window):
        instances = range(start, min(start + window, run.instances + 1))
        greens = sum(
            any(c is Color.GREEN for c in run.colors_at(k).values())
            for k in instances
        )
        fractions.append(greens / len(instances))
    return fractions
