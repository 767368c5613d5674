"""One pass of a batch workload (``cha-*``, ``vi-*``): build, step one
decision at a time, finish — then check what the program computed.

Everything returned here is raw: ``time.perf_counter()`` timestamps and
simulated statistics.  :func:`perfbench.record.measure` converts the timestamps
to corrected seconds and names the metrics.
"""

from __future__ import annotations

import hashlib
import json
from time import perf_counter
from typing import Any

from repro import BOTTOM
from repro.experiment import ExperimentResult, ExperimentStepper, VIEmulation

from .record import RawPass
from .trace import Tracer
from .workloads import BatchInputs


def run_batch(inputs: BatchInputs, tracer: Tracer | None) -> RawPass:
    spec = inputs.spec
    unit = inputs.ticks_per_decision
    t_begin = perf_counter()
    stepper = ExperimentStepper(
        spec, instrument=tracer.instrument if tracer is not None else None)
    t_ready = perf_counter()
    decisions, leftover = divmod(stepper.total_ticks, unit)
    if leftover:
        raise ValueError(f"workload of {stepper.total_ticks} ticks is not a "
                         f"whole number of {unit}-tick decisions")
    step = stepper.step
    marks = [t_ready]
    for _ in range(decisions):
        step(unit)
        marks.append(perf_counter())
    t_stepped = marks[-1]
    result = stepper.finish()
    t_done = perf_counter()

    if isinstance(spec.protocol, VIEmulation):
        attempted, failed, stats = vi_outcome(result)
    else:
        attempted, failed, stats = cha_outcome(result)
    stats.update({f"sim.{name}": result.metrics[name]
                  for name in ("rounds", "total_broadcasts",
                               "max_message_size")})
    return RawPass(
        t_ready=t_ready,
        wall=(t_begin, t_done), stepping=(t_ready, t_stepped),
        rounds=result.simulator.current_round,
        latencies=list(zip(marks, marks[1:])),
        decisions=attempted - failed,
        ops_attempted=attempted, ops_failed=failed,
        invariants=dict(result.invariants), stats=stats,
        layers=tracer.layers() if tracer is not None else {},
        phases={"experiment.build_s": (t_begin, t_ready),
                "experiment.step_s": (t_ready, t_stepped),
                "experiment.finish_s": (t_stepped, t_done)},
    )


def cha_outcome(result: ExperimentResult) -> tuple[int, int, dict[str, Any]]:
    """Ops are the instances that begin at or after ``rcf``: the paper
    promises each of them decides at every node."""
    spec = result.spec
    instances = spec.workload.instances
    first_stable = -(-spec.world.rcf // 3) + 1
    outputs = result.outputs
    undecided: set[int] = set()
    bottoms = total = last_bottom = 0
    for log in outputs.values():
        for k, out in log:
            total += 1
            if out is BOTTOM:
                bottoms += 1
                last_bottom = max(last_bottom, k)
                if k >= first_stable:
                    undecided.add(k)
    # Every node's last output is its final history; chains are shared,
    # so comparing all of them to node 0's is cheap.
    finals = {node: log[-1][1] for node, log in outputs.items()}
    final0 = finals[0]
    values0 = [] if final0 is BOTTOM else [[k, v] for k, v in final0.items()]
    stats = {
        "sim.decided_instances": len(values0),
        "sim.bottom_rate": bottoms / total,
        # The first instance from which no node ever output bottom again.
        "sim.convergence_instance": last_bottom + 1,
        "sim.emulation_gaps": 0,
        "final_histories_equal": all(h == final0 for h in finals.values()),
        "decided_values_sha256": hashlib.sha256(
            json.dumps(values0).encode("utf-8")).hexdigest(),
    }
    return instances - first_stable + 1, len(undecided), stats


def vi_outcome(result: ExperimentResult) -> tuple[int, int, dict[str, Any]]:
    """Ops are (site, virtual round) pairs; one fails when nobody
    emulated the site's virtual node in that round."""
    world = result.world
    gaps = sum(result.metrics["emulation_gaps"].values())
    states = {str(site.vn_id): sorted(set(map(repr, world.vn_states(
        site.vn_id).values()))) for site in world.sites}
    live = sum(outcome.live for outcomes in world.outcomes.values()
               for outcome in outcomes)
    total = len(world.sites) * world.virtual_rounds_run
    stats = {
        "sim.decided_instances": live,
        "sim.bottom_rate": 1.0 - live / total,
        # The first virtual round from which every site stayed live.
        "sim.convergence_instance": 1 + max(
            (o.virtual_round for outcomes in world.outcomes.values()
             for o in outcomes if not o.live), default=-1),
        "sim.emulation_gaps": gaps,
        # One state per site: every replica of a virtual node agrees.
        "final_histories_equal": all(len(s) == 1 for s in states.values()),
        "decided_values_sha256": hashlib.sha256(
            json.dumps(states, sort_keys=True).encode("utf-8")).hexdigest(),
    }
    return total, gaps, stats
