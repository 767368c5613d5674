"""What a pass hands back, and its measurements under the catalogue's
names.  (Imports nothing of ``repro``.)"""

from __future__ import annotations

import hashlib
import json
import resource
from dataclasses import dataclass, field
from typing import Any

from .hostclock import HostClock
from .metrics import PER_LAYER
from .stats import percentile, tail


@dataclass
class RawPass:
    """What one pass of any workload hands to :func:`measure`."""

    #: The world is built (service: listening, proposers welcomed,
    #: audience attached): where ``setup_s`` ends.
    t_ready: float
    #: The window ``wall_s`` covers, and the one ``rounds_per_s`` divides
    #: the simulated rounds by.
    wall: tuple[float, float]
    stepping: tuple[float, float]
    rounds: int
    #: One ``(start, end)`` per decision a client (or the stepping loop)
    #: waited for.
    latencies: list[tuple[float, float]]
    #: Decisions delivered: what ``decisions_per_s`` counts.
    decisions: int
    ops_attempted: int
    ops_failed: int
    #: Every requested invariant's verdict.
    invariants: dict[str, str]
    #: Simulated statistics; their canonical JSON is the pass's digest.
    stats: dict[str, Any]
    #: Host seconds and counts per layer seam (traced passes only), and
    #: phases only the harness can see.
    layers: dict[str, float] = field(default_factory=dict)
    #: Named host intervals converted like ``wall`` (``experiment.*``).
    phases: dict[str, tuple[float, float]] = field(default_factory=dict)


def digest(stats: dict[str, Any]) -> str:
    """sha256 over the canonical JSON of a pass's simulated statistics."""
    blob = json.dumps(stats, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def measure(raw: RawPass, clock: HostClock, spawned_at: float) -> dict[str, Any]:
    """One pass's result record: both metric families, the correctness
    evidence, and nothing that is a raw timestamp."""
    wall_s = clock.seconds(*raw.wall)
    stepping_s = clock.seconds(*raw.stepping)
    latencies_ms = [clock.seconds(a, b) * 1e3 for a, b in raw.latencies]
    tail_pct, tail_ms = tail(latencies_ms)
    end_to_end = {
        "setup_s": clock.seconds(spawned_at, raw.t_ready),
        "wall_s": wall_s,
        "rounds_per_s": raw.rounds / stepping_s,
        "decisions_per_s": raw.decisions / wall_s,
        "decision_latency_p50_ms": percentile(latencies_ms, 50.0),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }

    per_layer = dict.fromkeys((name for name, *_ in PER_LAYER), 0.0)
    # Layer proxies accumulate host seconds inside the stepping window;
    # one factor for the window converts them.
    factor = clock.speed_factor(*raw.stepping)
    for name, value in raw.layers.items():
        per_layer[name] = value / factor if name.endswith("_s") else value
    for name, window in raw.phases.items():
        per_layer[name] = clock.seconds(*window)
    if raw.phases:
        per_layer["step.self_s"] = (
            per_layer["experiment.step_s"]
            - per_layer["net.channel.deliver_s"]
            - per_layer["contention.advise_s"]
            - per_layer["contention.feedback_s"]
            - per_layer["net.mobility.position_s"])
    else:
        per_layer["service.loop.outside_tick_s"] = (
            wall_s - per_layer["service.driver.tick_s"])
    if per_layer["contention.contenders"]:
        per_layer["contention.grant_ratio"] = (
            per_layer["contention.granted"]
            / per_layer["contention.contenders"])
    per_layer.update({name: value for name, value in raw.stats.items()
                      if name.startswith("sim.")})
    per_layer.update({
        "latency.tail_ms": tail_ms,
        "latency.tail_percentile": tail_pct,
        "latency.samples": len(latencies_ms),
        "host.speed_factor": clock.speed_factor(*raw.wall),
        "host.raw_wall_s": raw.wall[1] - raw.wall[0],
        "host.calibration_samples": clock.samples,
    })
    return {
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "ops_attempted": raw.ops_attempted,
        "ops_failed": raw.ops_failed,
        "invariants": raw.invariants,
        "stats": raw.stats,
        "digest": digest(raw.stats),
    }
