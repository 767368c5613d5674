"""Parent side: start passes one at a time, then judge and summarise.

Both commands go through here — ``perfbench/run.py`` (one workload for
``--seconds``) and ``python -m perfbench`` (every workload, ``--repeats``
passes each).  This module imports nothing of ``repro``: every pass runs
in a fresh :mod:`perfbench.onepass` child, and the parent only waits
for it, so there are never two busy processes.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .metrics import END_TO_END, PER_LAYER, UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: The seed ``expected.json`` holds digests for.
DEFAULT_SEED = 1

#: A pass takes a few seconds; one that takes this long is hung.
PASS_TIMEOUT_S = 150


class PassFailed(RuntimeError):
    """A child pass exited non-zero, hung, or printed no result."""


def require_program() -> None:
    """The benchmark measures the checkout's own ``src/repro``; without
    it there is nothing to run (and an installed copy must not stand in)."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: {ROOT / 'src' / 'repro'} not found — run from a "
            "checkout that holds the program under src/")


def run_pass(workload: str, seed: int, *, trace: bool,
             smoke: bool = False) -> dict[str, Any]:
    """One fresh child process, one pass; returns its result record.

    The child measures ``setup_s`` from ``--spawned-at``, which leans on
    ``time.perf_counter()`` being one system-wide monotonic clock (it is
    on Linux)."""
    command = [
        sys.executable, str(HERE / "onepass.py"),
        "--workload", workload, "--seed", str(seed),
        "--trace", str(int(trace)),
        "--spawned-at", repr(time.perf_counter()),
    ]
    if smoke:
        command.append("--smoke")
    # A fixed hash seed keeps set and dict-of-str layouts, and with them
    # the interpreter's own speed, the same from pass to pass.
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              env=env, cwd=ROOT, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise PassFailed(f"{workload}: pass exceeded {PASS_TIMEOUT_S}s") from None
    if done.returncode != 0:
        raise PassFailed(f"{workload}: pass exited with {done.returncode}")
    lines = done.stdout.splitlines()
    if not lines:
        raise PassFailed(f"{workload}: pass printed no result")
    return json.loads(lines[-1])


def host_stamp() -> dict[str, Any]:
    """What a committed report says about the machine it was made on."""
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "machine": platform.machine()}


@dataclass
class WorkloadResult:
    """Every pass of one workload at one seed, judged and summarised."""

    workload: str
    seed: int
    smoke: bool
    passes: list[dict[str, Any]]
    #: name -> {"value": median, "min", "max", "n", "unit"}; end-to-end
    #: from the untraced passes only, per-layer from the traced ones.
    end_to_end: dict[str, dict[str, Any]] = field(default_factory=dict)
    per_layer: dict[str, dict[str, Any]] = field(default_factory=dict)
    ops_attempted: int = 0
    ops_failed: int = 0
    digest: str = ""
    #: Why the outputs are not trusted (empty = correct).
    problems: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems

    def as_dict(self) -> dict[str, Any]:
        return {
            "workload": self.workload, "seed": self.seed, "smoke": self.smoke,
            "passes": {"untraced": sum(not p["traced"] for p in self.passes),
                       "traced": sum(p["traced"] for p in self.passes)},
            "correct": self.correct, "problems": self.problems,
            "ops_attempted": self.ops_attempted,
            "ops_failed": self.ops_failed,
            "digest": self.digest,
            "end_to_end": self.end_to_end, "per_layer": self.per_layer,
        }


def _summary(passes: list[dict[str, Any]], family: str,
             names: list[str]) -> dict[str, dict[str, Any]]:
    out = {}
    for name in names:
        values = [p[family][name] for p in passes]
        out[name] = {"value": statistics.median(values), "unit": UNITS[name],
                     "min": min(values), "max": max(values), "n": len(values)}
    return out


def evaluate(workload: str, seed: int, passes: list[dict[str, Any]], *,
             smoke: bool = False) -> WorkloadResult:
    """Judge correctness over all passes; summarise each metric family
    from the passes that may speak for it."""
    result = WorkloadResult(workload, seed, smoke, passes)
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    result.ops_attempted = sum(p["ops_attempted"] for p in passes)
    result.ops_failed = sum(p["ops_failed"] for p in passes)
    result.digest = passes[0]["digest"]

    problems = result.problems
    for index, p in enumerate(passes):
        for name, verdict in p["invariants"].items():
            if verdict != "ok":
                problems.append(f"pass {index}: invariant {name}: {verdict}")
        if not p["stats"]["final_histories_equal"]:
            problems.append(f"pass {index}: nodes ended with different "
                            "histories")
        if p["digest"] != result.digest:
            kind = "traced" if p["traced"] else "untraced"
            problems.append(f"pass {index} ({kind}): digest {p['digest'][:12]} "
                            f"differs from pass 0's {result.digest[:12]}")
    if seed == DEFAULT_SEED:
        expected = json.loads((HERE / "expected.json").read_text())
        want = expected.get(f"{workload}@smoke" if smoke else workload)
        if want is not None and want != result.digest:
            problems.append(f"digest {result.digest[:12]} differs from "
                            f"expected.json's {want[:12]}")

    if untraced:
        result.end_to_end = _summary(
            untraced, "end_to_end", [name for name, *_ in END_TO_END])
    if traced:
        result.per_layer = _summary(
            traced, "per_layer", [name for name, *_ in PER_LAYER])
        if untraced:
            # Traced over untraced wall: what the proxies cost.
            ratio = (statistics.median(p["end_to_end"]["wall_s"]
                                       for p in traced)
                     / result.end_to_end["wall_s"]["value"])
            result.per_layer["trace.overhead_ratio"].update(
                value=ratio, min=ratio, max=ratio, n=1)
    return result
