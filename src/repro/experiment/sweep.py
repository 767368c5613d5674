"""Parameter-grid sweeps over one declarative spec.

``sweep(spec, grid)`` runs the cartesian product of a parameter grid and
returns one :class:`SweepPoint` per combination, in deterministic
row-major order of the grid (first key varies slowest).  Grid keys are
``__``-separated field paths into the spec, exactly as accepted by
:meth:`ExperimentSpec.override`::

    points = sweep(
        base_spec,
        {"world__n": (3, 6, 12), "workload__instances": (50, 200)},
        workers=4,
    )

With ``workers > 1`` the points fan out over a ``multiprocessing`` pool.
Every point — serial or parallel — runs against a **private copy** of the
spec (``copy.deepcopy`` serially, pickling into the worker in parallel),
so stateful environment components (seeded adversaries, contention
managers, clients) start fresh at every point and the parallel results
are byte-identical to the serial ones.

Workers return only the picklable :class:`SweepPoint` (overrides +
metrics + invariant verdicts), never live simulators, so sweeps stay
cheap to ship between processes.  Sweep runs skip trace retention
(``keep_trace=False``): every registry metric is collected online.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import multiprocessing
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from ..errors import ConfigurationError
from .spec import ExperimentSpec


@dataclass(frozen=True)
class SweepPoint:
    """One grid point's configuration and results."""

    #: The (path, value) overrides applied to the base spec, in grid order.
    overrides: tuple[tuple[str, Any], ...]
    metrics: dict[str, Any]
    invariants: dict[str, str]

    def __getitem__(self, path: str) -> Any:
        """The override value applied at ``path`` (e.g. ``"world__n"``)."""
        for key, value in self.overrides:
            if key == path:
                return value
        raise KeyError(path)


def expand_grid(grid: Mapping[str, Sequence[Any]]) -> list[dict[str, Any]]:
    """The cartesian product of a grid, in row-major key order."""
    if not grid:
        return [{}]
    keys = list(grid)
    for key, values in grid.items():
        if not isinstance(values, Sequence) or isinstance(values, (str, bytes)):
            raise ConfigurationError(
                f"grid values for {key!r} must be a sequence"
            )
        if len(values) == 0:
            raise ConfigurationError(f"grid axis {key!r} is empty")
    return [
        dict(zip(keys, combo))
        for combo in itertools.product(*(grid[k] for k in keys))
    ]


def pool_context(start_method: str | None = None) -> multiprocessing.context.BaseContext:
    """The multiprocessing context the sweep pool runs under.

    Always an *explicitly named* start method — never the platform
    default, whose identity varies across OS and Python versions and
    would make the serial-vs-parallel byte-identity claim untestable.
    With ``start_method=None`` the preference order is ``fork`` (cheap,
    inherits interning state) then ``spawn`` (universal).
    """
    if start_method is not None:
        return multiprocessing.get_context(start_method)
    for method in ("fork", "spawn"):
        if method in multiprocessing.get_all_start_methods():
            return multiprocessing.get_context(method)
    return multiprocessing.get_context(  # pragma: no cover - exotic platforms
        multiprocessing.get_all_start_methods()[0])


def _run_point(job: tuple[ExperimentSpec, dict[str, Any]]) -> SweepPoint:
    from .runner import run

    base, overrides = job
    spec = base.override(**overrides) if overrides else base
    spec = dataclasses.replace(spec, keep_trace=False)
    result = run(spec)
    return SweepPoint(
        overrides=tuple(overrides.items()),
        metrics=result.metrics,
        invariants=result.invariants,
    )


def sweep(spec: ExperimentSpec, grid: Mapping[str, Sequence[Any]], *,
          workers: int = 1, start_method: str | None = None) -> list[SweepPoint]:
    """Run ``spec`` across a parameter grid, optionally in parallel.

    ``start_method`` pins the multiprocessing start method (``"fork"`` /
    ``"spawn"`` / ``"forkserver"``); ``None`` picks the
    :func:`pool_context` default.  Results are byte-identical across
    methods — the agreement suite runs both where available.  Points
    ship to the pool with ``chunksize=1`` so long points interleave.
    """
    if workers < 1:
        raise ConfigurationError("workers must be at least 1")
    jobs = [(spec, overrides) for overrides in expand_grid(grid)]
    if workers == 1:
        # Private copy per point, mirroring what pickling gives workers.
        return [_run_point((copy.deepcopy(base), overrides))
                for base, overrides in jobs]
    with pool_context(start_method).Pool(min(workers, len(jobs))) as pool:
        return pool.map(_run_point, jobs, chunksize=1)
