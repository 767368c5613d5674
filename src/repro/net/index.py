"""Spatial-grid neighbor index for the broadcast channel's fast path.

The reference channel resolves every round by scanning all (receiver,
sender) pairs — O(n·s) exact distance tests.  The fast path instead keeps
every node bucketed in a uniform grid of cell size ``R2`` and, for each
*sender*, visits only the 3x3 block of cells that can contain nodes within
``R2`` — near-O(senders) work when the deployment is spread out, and a
much smaller constant even when it is not (the inner loop runs on
unboxed float pairs instead of :meth:`repro.geometry.Point.within` calls).

Two properties matter for the byte-identical guarantee the differential
suite enforces (``tests/net/test_differential.py``):

* **Exactness** — the grid only *preselects* candidates; membership is
  always decided by the same squared-distance predicate the reference
  path uses (``dx*dx + dy*dy <= radius*radius`` on the same floats), so
  boundary cases resolve identically.
* **Conservative cell cover** — ``floor`` is monotone, so every node
  within ``radius`` of a query point lies in one of the covered cells;
  the grid can over-approximate but never miss.

Updates are incremental: :meth:`SpatialGridIndex.update` diffs the new
position map against the previous round and touches only nodes that
appeared, vanished, or actually moved, so static (and slow-mobility)
worlds pay a dict-lookup sweep instead of a rebuild.

A node is bucketed at its *snapshot*.  By default any move re-places it;
with a ``skin`` only a drift past ``skin / 2`` does, and a caller widens
its queries by the skin (the channel's reach memo).
"""

from __future__ import annotations

from math import floor
from typing import Iterator, Mapping

from ..geometry import Point
from ..types import NodeId

#: A bucketed node: (node id, x, y) with coordinates unboxed for the
#: channel's inner loop.
_Entry = tuple[NodeId, float, float]

#: A grid cell's integer coordinates.
_CellKey = tuple[int, int]


class SpatialGridIndex:
    """Uniform-grid index over node positions, incrementally maintained."""

    __slots__ = ("_cell", "_inv_cell", "_cells", "_where", "_live")

    def __init__(self, cell_size: float) -> None:
        if cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {cell_size}")
        self._cell = cell_size
        self._inv_cell = 1.0 / cell_size
        #: (cx, cy) -> {node: (node, x, y)} — the value tuples carry the
        #: coordinates so candidate scans never re-hash into ``_where``.
        self._cells: dict[_CellKey, dict[NodeId, _Entry]] = {}
        #: node -> (x, y, cx, cy): its snapshot and the snapshot's bucket.
        self._where: dict[NodeId, tuple[float, float, int, int]] = {}
        #: node -> the live position of the last update.
        self._live: dict[NodeId, Point] = {}

    def __len__(self) -> int:
        return len(self._where)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._where

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def update(self, positions: Mapping[NodeId, Point], *,
               skin: float = 0.0,
               resnapped: list | None = None) -> int:
        """Synchronise the index with ``positions``; returns nodes moved.

        Nodes absent from ``positions`` are evicted, new nodes inserted,
        and nodes more than ``skin / 2`` from their snapshot (any move,
        at 0) re-snapshotted; the count includes every position change.
        ``resnapped`` gets ``(node, old x, old y)`` for each of those
        (``None, None`` for an arrival).  A static world costs one dict
        lookup and identity test per node and allocates nothing.
        """
        where = self._where
        cells = self._cells
        live = self._live
        known_before = len(where)
        inv = self._inv_cell
        half_sq = 0.25 * skin * skin * (1.0 - 1e-9)  # with a float margin
        moved = 0
        seen_known = 0
        live_get = live.get
        for node, point in positions.items():
            last = live_get(node)
            if last is not None:
                seen_known += 1
                if last is point:
                    continue
                x, y = point.x, point.y
                live[node] = point
                if last.x == x and last.y == y:
                    continue
                moved += 1
                prev = where[node]
                dx = x - prev[0]
                dy = y - prev[1]
                if half_sq and dx * dx + dy * dy <= half_sq:
                    continue
                if resnapped is not None:
                    resnapped.append((node, prev[0], prev[1]))
                cx, cy = floor(x * inv), floor(y * inv)
                if prev[2] == cx and prev[3] == cy:
                    # Moved within its cell: refresh coordinates in place.
                    where[node] = (x, y, cx, cy)
                    cells[cx, cy][node] = (node, x, y)
                    continue
                old = cells[prev[2], prev[3]]
                del old[node]
                if not old:
                    del cells[prev[2], prev[3]]
            else:
                x, y = point.x, point.y
                live[node] = point
                moved += 1
                if resnapped is not None:
                    resnapped.append((node, None, None))
                cx, cy = floor(x * inv), floor(y * inv)
            where[node] = (x, y, cx, cy)
            bucket = cells.get((cx, cy))
            if bucket is None:
                bucket = cells[cx, cy] = {}
            bucket[node] = (node, x, y)
        if seen_known < known_before:
            # Some previously bucketed nodes are absent from ``positions``.
            for node in [n for n in where if n not in positions]:
                if resnapped is not None:
                    x, y = where[node][:2]
                    resnapped.append((node, x, y))
                self._evict(node)
                moved += 1
        return moved

    def clear(self) -> None:
        self._cells.clear()
        self._where.clear()
        self._live.clear()

    def _evict(self, node: NodeId) -> None:
        del self._live[node]
        x, y, cx, cy = self._where.pop(node)
        bucket = self._cells[cx, cy]
        del bucket[node]
        if not bucket:
            del self._cells[cx, cy]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def buckets_overlapping(self, x: float, y: float, radius: float
                            ) -> Iterator[tuple[_CellKey, dict[NodeId, _Entry]]]:
        """Occupied ``(cell key, bucket)`` pairs overlapping the query disk.

        A superset cover of the true neighborhood; callers iterate each
        bucket's ``.values()`` and apply the exact distance predicate
        themselves (the channel inlines it into unboxed float math).  The
        key names the cell for as long as the index is not updated, so a
        caller can keep per-cell notes across queries (the channel counts
        each cell's settled residents under it).
        """
        inv = self._inv_cell
        cells = self._cells
        cx_lo, cx_hi = floor((x - radius) * inv), floor((x + radius) * inv)
        cy_lo, cy_hi = floor((y - radius) * inv), floor((y + radius) * inv)
        for cx in range(cx_lo, cx_hi + 1):
            for cy in range(cy_lo, cy_hi + 1):
                key = (cx, cy)
                bucket = cells.get(key)
                if bucket is not None:
                    yield key, bucket

    def candidates(self, x: float, y: float, radius: float) -> Iterator[_Entry]:
        """All bucketed nodes in cells overlapping the query disk."""
        for _, bucket in self.buckets_overlapping(x, y, radius):
            yield from bucket.values()

    def neighbors_within(self, center: Point, radius: float) -> list[NodeId]:
        """Node ids within ``radius`` of ``center`` (sorted, exact).

        Uses the same squared-distance predicate as
        :meth:`repro.geometry.Point.within`, so results agree with a full
        scan bit-for-bit.
        """
        x, y = center.x, center.y
        r_sq = radius * radius
        out = []
        for node, nx, ny in self.candidates(x, y, radius):
            dx = nx - x
            dy = ny - y
            if dx * dx + dy * dy <= r_sq:
                out.append(node)
        out.sort()
        return out

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------

    def cell_count(self) -> int:
        """Number of occupied grid cells (diagnostics / tests)."""
        return len(self._cells)

    def coords_of(self, node: NodeId) -> tuple[float, float]:
        """Unboxed snapshot coordinates of a bucketed node."""
        entry = self._where[node]
        return entry[0], entry[1]
