"""Sharded multi-process execution of the batched round engine.

The spatial grid index (:mod:`repro.net.index`) partitions *space*; this
module partitions the *world*: the deployment area is split into
contiguous **cell-column strips** (column width = ``R2``, the same
``floor(x / R2)`` arithmetic the grid index uses), each strip is owned by
one forked worker process, and every round the workers run the batched
engine's send/deliver hot loop over their resident nodes while the
coordinator handles the global, inherently-serial pieces (contention
advice, CM feedback, observers).  Only **boundary-cell payloads** cross
process borders: a sender can reach a receiver in another strip only
from the strip's outermost cell column (two columns apart is already
``> R2`` horizontally), so each worker exports just its edge-column
broadcasts and imports the neighbouring strips' edge columns as ghosts.

Determinism strategy — *compute, don't communicate*:

* **Positions** are never shipped.  Every process (coordinator and each
  worker) derives the full present set and position map through the very
  same :meth:`Simulator._positions_batched` block over its own forked
  mobility models; models are deterministic, so all copies agree to the
  bit, round after round.
* **Ownership** is a pure function of position: ``strip_of(floor(x/R2))``
  against the planned column bounds.  Every process evaluates it
  identically, so border **migrations** are detected everywhere without
  coordination — only the migrating node's process state travels
  (exporter → coordinator → importer, in a fixed order, deadlock-free).
* **Power-on** of a registered-but-dormant node (``start_round`` in the
  future) needs no transfer at all: forked copies are pristine until the
  node first acts, so the owner-at-start-round simply starts using its
  own copy.  Mid-run :meth:`ShardedSimulator.add_node` registers the new
  node on every process (the process/mobility objects must pickle).

Two execution modes, chosen automatically:

* **Mirror mode** (``record_trace=True``, or an observer without
  summary support): the coordinator runs the *full serial engine* itself
  — traces, records, metrics are its own organically-built object
  graphs, byte-identical to a serial run by construction — while the
  workers run the real sharded machinery in parallel and are
  **cross-checked** every round (collision flags, sender sets, per-CM
  feedback) and at finish (per-node protocol state).  This is the
  verification harness the ``shard_differential`` suite leans on; it is
  *not* faster than serial.
* **Fast mode** (``record_trace=False``, summary-capable observers,
  snapshot/restore-capable cores): the coordinator skips process
  dispatch entirely — it only derives positions, runs contention
  advice/feedback over the merged contender lists (exactly the serial
  call shapes), and feeds observers via ``observe_summary``.  At finish
  the workers ship their cores' state home and a canonicalisation walk
  re-unifies the object graph so outputs/metrics pickles match the
  serial engine byte for byte.  This is the bench speed path
  (``cha-10k-shard``).

Gated hard (raise :class:`ConfigurationError`): only the benign
:class:`NoAdversary` (adversary RNG streams are inherently global), only
the stateless :class:`EventuallyAccurateDetector`, and a ``fork``-capable
platform.  ``shards <= 1`` — or a world too narrow to split into two
cell columns — falls back to the serial engine transparently.

Canonicalisation caveat: the walk unifies *equal* strings and ballots
across worker pickle streams, which reproduces the serial object graph
exactly when equal values only arise by flowing through messages (true
for the default per-node-unique proposers).  A workload proposing the
same value string from different nodes may pickle with different (more
shared) memo structure than a serial run; results remain structurally
equal.
"""

from __future__ import annotations

import io
import pickle
from bisect import bisect_right
from dataclasses import dataclass
from math import floor
from typing import Any, Mapping, Sequence

from ..detectors import EventuallyAccurateDetector
from ..errors import ConfigurationError, SimulationError
from ..geometry import Point
from ..types import NodeId, Round
from .adversary import NoAdversary
from .messages import Message, RoundBatch
from .mobility import MobilityModel
from .simulator import Simulator
from .trace import RoundRecord

# ----------------------------------------------------------------------
# Strip planning
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ShardPlan:
    """Contiguous cell-column strips over the deployment's x axis.

    ``bounds[i]`` is the first column owned by strip ``i + 1``; strip 0
    extends to ``-inf`` and the last strip to ``+inf``, so ownership is
    total over any position mobility may ever produce.  ``inv_cell`` is
    ``1 / R2`` — the *same* float the grid index multiplies by, so strip
    and grid cell boundaries agree bit for bit.
    """

    inv_cell: float
    bounds: tuple[int, ...]

    @property
    def shards(self) -> int:
        return len(self.bounds) + 1

    def col_of(self, x: float) -> int:
        return floor(x * self.inv_cell)

    def strip_of_col(self, col: int) -> int:
        return bisect_right(self.bounds, col)

    def strip_of(self, x: float) -> int:
        return bisect_right(self.bounds, floor(x * self.inv_cell))

    def edge_cols(self, strip: int) -> tuple[int | None, int | None]:
        """The strip's outermost owned columns facing each neighbour.

        ``(left, right)`` — ``None`` where there is no neighbour.  Only
        senders positioned exactly in an edge column can reach receivers
        across the border (two columns apart exceeds ``R2``), so these
        are the boundary-export columns.
        """
        left = self.bounds[strip - 1] if strip > 0 else None
        right = self.bounds[strip] - 1 if strip < len(self.bounds) else None
        return left, right


def plan_shards(positions: Sequence[Point], cell_size: float,
                shards: int) -> ShardPlan | None:
    """Balance ``shards`` contiguous column strips by node count.

    ``positions`` are the planning positions (initial deployment, or
    positions at each node's start round); balancing is a heuristic —
    ownership at run time always follows live positions.  Returns
    ``None`` when the deployment spans too few distinct columns to split
    (sharding then falls back to serial execution).
    """
    if shards < 2 or not positions:
        return None
    if cell_size <= 0:
        raise ConfigurationError(f"cell_size must be positive, got {cell_size}")
    inv = 1.0 / cell_size
    counts: dict[int, int] = {}
    for p in positions:
        col = floor(p.x * inv)
        counts[col] = counts.get(col, 0) + 1
    cols = sorted(counts)
    strips = min(shards, len(cols))
    if strips < 2:
        return None
    bounds: list[int] = []
    remaining_nodes = len(positions)
    taken = 0
    col_index = 0
    for strip in range(strips - 1):
        strips_left = strips - strip
        target = remaining_nodes / strips_left
        # Take at least one column, and leave at least one per later strip.
        latest = len(cols) - (strips - 1 - strip)
        acc = 0
        while col_index < latest:
            acc += counts[cols[col_index]]
            col_index += 1
            if acc >= target:
                break
        remaining_nodes -= acc
        taken += acc
        bounds.append(cols[col_index])
    return ShardPlan(inv_cell=inv, bounds=tuple(bounds))


def _update_owners(owner: dict[NodeId, int], plan: ShardPlan,
                   present: Sequence[NodeId],
                   positions: Mapping[NodeId, Point]
                   ) -> list[tuple[NodeId, int, int]]:
    """Advance the ownership map for one round; returns migrations.

    Pure function of (positions, plan) evaluated identically on every
    process.  A node appearing for the first time (power-on) is claimed
    without a migration — its forked process copies are still pristine
    everywhere, so the new owner's copy is already authoritative.
    """
    migrations: list[tuple[NodeId, int, int]] = []
    for node in present:
        strip = plan.strip_of(positions[node].x)
        old = owner.get(node)
        if old is None:
            owner[node] = strip
        elif old != strip:
            migrations.append((node, old, strip))
            owner[node] = strip
    return migrations


# ----------------------------------------------------------------------
# Canonicalisation (fast-mode state reassembly)
# ----------------------------------------------------------------------

class _Canonicalizer:
    """Re-unify object graphs unpickled from separate worker streams.

    Serial runs share equal strings/ballots *by reference* (values flow
    through messages and are adopted, not copied).  State shipped home
    from N workers arrives as N independent pickle graphs; this walk
    interns strings and ballots and rebuilds histories into their
    canonical dict representation, so the reassembled result pickles
    byte-identically to the serial engine's.
    """

    def __init__(self) -> None:
        self._strings: dict[str, str] = {}
        self._ballots: dict[tuple, Any] = {}

    def walk(self, value: Any) -> Any:
        t = type(value)
        if t is str:
            return self._strings.setdefault(value, value)
        if t is int or t is float or t is bool or value is None:
            return value
        if t is dict:
            return {self.walk(k): self.walk(v) for k, v in value.items()}
        if t is list:
            return [self.walk(v) for v in value]
        if t is tuple:
            return tuple(self.walk(v) for v in value)
        from ..core.ballot import Ballot
        from ..core.checkpoint import CheckpointOutput
        from ..core.history import History
        if t is History:
            return History(value.length,
                           {k: self.walk(v) for k, v in value.items()})
        if t is Ballot:
            key = (value.value, value.prev_instance)
            found = self._ballots.get(key)
            if found is None:
                found = Ballot(self.walk(value.value), value.prev_instance)
                self._ballots[key] = found
            return found
        if t is CheckpointOutput:
            return CheckpointOutput(
                checkpoint_instance=value.checkpoint_instance,
                checkpoint_state=self.walk(value.checkpoint_state),
                suffix=self.walk(value.suffix),
            )
        import enum
        if isinstance(value, enum.Enum):
            return value  # pickled by reference; already canonical
        if t is frozenset:
            return frozenset(self.walk(v) for v in value)
        # Unknown types (custom checkpoint reducer states, ...) pass
        # through: structurally correct, though cross-worker sharing of
        # *equal but distinct* instances is not re-unified.
        return value


def _picklable(obj: Any) -> bool:
    try:
        pickle.dump(obj, io.BytesIO(), protocol=pickle.HIGHEST_PROTOCOL)
        return True
    except Exception:
        return False


# ----------------------------------------------------------------------
# The worker loop
# ----------------------------------------------------------------------

def _rebind(sim: Simulator, node: NodeId, process: Any) -> None:
    """Point the simulator's dispatch tables at a migrated-in process."""
    from .node import Process
    sim._nodes[node].process = process
    sim._send_fns[node] = process.send
    sim._deliver_fns[node] = process.deliver
    sim._contend_fns[node] = process.contend
    batch_impl = getattr(type(process), "deliver_batch", None)
    if ((batch_impl is not None and batch_impl is not Process.deliver_batch)
            or "deliver_batch" in getattr(process, "__dict__", {})):
        sim._deliver_batch_fns[node] = process.deliver_batch
    else:
        sim._deliver_batch_fns[node] = None


def _export_state(process: Any) -> tuple:
    """A node's shippable protocol state (migration and finish both use
    this).  Core-bearing processes ship the core's snapshot — the whole
    process object is *not* picklable once the incremental history fold
    has grown chain links — and the receiving side restores into its own
    forked copy of the process; everything else ships wholesale."""
    core = getattr(process, "core", None)
    if (core is not None and hasattr(core, "snapshot")
            and hasattr(core, "restore")):
        return ("core", core.snapshot(), list(core.outputs),
                dict(core.proposals_made))
    if _picklable(process):
        return ("proc", process)
    return ("opaque",)


def _apply_state(sim: Simulator, node: NodeId, payload: tuple) -> None:
    """Adopt a shipped node state (the receiving half of migration)."""
    if payload[0] == "core":
        core = sim._nodes[node].process.core
        core.restore(payload[1])
        core.outputs = payload[2]
        core.proposals_made = payload[3]
    elif payload[0] == "proc":
        _rebind(sim, node, payload[1])
    else:
        raise SimulationError(
            f"node {node} cannot cross a shard border: its process is "
            f"neither snapshot-capable nor picklable")


def _worker_main(shard: "ShardedSimulator", strip: int, conn) -> None:
    """One strip's process: the batched hot loop over resident nodes."""
    try:
        _worker_loop(shard, strip, conn)
    except BaseException as exc:  # ship the failure home, then die
        import traceback
        try:
            conn.send(("err", f"{type(exc).__name__}: {exc}\n"
                              f"{traceback.format_exc()}"))
        except Exception:
            pass
    finally:
        conn.close()


def _worker_loop(shard: "ShardedSimulator", strip: int, conn) -> None:
    sim = shard.sim
    plan = shard._plan
    owner: dict[NodeId, int] = dict(shard._owner)
    possible = set(sim._contenders_possible)
    detector = sim.detector
    lo_col, hi_col = plan.edge_cols(strip)
    # Foreign columns whose senders can reach a resident (ghost sources).
    left_ghost_col = None if lo_col is None else lo_col - 1
    right_ghost_col = None if hi_col is None else hi_col + 1
    # The channel slice (residents plus the adjacent foreign ghost
    # columns) is a pure function of (positions, ownership), so steady
    # rounds reuse it verbatim and let the channel keep its index.
    residents: list[NodeId] = []
    slice_positions: dict[NodeId, Point] = {}
    slice_valid = False
    while True:
        msg = conn.recv()
        if msg[0] == "finish":
            mine = sorted(n for n, s in owner.items() if s == strip)
            conn.send(("state", {
                node: _export_state(sim._nodes[node].process)
                for node in mine
            }))
            return
        _, r, regs = msg
        for process, mobility, start_round in regs:
            sim.add_node(process, mobility, start_round=start_round)
            possible = set(sim._contenders_possible)

        # -- mobility & ownership (computed, not communicated) ----------
        present, positions, unchanged = sim._positions_batched(r)
        sim._last_present = present
        sim._batch_prev = (r, present, positions)
        sim._positions_observed = True
        if unchanged and slice_valid:
            # ``unchanged`` is only ever True when (present, positions)
            # are value-identical to last round's, so nobody changed
            # cells: ownership, residency and the channel slice all
            # stand, and no migration exchange can be pending (the
            # coordinator skips its _update_owners on the same signal).
            slice_unchanged = True
        else:
            slice_unchanged = False
            migrations = _update_owners(owner, plan, present, positions)
            if migrations:
                exports = [(node, _export_state(sim._nodes[node].process))
                           for node, old, new in migrations if old == strip]
                imports = sum(1 for node, old, new in migrations
                              if new == strip)
                if exports:
                    conn.send(("mig", exports))
                if imports:
                    mig = conn.recv()
                    if mig[0] != "mig":  # pragma: no cover - protocol bug
                        raise SimulationError(
                            f"expected migration, got {mig[0]!r}")
                    for node, payload in mig[1]:
                        _apply_state(sim, node, payload)
            # Rebuild the channel slice: residents plus every present
            # foreign node in the two adjacent ghost columns — exactly
            # the set a neighbour's boundary export can name, so ghost
            # senders always resolve, and independent of *who* sends, so
            # steady rounds reuse it with positions_unchanged=True.
            col_of = plan.col_of
            residents = []
            slice_positions = {}
            for node in present:
                position = positions[node]
                if owner[node] == strip:
                    residents.append(node)
                    slice_positions[node] = position
                else:
                    col = col_of(position.x)
                    if col == left_ghost_col or col == right_ghost_col:
                        slice_positions[node] = position
            slice_valid = True

        # -- contention (residents only; advice is global) --------------
        crashes = sim.crashes
        no_crashes = not len(crashes)
        contend_fns = sim._contend_fns
        contenders: dict[str, list[NodeId]] = {}
        for node in residents:
            if node not in possible:
                continue
            if not no_crashes and not crashes.sends_in(node, r):
                continue
            cm_name = contend_fns[node](r)
            if cm_name is None:
                continue
            if cm_name not in sim.cms:
                raise SimulationError(
                    f"node {node} contended for unknown manager {cm_name!r}"
                )
            contenders.setdefault(cm_name, []).append(node)
        conn.send(("cont", contenders))
        adv = conn.recv()
        advised = adv[1]

        # -- send (residents), boundary export --------------------------
        broadcasts: dict[NodeId, Message] = {}
        senders: list[NodeId] = []
        send_fns = sim._send_fns
        for node in residents:
            if not no_crashes and not crashes.sends_in(node, r):
                continue
            payload = send_fns[node](r, node in advised)
            if payload is not None:
                broadcasts[node] = Message(node, payload)
                senders.append(node)
        left_out: list[tuple[NodeId, Message]] = []
        right_out: list[tuple[NodeId, Message]] = []
        if senders and (lo_col is not None or hi_col is not None):
            col_of = plan.col_of
            for node in senders:
                col = col_of(positions[node].x)
                if lo_col is not None and col == lo_col:
                    left_out.append((node, broadcasts[node]))
                elif hi_col is not None and col == hi_col:
                    right_out.append((node, broadcasts[node]))
        conn.send(("bsend", left_out, right_out))
        ghosts = conn.recv()[1]

        # -- channel over the strip slice (residents + ghosts) ----------
        if ghosts:
            merged = dict(broadcasts)
            for node, message in ghosts:
                merged[node] = message
            all_senders = sorted(merged)
            # Ascending sender order fixes the reception tuple order the
            # serial engine produces from its globally-sorted sweep.
            all_broadcasts = {node: merged[node] for node in all_senders}
        else:
            all_senders = senders
            all_broadcasts = broadcasts
        receptions = sim.channel.deliver_batch(
            r, slice_positions, all_broadcasts, all_senders,
            positions_unchanged=slice_unchanged)

        # -- detect & deliver (residents) --------------------------------
        flags: dict[NodeId, bool] = {}
        fast_detect = (type(detector) is EventuallyAccurateDetector
                       and r >= detector.racc)
        indicate = detector.indicate
        batch = RoundBatch(all_broadcasts)
        deliver_fns = sim._deliver_fns
        batch_fns = sim._deliver_batch_fns
        for node in residents:
            if not no_crashes and not crashes.receives_in(node, r):
                continue
            reception = receptions[node]
            flag = (reception.lost_within_r2 if fast_detect
                    else indicate(r, node, reception, False))
            flags[node] = flag
            bfn = batch_fns[node]
            if bfn is not None:
                bfn(r, reception.messages, flag, batch)
            else:
                deliver_fns[node](r, reception.messages, flag)

        # -- feedback partials + wire summary ----------------------------
        partials = {cm_name: any(flags.get(node, False) for node in nodes)
                    for cm_name, nodes in contenders.items()}
        flagged = [node for node in residents if flags.get(node, False)]
        size_sum = 0
        size_max = 0
        for node in senders:
            size = broadcasts[node].size
            size_sum += size
            if size > size_max:
                size_max = size
        conn.send(("fb", partials, flagged, size_sum, size_max, senders))
        sim._round += 1


# ----------------------------------------------------------------------
# The coordinator facade
# ----------------------------------------------------------------------

class ShardedSimulator:
    """Drives a :class:`Simulator` across forked strip workers.

    Wraps an already-configured simulator and splits it into
    ``sim.switches.shards`` strips; undeclared attributes
    (``current_round``, ``alive``, ``trace``, ...) pass through, so the
    facade is a drop-in for the serial engine wherever the experiment
    runner steps one.  Workers fork lazily on the first :meth:`step`, so
    instrumentation applied after construction is inherited.
    """

    def __init__(self, sim: Simulator, *,
                 plan_positions: Sequence[Point] | None = None) -> None:
        self.sim = sim
        self.shards = sim.switches.shards
        self._plan_positions = plan_positions
        self._plan: ShardPlan | None = None
        self._workers: list[Any] | None = None
        self._conns: list[Any] = []
        self._owner: dict[NodeId, int] = {}
        self._pending_reg: list[tuple] = []
        self._started = False
        self._finished = False
        self.mirror: bool | None = None

    def __getattr__(self, name: str) -> Any:
        if name == "sim":  # guard: never recurse before __init__ binds it
            raise AttributeError(name)
        return getattr(self.sim, name)

    @property
    def serial_fallback(self) -> bool:
        """Whether this facade ended up running the plain serial engine
        (``shards <= 1`` or a world too narrow to split)."""
        return self._started and self._plan is None

    # -- configuration ---------------------------------------------------

    def add_node(self, process: Any, mobility: MobilityModel | Point,
                 *, start_round: Round = 0) -> NodeId:
        node = self.sim.add_node(process, mobility, start_round=start_round)
        if self._workers is not None:
            if not _picklable(process) or not _picklable(mobility):
                raise ConfigurationError(
                    "mid-run add_node on a sharded simulator requires a "
                    "picklable process and mobility model (they are "
                    "registered on every worker)"
                )
            self._pending_reg.append((process, mobility, start_round))
        return node

    # -- execution -------------------------------------------------------

    def step(self) -> RoundRecord | None:
        """One sharded round.  Returns the round record in mirror mode
        (and under serial fallback); fast mode builds no records and
        returns ``None``."""
        if self._finished:
            raise SimulationError("sharded simulator already finished")
        if not self._started:
            self._setup()
        if self._plan is None:
            return self.sim.step()
        return self._step_sharded()

    def run(self, rounds: int) -> Any:
        if rounds < 0:
            raise ConfigurationError("rounds must be non-negative")
        for _ in range(rounds):
            self.step()
        return self.sim.trace

    def _setup(self) -> None:
        self._started = True
        sim = self.sim
        if self.shards < 2:
            return  # serial fallback
        if type(sim.adversary) is not NoAdversary:
            raise ConfigurationError(
                "sharded execution requires the benign NoAdversary: "
                "adversary RNG streams are global per-round state"
            )
        if type(sim.detector) is not EventuallyAccurateDetector:
            raise ConfigurationError(
                "sharded execution requires the stateless "
                "EventuallyAccurateDetector"
            )
        import multiprocessing
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ConfigurationError(
                "sharded execution requires the fork start method"
            )
        plan = plan_shards(self._planning_positions(), sim.spec.r2,
                           self.shards)
        if plan is None:
            return  # too narrow to split: serial fallback
        self._plan = plan
        # Mirror unless every consumer supports the summary protocol and
        # every process can ship its state home through a core.
        self.mirror = (sim.record_trace
                       or any(not hasattr(obs, "observe_summary")
                              for obs in sim._observers)
                       or any(not hasattr(getattr(e.process, "core", None),
                                          "restore")
                              for e in sim._nodes.values()))
        ctx = multiprocessing.get_context("fork")
        self._workers = []
        for strip in range(plan.shards):
            parent, child = ctx.Pipe()
            worker = ctx.Process(target=_worker_main,
                                 args=(self, strip, child), daemon=True)
            worker.start()
            child.close()
            self._workers.append(worker)
            self._conns.append(parent)

    def _planning_positions(self) -> list[Point]:
        if self._plan_positions is not None:
            return list(self._plan_positions)
        sim = self.sim
        r = sim._round
        out = []
        for node in sim._node_list:
            entry = sim._nodes[node]
            if entry.static_position is not None:
                out.append(entry.static_position)
            else:
                # position_at is memoised/pure on every model, so an
                # early planning query cannot perturb the engine's later
                # per-round reads.
                out.append(entry.mobility.position_at(
                    max(r, entry.start_round)))
        return out

    def _recv(self, strip: int) -> tuple:
        try:
            msg = self._conns[strip].recv()
        except EOFError:
            raise SimulationError(
                f"shard worker {strip} died mid-round"
            ) from None
        if msg[0] == "err":
            raise SimulationError(f"shard worker {strip} failed:\n{msg[1]}")
        return msg

    def _step_sharded(self) -> RoundRecord | None:
        sim = self.sim
        r = sim._round
        regs = self._pending_reg
        self._pending_reg = []
        header = ("round", r, regs)
        for conn in self._conns:
            conn.send(header)

        record: RoundRecord | None = None
        if self.mirror:
            # The authoritative universe: a full serial round on the
            # coordinator's own objects, run *before* any position query.
            # Calling _positions_batched here first would warm the
            # steady-position cache and swallow the unchanged=False signal
            # the serial step needs right after add_node — the channel
            # index would then never ingest the new node.  The record
            # already carries the full position map, so mirror mode reads
            # ownership from it instead.
            record = sim.step()
            positions = record.positions
            present = list(positions)
            unchanged = False
        else:
            # The coordinator derives the same positions every worker
            # does (this is the engine's single per-round call, exactly
            # as in the serial step).
            present, positions, unchanged = sim._positions_batched(r)
        if unchanged:
            # Value-identical (present, positions): nobody changed cells,
            # ownership stands, and the workers skip their own
            # _update_owners on the same signal — so no migration
            # exchange can be pending.
            migrations = []
        else:
            migrations = _update_owners(self._owner, self._plan, present,
                                        positions)
        if migrations:
            exporters = sorted({old for _, old, _ in migrations})
            inbound: dict[int, list] = {}
            for strip in exporters:
                msg = self._recv(strip)
                if msg[0] != "mig":  # pragma: no cover - protocol bug
                    raise SimulationError(
                        f"expected migration from worker {strip}, "
                        f"got {msg[0]!r}")
                for node, payload in msg[1]:
                    inbound.setdefault(self._owner[node], []).append(
                        (node, payload))
            for strip, items in sorted(inbound.items()):
                self._conns[strip].send(("mig", items))

        # -- merge contenders (ascending node id = serial sweep order) --
        shards = self._plan.shards
        contenders: dict[str, list[NodeId]] = {}
        strip_contenders: list[set[NodeId]] = []
        for strip in range(shards):
            local: set[NodeId] = set()
            for cm_name, nodes in self._recv(strip)[1].items():
                contenders.setdefault(cm_name, []).extend(nodes)
                local.update(nodes)
            strip_contenders.append(local)
        for nodes in contenders.values():
            nodes.sort()

        if self.mirror:
            # Workers only get cross-checked against the record above.
            advised = frozenset(record.advised_active)
            advice: dict[str, frozenset[NodeId]] | None = None
        else:
            # The serial engine's bookkeeping for the position block.
            if not (unchanged and sim.locations.staleness_bound == 0):
                # see Simulator._step_batched
                sim.locations.observe(r, positions)
                sim._positions_observed = True
            sim._last_present = present
            sim._batch_prev = (r, present, positions)
            advice = {}
            advised_set: set[NodeId] = set()
            if contenders:
                for cm_name, cnodes in sorted(contenders.items()):
                    granted = sim.cms[cm_name].advise(
                        r, cnodes).intersection(cnodes)
                    advice[cm_name] = granted
                    advised_set.update(granted)
            advised = frozenset(advised_set)
        # Advice is global, but a worker only ever asks "is this resident
        # advised?" and advised ⊆ its contenders' union — so each strip
        # gets just the slice of advice its own contenders can match.
        for strip, conn in enumerate(self._conns):
            conn.send(("adv", advised.intersection(strip_contenders[strip])))

        # -- boundary exchange ------------------------------------------
        exports = [self._recv(strip) for strip in range(shards)]
        for strip in range(shards):
            ghosts: list[tuple[NodeId, Message]] = []
            if strip > 0:
                ghosts.extend(exports[strip - 1][2])  # left neighbour's right
            if strip + 1 < shards:
                ghosts.extend(exports[strip + 1][1])  # right neighbour's left
            self._conns[strip].send(("ghost", ghosts))

        # -- feedback & summaries ---------------------------------------
        results = [self._recv(strip) for strip in range(shards)]
        if self.mirror:
            self._cross_check(r, record, contenders, results)
            return record
        if contenders:
            for cm_name, cnodes in sorted(contenders.items()):
                collided = any(res[1].get(cm_name, False) for res in results)
                sim.cms[cm_name].feedback(
                    r, active=advice[cm_name], collided=collided)
        flagged: list[NodeId] = sorted(
            node for res in results for node in res[2])
        n_broadcasts = sum(len(res[5]) for res in results)
        size_sum = sum(res[3] for res in results)
        size_max = max(res[4] for res in results)
        for observer in sim._observers:
            observer.observe_summary(
                r, n_broadcasts=n_broadcasts, size_sum=size_sum,
                size_max=size_max, flagged=flagged)
        sim._round += 1
        return None

    def _cross_check(self, r: Round, record: RoundRecord,
                     contenders: dict[str, list[NodeId]],
                     results: list[tuple]) -> None:
        """Mirror mode: the workers must agree with the serial round."""
        worker_senders = sorted(
            node for res in results for node in res[5])
        serial_senders = sorted(record.broadcasts)
        if worker_senders != serial_senders:
            raise SimulationError(
                f"shard cross-check failed at round {r}: sender sets "
                f"differ (workers {worker_senders} != serial "
                f"{serial_senders})")
        worker_flagged = sorted(
            node for res in results for node in res[2])
        serial_flagged = sorted(
            node for node, flag in record.collisions.items() if flag)
        if worker_flagged != serial_flagged:
            raise SimulationError(
                f"shard cross-check failed at round {r}: collision flags "
                f"differ (workers {worker_flagged} != serial "
                f"{serial_flagged})")
        collisions = record.collisions
        for cm_name, cnodes in sorted(contenders.items()):
            workers = any(res[1].get(cm_name, False) for res in results)
            serial = any(collisions.get(node, False) for node in cnodes)
            if workers != serial:
                raise SimulationError(
                    f"shard cross-check failed at round {r}: feedback for "
                    f"manager {cm_name!r} differs")

    # -- teardown --------------------------------------------------------

    def finish(self) -> None:
        """Collect worker state: restore it (fast mode) or byte-check it
        against the coordinator's own (mirror mode), then reap workers.

        Idempotent; must be called before reading protocol outcomes off
        a fast-mode run.
        """
        if self._finished:
            return
        self._finished = True
        if self._workers is None:
            return
        for conn in self._conns:
            conn.send(("finish",))
        states: dict[NodeId, tuple] = {}
        for strip in range(len(self._conns)):
            msg = self._recv(strip)
            states.update(msg[1])
        try:
            if self.mirror:
                self._check_final(states)
            else:
                self._restore_final(states)
        finally:
            for conn in self._conns:
                conn.close()
            for worker in self._workers:
                worker.join(timeout=10)
                if worker.is_alive():  # pragma: no cover - hung worker
                    worker.terminate()

    def _check_final(self, states: dict[NodeId, tuple]) -> None:
        sim = self.sim
        for node in sorted(states):
            payload = states[node]
            process = sim._nodes[node].process
            if payload[0] == "core":
                core = process.core
                mine = (core.snapshot(), list(core.outputs),
                        dict(core.proposals_made))
                if payload[1:] != mine:
                    raise SimulationError(
                        f"shard cross-check failed: node {node} final "
                        f"state diverges from the serial engine")
            elif payload[0] == "proc":
                if payload[1].__dict__ != process.__dict__:
                    raise SimulationError(
                        f"shard cross-check failed: node {node} final "
                        f"process state diverges from the serial engine")
            # "opaque": unshippable custom process; nothing to compare.

    def _restore_final(self, states: dict[NodeId, tuple]) -> None:
        sim = self.sim
        canon = _Canonicalizer()
        for node in sorted(states):
            payload = states[node]
            if payload[0] == "core":
                core = sim._nodes[node].process.core
                core.restore(canon.walk(payload[1]))
                core.outputs = canon.walk(payload[2])
                core.proposals_made = canon.walk(payload[3])
            elif payload[0] == "proc":
                _rebind(sim, node, payload[1])
            else:
                raise SimulationError(
                    f"node {node}'s process cannot ship its state home "
                    f"(not picklable, no snapshot/restore core)")

    def close(self) -> None:
        """Abandon the run without collecting state (error paths)."""
        if self._workers is None or self._finished:
            self._finished = True
            return
        self._finished = True
        for conn in self._conns:
            try:
                conn.close()
            except Exception:  # pragma: no cover - already broken pipe
                pass
        for worker in self._workers:
            worker.terminate()
            worker.join(timeout=5)
