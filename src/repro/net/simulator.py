"""The synchronous ("slotted") round engine.

One :meth:`Simulator.step` executes one communication round of the model
in Section 2, in this order:

1. **Mobility & liveness** — positions of every *present* node (started,
   not yet fully crashed) are read from its mobility model, and the
   location service takes its periodic snapshot.
2. **Contention** — each node that still executes its send step names the
   contention manager it contends for; each manager issues advice, which
   the simulator clips to actual contenders (Property 3(3)).
3. **Send** — each sending node returns a payload or ``None``.  A node
   crashing ``AFTER_SEND`` this round still broadcasts (the footnote-2
   decide-and-die scenario); one crashing ``BEFORE_SEND`` is already gone.
4. **Channel** — the quasi-unit-disk channel resolves deliveries, with
   adversarial drops allowed only before ``rcf``.
5. **Detect & deliver** — each receiving node gets its messages and the
   collision flag computed by the configured detector (spurious-collision
   requests come from the adversary and are honoured only before the
   detector's accuracy round).
6. **Feedback** — contention managers observe whether their advisees'
   broadcasts suffered contention, so back-off managers can adapt.

All sources of nondeterminism (mobility, adversary, contention) are owned
by seeded components, so a run is a pure function of its configuration.

Two round engines implement that order, selected by the ``engine`` axis
of :class:`~repro.switches.Switches`:

* :meth:`Simulator._step_reference` — the seed per-node loop, kept as
  the executable specification: every round re-derives liveness and
  positions from the crash schedule and the mobility models, re-observes
  the location service, consults every present node for contention, and
  runs the detector on every reception.  It has no caches.
* :meth:`Simulator._step_batched` — the default: the one round
  pipeline (:meth:`Simulator.run_round`) the VI emulation's phase-table
  engine (:mod:`repro.vi.engine`) runs too, each supplying who contends,
  sends and is delivered to.  It caches what cannot change between
  rounds (positions of provably static nodes, the location snapshot
  while nothing moved, crash bookkeeping without a crash schedule) and
  works round-at-a-time: the position map follows the mobility
  dirty-set protocol (:meth:`~repro.net.mobility.MobilityModel.moved_in`),
  the channel gets the whole batch in one
  :meth:`~repro.net.channel.Channel.deliver_batch` call, and a round it
  resolved per coverage class is detected per class.  The batched
  engine's handlers are the *unit sweep*: prebound per-node methods, no
  contention bookkeeping when no node can contend, and each
  :class:`~repro.net.node.Ensemble` (:meth:`Simulator.add_ensemble`)
  called once per sweep for all its members, with one
  :class:`~repro.net.messages.RoundBatch` shared by every ensemble
  (built when the sweep reaches the round's first ensemble).
  The reference loop ignores ensembles.

The differential suite pins the two engines byte-identical (traces,
outputs, metrics, verdicts) across every protocol family and switch
combination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from ..detectors import CollisionDetector, EventuallyAccurateDetector
from ..contention import ContentionManager
from ..errors import ConfigurationError, SimulationError
from ..geometry import Point
from ..switches import Switches
from ..types import NodeId, Round
from .adversary import Adversary, NoAdversary
from .channel import Channel, RadioSpec, receptions_of
from .location import LocationService
from .messages import Message, RoundBatch
from .mobility import MobilityModel, StaticMobility
from .node import CrashSchedule, Ensemble, Process
from .trace import RoundRecord, Trace

#: Per-round hook: called with each completed :class:`RoundRecord`.
RoundObserver = Callable[[RoundRecord], None]

#: The advice of a round in which nobody contended.
_NOBODY: frozenset[NodeId] = frozenset()

#: The base :meth:`ContentionManager.feedback`, a no-op nobody need call.
_NO_FEEDBACK = ContentionManager.feedback


@dataclass
class _NodeEntry:
    process: Process
    mobility: MobilityModel
    start_round: Round
    #: Resolved once for :class:`StaticMobility` nodes only (the same
    #: ``Point`` object every round, which a cache must keep); ``None``:
    #: the model is consulted every round, even at ``max_speed() == 0``.
    static_position: Point | None = None


class Simulator:
    """Drives a set of processes over the collision-prone channel."""

    def __init__(self, *, spec: RadioSpec,
                 adversary: Adversary | None = None,
                 detector: CollisionDetector | None = None,
                 cms: dict[str, ContentionManager] | None = None,
                 crashes: CrashSchedule | None = None,
                 observers: Iterable[RoundObserver] = (),
                 record_trace: bool = True,
                 switches: Switches = Switches()) -> None:
        self.spec = spec
        self.adversary = adversary if adversary is not None else NoAdversary()
        #: The reference switches: this simulator reads ``engine`` and
        #: its channel ``channel``; the VI round engine
        #: (:mod:`repro.vi.engine`) reads ``engine`` here too.
        self.switches = switches
        self.channel = Channel(spec, self.adversary, switches=switches)
        self.detector = detector if detector is not None else EventuallyAccurateDetector()
        self.cms: dict[str, ContentionManager] = dict(cms or {})
        self.crashes = crashes if crashes is not None else CrashSchedule()
        self.locations = LocationService()
        self.trace = Trace()
        self.record_trace = record_trace
        self._observers: list[RoundObserver] = list(observers)
        self._nodes: dict[NodeId, _NodeEntry] = {}
        self._round: Round = 0
        #: Batched-engine caches: last round's present set, and whether
        #: the location service has observed the current positions.
        self._last_present: list[NodeId] | None = None
        self._positions_observed = False
        #: Steady-state caches (maintained by add_node): sorted node ids,
        #: the latest start_round, whether every node is provably static,
        #: which processes can ever contend, and — built lazily — the
        #: full static position map.
        self._node_list: list[NodeId] = []
        self._max_start: Round = 0
        self._all_static = True
        self._contenders_possible: list[NodeId] = []
        self._steady_positions: dict[NodeId, Point] | None = None
        #: Batched-engine dispatch tables, indexed by (sequential) node
        #: id: prebound send/deliver/contend methods.
        self._send_fns: list[Callable] = []
        self._deliver_fns: list[Callable] = []
        self._contend_fns: list[Callable] = []
        #: Ensemble dispatch (:meth:`add_ensemble`): each node's
        #: ensemble (``None`` for a lone node), each lone node's sweep
        #: unit, and — built lazily — the steady-state sweeps over every
        #: node and over every possible contender.
        self._ensemble_of: list[Ensemble | None] = []
        self._lone_units: list[tuple[None, tuple[NodeId]]] = []
        self._steady_units: tuple[list, list] | None = None
        #: Dirty-set cache: ``(round, present, positions)`` of the last
        #: batched round, the base the next round's position map is
        #: copied from when nothing joined, crashed, or moved.
        self._batch_prev: tuple[Round, list[NodeId],
                                dict[NodeId, Point]] | None = None
        #: The dirty-set sweep (:meth:`_movers_of`) and the ``present``
        #: list it was built for.
        self._movers: tuple[list[NodeId], list[tuple]] | None = None

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------

    def add_node(self, process: Process,
                 mobility: MobilityModel | Point,
                 *, start_round: Round = 0) -> NodeId:
        """Register a process; returns its simulator-assigned node id.

        ``mobility`` may be a bare :class:`Point` as shorthand for a static
        node at that position.  ``start_round`` models a device that powers
        on late (it neither transmits, receives, nor interferes earlier).

        On a running world ``start_round`` must not predate the current
        round: a node "powering on" in the past would claim rounds that
        already executed without it, silently breaking the pre-instance
        inertness contract (its early rounds never happened, yet
        ``alive()`` and the crash bookkeeping would report them as lived).
        """
        if start_round < 0:
            raise ConfigurationError("start_round must be non-negative")
        if start_round < self._round:
            raise ConfigurationError(
                f"start_round {start_round} predates the current round "
                f"{self._round}: a mid-run node cannot power on in the past"
            )
        if isinstance(mobility, Point):
            mobility = StaticMobility(mobility)
        node_id = len(self._nodes)
        # Only StaticMobility is cached: it returns the *same* Point
        # object every round, so the cached and uncached paths build
        # identical object graphs (and therefore identical trace pickles).
        static_position = (mobility.position_at(start_round)
                           if isinstance(mobility, StaticMobility) else None)
        self._nodes[node_id] = _NodeEntry(process, mobility, start_round,
                                          static_position)
        # Maintain the steady-state caches (node ids are sequential, so
        # appending keeps the node list sorted).
        self._node_list.append(node_id)
        self._max_start = max(self._max_start, start_round)
        self._all_static = self._all_static and static_position is not None
        # Overridden contend() — on the class or directly on the instance
        # — means this node may ask for channel access.  Sampled here:
        # assigning process.contend *after* add_node is unsupported.
        if (type(process).contend is not Process.contend
                or "contend" in getattr(process, "__dict__", {})):
            self._contenders_possible.append(node_id)
        self._send_fns.append(process.send)
        self._deliver_fns.append(process.deliver)
        self._contend_fns.append(process.contend)
        self._ensemble_of.append(None)
        self._lone_units.append((None, (node_id,)))
        self._steady_units = None
        self._steady_positions = None
        # New nodes invalidate the positions-unchanged caches.
        self._last_present = None
        self._batch_prev = self._movers = None
        return node_id

    def add_ensemble(self, ensemble: Ensemble) -> None:
        """Dispatch ``ensemble.processes`` — registered at a contiguous,
        ascending run of node ids outside any other ensemble — through
        ``ensemble`` in the batched engine, and set ``ensemble.nodes`` to
        that run (:class:`~repro.net.node.Ensemble`).  The reference
        engine keeps calling each of their processes on its own."""
        where = {id(entry.process): node for node, entry in self._nodes.items()}
        nodes = [where.get(id(process), -1) for process in ensemble.processes]
        run = range(nodes[0], nodes[0] + len(nodes)) if nodes else range(0)
        if (not nodes or nodes[0] < 0 or nodes != list(run)
                or any(self._ensemble_of[node] is not None for node in nodes)):
            raise ConfigurationError(
                f"ensemble processes at nodes {nodes} are not a contiguous "
                "run of registered ids outside any other ensemble")
        for node in run:
            self._ensemble_of[node] = ensemble
        ensemble.nodes = run
        self._steady_units = None

    def _units(self, nodes: list[NodeId]) -> list[tuple]:
        """The node-ordered sweep over ``nodes``: a lone node's unit
        ``(None, (node,))``, or ``(ensemble, members)`` once per
        ensemble, at its first member's position."""
        ensemble_of = self._ensemble_of
        lone = self._lone_units
        units: list[tuple] = []
        last = None
        for node in nodes:
            ensemble = ensemble_of[node]
            if ensemble is None:
                units.append(lone[node])
            elif last is not None and last[0] is ensemble:
                last[1].append(node)
                continue
            else:
                units.append((ensemble, [node]))
            last = units[-1]
        return units

    def add_cm(self, name: str, cm: ContentionManager) -> None:
        if name in self.cms:
            raise ConfigurationError(f"contention manager {name!r} already registered")
        self.cms[name] = cm

    def add_observer(self, observer: RoundObserver) -> None:
        """Register a per-round callback.

        Observers see every :class:`RoundRecord` as it is produced, so
        metrics can be accumulated online instead of re-scanning the whole
        :class:`Trace` afterwards; with ``record_trace=False`` they are the
        *only* consumers and long runs need not retain the trace at all.
        """
        self._observers.append(observer)

    @property
    def current_round(self) -> Round:
        return self._round

    @property
    def node_ids(self) -> list[NodeId]:
        return sorted(self._nodes)

    def process_of(self, node_id: NodeId) -> Process:
        return self._nodes[node_id].process

    def alive(self, node_id: NodeId, r: Round | None = None) -> bool:
        """Present in the network at round ``r`` (default: current round)."""
        r = self._round if r is None else r
        entry = self._nodes[node_id]
        return entry.start_round <= r and not self.crashes.crashed_by(node_id, r)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def step(self) -> RoundRecord:
        """Execute one synchronous round and append it to the trace."""
        if self.switches.engine:
            return self._step_reference()
        return self._step_batched()

    def _step_reference(self) -> RoundRecord:
        """The seed per-node round loop (executable specification).

        The reference the batched engine is proven byte-identical
        against: everything is re-derived every round, nothing is
        cached.  Selected by the ``engine`` axis of the switches.
        """
        r = self._round
        present = [node for node in self._node_list if self.alive(node, r)]
        positions: dict[NodeId, Point] = {
            node: self._nodes[node].mobility.position_at(r)
            for node in present
        }
        self.locations.observe(r, positions)

        # -- contention ------------------------------------------------
        contenders: dict[str, list[NodeId]] = {}
        for node in present:
            if not self.crashes.sends_in(node, r):
                continue
            cm_name = self._nodes[node].process.contend(r)
            if cm_name is None:
                continue
            if cm_name not in self.cms:
                raise SimulationError(
                    f"node {node} contended for unknown manager {cm_name!r}"
                )
            contenders.setdefault(cm_name, []).append(node)

        advice: dict[str, frozenset[NodeId]] = {}
        advised: set[NodeId] = set()
        for cm_name, nodes in sorted(contenders.items()):
            granted = self.cms[cm_name].advise(r, nodes) & frozenset(nodes)
            advice[cm_name] = granted
            advised.update(granted)

        # -- send --------------------------------------------------------
        broadcasts: dict[NodeId, Message] = {}
        for node in present:
            if not self.crashes.sends_in(node, r):
                continue
            payload = self._nodes[node].process.send(r, node in advised)
            if payload is not None:
                broadcasts[node] = Message(node, payload)

        # -- channel -----------------------------------------------------
        receptions = self.channel.deliver(r, positions, broadcasts)

        # -- detect & deliver ---------------------------------------------
        flags: dict[NodeId, bool] = {}
        delivered: dict[NodeId, tuple[Message, ...]] = {}
        for node in present:
            if not self.crashes.receives_in(node, r):
                continue
            reception = receptions[node]
            spurious = self.adversary.false_collision(r, node)
            flag = self.detector.indicate(r, node, reception, spurious)
            flags[node] = flag
            delivered[node] = reception.messages
            self._nodes[node].process.deliver(r, reception.messages, flag)

        # -- contention feedback ------------------------------------------
        for cm_name, nodes in sorted(contenders.items()):
            collided = any(flags.get(node, False) for node in nodes)
            self.cms[cm_name].feedback(
                r, active=advice[cm_name], collided=collided
            )

        crashed_now = frozenset(
            node for node in sorted(self._nodes)
            if self.alive(node, r) != self.alive(node, r + 1)
            and self._nodes[node].start_round <= r
        )
        record = RoundRecord(
            round=r,
            positions=positions,
            broadcasts=broadcasts,
            receptions=delivered,
            collisions=flags,
            advised_active=frozenset(advised),
            crashed=crashed_now,
        )
        if self.record_trace:
            self.trace.append(record)
        for observer in self._observers:
            observer(record)
        self._round += 1
        return record

    def _positions_batched(self, r: Round) -> tuple[
            list[NodeId], dict[NodeId, Point], bool]:
        """The pipeline's mobility & liveness block: ``(present,
        positions, unchanged)`` for round ``r`` (steady-state cache,
        dirty-set protocol); :meth:`run_round` keeps the caches."""
        nodes = self._nodes
        # With no crash schedule, "alive" reduces to the start_round
        # check, and every present node both sends and receives.
        no_crashes = not len(self.crashes)
        steady = no_crashes and self._max_start <= r
        if steady and self._all_static:
            # Steady state: every node is present and provably immobile,
            # so the position map is a copy of a once-built cache (same
            # insertion order, same Point objects as a fresh build).
            present = self._node_list
            if self._steady_positions is None:
                self._steady_positions = {
                    node: nodes[node].static_position
                    for node in present
                }
                unchanged = False
            else:
                unchanged = self._positions_observed
            positions: dict[NodeId, Point] = self._steady_positions.copy()
        else:
            if steady:
                present = self._node_list
            elif no_crashes:
                present = [
                    node for node in self._node_list
                    if nodes[node].start_round <= r
                ]
            else:
                present = [
                    node for node in self._node_list
                    if self.alive(node, r)
                ]
            prev = self._batch_prev
            if prev is not None and prev[0] == r - 1 \
                    and prev[1] == present:
                # Dirty set: same membership as last round, so start
                # from its map and rebuild only the moved entries (the
                # models' identity promise keeps the skip invisible,
                # pickles included).
                movers = self._movers
                if movers is None or movers[0] is not prev[1]:
                    movers = (present, self._movers_of(present))
                self._movers = (present, movers[1])
                positions = prev[2].copy()
                clean = True
                for node, position_at, moved_in in movers[1]:
                    if moved_in is not None and not moved_in(r):
                        continue
                    p = position_at(r)
                    if p is not positions[node]:
                        positions[node] = p
                        clean = False
                unchanged = clean and self._positions_observed
            else:
                positions = {}
                all_static = True
                for node in present:
                    entry = nodes[node]
                    p = entry.static_position
                    if p is None:
                        all_static = False
                        p = entry.mobility.position_at(r)
                    positions[node] = p
                unchanged = (all_static
                             and present == self._last_present
                             and self._positions_observed)
        return present, positions, unchanged

    def _movers_of(self, present: list[NodeId]) -> list[tuple]:
        """``(node, position_at, moved_in or None)`` per non-static node:
        ``None`` for the base ``moved_in`` (by ``__func__``: a wrapper may
        set ``moved_in`` on the instance)."""
        movers = []
        base = MobilityModel.moved_in
        for node in present:
            entry = self._nodes[node]
            if entry.static_position is None:
                mobility = entry.mobility
                moved_in = mobility.moved_in
                if getattr(moved_in, "__func__", None) is base:
                    moved_in = None
                movers.append((node, mobility.position_at, moved_in))
        return movers

    def _step_batched(self) -> RoundRecord:
        """The batched engine: :meth:`run_round` with the unit sweep.

        Observably identical to :meth:`_step_reference` — same component
        call sequences (contention managers, adversary and detector RNG
        streams, process methods) and identical round-record object
        graphs — but organised round-at-a-time (module docstring).
        """
        return self.run_round(self._contend_units, self._send_units,
                              self._deliver_units)[0]

    def run_round(self, contend: Callable, send: Callable,
                  deliver: Callable) -> tuple[RoundRecord, bool]:
        """One round of the pipeline; returns its record and whether it
        carried traffic (a broadcast or a collision flag).

        The round engine's three handlers pick the processes:

        * ``contend(r, present, relocated)`` → ``(groups, advice,
          advised)``: ``(cm_name, contenders)`` pairs in name order and
          their :meth:`advise`, or ``((), None, None)``; ``relocated``:
          the location service took a snapshot this round;
        * ``send(r, present, advised)`` → ``(broadcasts, senders)``;
        * ``deliver(r, present, broadcasts, delivered, flags, uniform)``
          (``uniform``: every receiver heard all, with one flag).
        """
        r = self._round
        # -- mobility & liveness ---------------------------------------
        present, positions, unchanged = self._positions_batched(r)
        relocated = not unchanged
        if relocated:
            # Otherwise nothing moved: the service's snapshot (it takes
            # one every round) already equals ``positions`` element for
            # element, so re-observing would be a no-op copy.
            self.locations.observe(r, positions)
            self._positions_observed = True
        self._last_present = present
        self._batch_prev = (r, present, positions)

        groups, advice, advised = contend(r, present, relocated)
        broadcasts, senders = send(r, present,
                                   advised if advised else _NOBODY)
        receptions = self.channel.deliver_batch(
            r, positions, broadcasts, senders,
            positions_unchanged=unchanged)
        flags, delivered, any_flag, uniform = self._detect(
            r, present, receptions)
        deliver(r, present, broadcasts, delivered, flags, uniform)

        # -- contention feedback ------------------------------------------
        # Only to managers that override it: the base method is a no-op.
        # A collision-free round (the overwhelmingly common one) needs no
        # per-contender flag scan: any() over any subset of an all-False
        # map is False.
        cms = self.cms
        flags_get = flags.get
        for cm_name, cnodes in groups:
            cm = cms[cm_name]
            if type(cm).feedback is not _NO_FEEDBACK:
                collided = any_flag and any(
                    flags_get(node, False) for node in cnodes)
                cm.feedback(r, active=advice[cm_name], collided=collided)

        record = self._record(r, positions, broadcasts, delivered, flags,
                              advised)
        return record, bool(broadcasts) or any_flag

    def advise(self, r: Round, groups) -> tuple[
            dict[str, frozenset[NodeId]], set[NodeId]]:
        """Each manager's advice to its ``(cm_name, contenders)`` group,
        clipped to them (Property 3(3)): ``(advice, advised)``."""
        cms = self.cms
        advice: dict[str, frozenset[NodeId]] = {}
        advised: set[NodeId] = set()
        for cm_name, cnodes in groups:
            # Same clip as the reference's `& frozenset(cnodes)` without
            # materialising the n-element operand.
            granted = cms[cm_name].advise(r, cnodes).intersection(cnodes)
            advice[cm_name] = granted
            advised.update(granted)
        return advice, advised

    def _detect(self, r: Round, present: list[NodeId], receptions) -> tuple[
            dict[NodeId, bool], dict[NodeId, tuple[Message, ...]], bool, bool]:
        """The detect stage: ``(flags, delivered, any_flag, uniform)`` for
        every receiving present node, in node order, so the adversary's
        and the detector's call sequences (their RNG streams) are the
        reference loop's."""
        adversary = self.adversary
        # A spurious-free adversary's false_collision is stateless-False,
        # so skipping the call is unobservable; others are always consulted
        # (their RNG streams must advance exactly as in the seed loop).
        benign = adversary.spurious_free
        detector = self.detector
        # Past its accuracy round the paper's detector is a pure function
        # of the reception's R2 ground truth; inline it.
        fast_detect = (type(detector) is EventuallyAccurateDetector
                       and r >= detector.racc)
        crashes = self.crashes
        no_crashes = not len(crashes)
        if receptions.__class__ is tuple:  # the channel's coverage classes
            if benign and fast_detect and no_crashes:
                # Every flag is its reception's: build both maps per
                # class (the first is every present node, in order;
                # later ones override it).
                nodes, reception = receptions[0]
                any_flag = reception.lost_within_r2 and len(nodes) > 0
                flags = dict.fromkeys(nodes, reception.lost_within_r2)
                delivered = dict.fromkeys(nodes, reception.messages)
                for nodes, reception in receptions[1:]:
                    flag = reception.lost_within_r2
                    flags.update(dict.fromkeys(nodes, flag))
                    delivered.update(dict.fromkeys(nodes, reception.messages))
                    any_flag = any_flag or (flag and len(nodes) > 0)
                return flags, delivered, any_flag, len(receptions) == 1
            receptions = receptions_of(receptions)
        flags: dict[NodeId, bool] = {}
        delivered: dict[NodeId, tuple[Message, ...]] = {}
        any_flag = False
        false_collision = adversary.false_collision
        indicate = detector.indicate
        receives_in = crashes.receives_in
        for node in present:
            if not no_crashes and not receives_in(node, r):
                continue
            reception = receptions[node]
            spurious = False if benign else false_collision(r, node)
            flag = (reception.lost_within_r2 if fast_detect
                    else indicate(r, node, reception, spurious))
            flags[node] = flag
            if flag:
                any_flag = True
            delivered[node] = reception.messages
        return flags, delivered, any_flag, False

    def _record(self, r: Round, positions, broadcasts, delivered, flags,
                advised) -> RoundRecord:
        """The record stage: the round's crash set and
        :class:`RoundRecord`, the trace, the observers, the cursor."""
        if not len(self.crashes):
            # Without a crash schedule, aliveness can only flip at a
            # node's start_round boundary, which never satisfies
            # ``start_round <= r`` — so nobody crashed this round.
            crashed_now: frozenset[NodeId] = frozenset()
        else:
            nodes = self._nodes
            crashed_now = frozenset(
                node for node in sorted(nodes)
                if self.alive(node, r) != self.alive(node, r + 1)
                and nodes[node].start_round <= r
            )
        record = RoundRecord(
            round=r,
            positions=positions,
            broadcasts=broadcasts,
            receptions=delivered,
            collisions=flags,
            advised_active=frozenset(advised) if advised else frozenset(),
            crashed=crashed_now,
        )
        if self.record_trace:
            self.trace.append(record)
        for observer in self._observers:
            observer(record)
        self._round += 1
        return record

    # -- the unit sweep: the batched engine's three handlers -------------

    def _sweep(self, r: Round, present: list[NodeId],
               takes_part: Callable[[NodeId, Round], bool],
               contenders: bool = False) -> list[tuple]:
        """The units over the present nodes (or the possible
        ``contenders``) that ``takes_part`` in round ``r``.  In steady
        state — ``present`` is the node list itself: no crash schedule,
        every node started — the sweep is built once."""
        if present is not self._node_list:
            nodes = self._contenders_possible if contenders else present
            return self._units([node for node in nodes
                                if takes_part(node, r)])
        if self._steady_units is None:
            self._steady_units = (self._units(self._node_list),
                                  self._units(self._contenders_possible))
        return self._steady_units[contenders]

    def _contend_units(self, r: Round, present: list[NodeId],
                       relocated: bool) -> tuple:
        # Nodes inheriting the base Process.contend can never contend (it
        # is stateless and returns None), so only nodes overriding it are
        # consulted, in node order.
        if not self._contenders_possible:
            return (), None, None
        cms = self.cms
        contenders: dict[str, list[NodeId]] = {}
        contend_fns = self._contend_fns
        for ensemble, group in self._sweep(
                r, present, lambda node, r: self.alive(node, r)
                and self.crashes.sends_in(node, r), contenders=True):
            cm_name = (contend_fns[group[0]](r) if ensemble is None
                       else ensemble.contend(r))
            if cm_name is None:
                continue
            if cm_name not in cms:
                raise SimulationError(
                    f"node {group[0]} contended for unknown manager {cm_name!r}"
                )
            bucket = contenders.get(cm_name)
            if bucket is None:
                contenders[cm_name] = list(group)
            else:
                bucket.extend(group)
        if not contenders:
            return (), None, None
        groups = sorted(contenders.items())
        return (groups, *self.advise(r, groups))

    def _send_units(self, r: Round, present: list[NodeId],
                    advised) -> tuple[dict[NodeId, Message], list[NodeId]]:
        broadcasts: dict[NodeId, Message] = {}
        senders: list[NodeId] = []
        send_fns = self._send_fns
        for ensemble, group in self._sweep(r, present, self.crashes.sends_in):
            if ensemble is None:
                node = group[0]
                payload = send_fns[node](r, node in advised)
                if payload is not None:
                    broadcasts[node] = Message(node, payload)
                    senders.append(node)
            else:
                for node, payload in ensemble.send_round(r, group, advised):
                    broadcasts[node] = Message(node, payload)
                    senders.append(node)
        return broadcasts, senders

    def _deliver_units(self, r: Round, present: list[NodeId], broadcasts,
                       delivered, flags, uniform: bool) -> None:
        batch = None
        deliver_fns = self._deliver_fns
        for ensemble, group in self._sweep(r, present,
                                           self.crashes.receives_in):
            if ensemble is None:
                node = group[0]
                deliver_fns[node](r, delivered[node], flags[node])
            else:
                if batch is None:
                    batch = RoundBatch(broadcasts)
                    batch.uniform = uniform
                ensemble.deliver_round(r, group, delivered, flags, batch)

    def run(self, rounds: int) -> Trace:
        """Execute ``rounds`` rounds and return the accumulated trace."""
        if rounds < 0:
            raise ConfigurationError("rounds must be non-negative")
        for _ in range(rounds):
            self.step()
        return self.trace
