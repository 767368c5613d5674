"""Phase-table round engine for the VI emulation.

The per-device dispatch runs every :class:`~repro.vi.device.VIDevice`
through every real round: each device re-derives the round's
:class:`~repro.vi.phases.PhasePosition` and then mostly discovers it has
nothing to do (an unscheduled replica in a SCHED phase, a pure client in
a veto round, ...).  For a world of ``n`` devices that is ``O(n)`` phase
dispatches per real round even though most phases touch only a handful
of devices.

This engine applies the PR-5 batching idea one level up.  Device roles —
replica of which virtual node, joiner targeting which site, client —
change only during the CLIENT-phase housekeeping at virtual-round
boundaries, so at each CLIENT round the engine rebuilds a
:class:`PhaseTable`: for every real-round offset of the virtual round,
the node-ordered tuple of devices that can possibly send or receive
anything in that phase, plus the replica contender list.  Each following
real round then touches only the listed devices through the prebound
``send_at``/``deliver_at`` entry points, with the round's
:class:`PhasePosition` computed once instead of once per device.

**Replica cohorts.**  At virtual round 0 each run of a site's fresh
replicas (consecutive nodes, slotted cores, one initial state object)
goes on one cohort store, a single row in the core phases
(:class:`~repro.vi.replica.ReplicaCohort`), stepped once per phase.
Joiners, rebirths, dict cores and a program whose ``init_state()``
builds a fresh object per call keep private stores; the per-device
dispatch and the fallback below form no cohort.

**Contention.**  Contenders are grouped per manager once per contender
tuple (an equal tuple keeps the groups).  With no crash schedule and
last round's groups, a round reuses the last advice and asks no manager
up to every manager's ``settled_through`` (a sitting leader's
speed-bound tenure), or past it if nobody was located anew and every
answer was settled.  Feedback goes to every manager that overrides it.

Byte-identity with the per-device dispatch is a design constraint, not
an aspiration (the ``vi_differential`` suite pins it):

* The engine mirrors ``Simulator._step_batched`` stage by stage — the
  same mobility/liveness block, the same contention advice (a skipped
  advise/feedback call is one that cannot differ), the same
  adversary/detector RNG stream (collision flags and delivered tuples
  are still computed for *every* present node, so round records,
  traces and wire metrics are identical object graphs), the same
  round-record bookkeeping.
* Phase rows are *supersets* of the devices that act: a listed device
  whose state machine declines (a joiner not in ``WANT_JOIN`` at JOIN,
  a replica with nothing to veto) runs the same no-op it would have run
  under per-device dispatch, while an unlisted device provably returns
  ``None``/no-ops there — so skipping its call is unobservable.
* Mid-virtual-round role changes cannot happen (housekeeping is the
  only writer of ``device.replica``/``_join_target``), so a table built
  at the CLIENT round stays valid for the whole virtual round.  The
  CLIENT round itself sends through *all* registered devices
  (housekeeping must run everywhere — that is where joins activate,
  resets rebirth and region exits tear replicas down) and only then
  rebuilds the table; its contention stage reuses the previous virtual
  round's replica set, which housekeeping cannot yet have changed.
  Membership churn (``VIWorld.add_device`` between virtual rounds) is
  covered the same way: new devices have no roles until their first
  CLIENT housekeeping, which the all-device send loop runs before the
  rebuild picks them up.

The seed per-device dispatch survives verbatim behind the ``vi`` axis
of :class:`~repro.switches.Switches` (``REPRO_REFERENCE_VI=1`` in the
environment).  The engine also steps aside — per
virtual round, falling back to plain ``Simulator.step`` — whenever the
simulator itself is pinned to its reference engine, the round cursor is
misaligned with a virtual-round boundary (someone drove ``sim.step()``
by hand), or the simulator carries nodes the world does not know about.
"""

from __future__ import annotations

from itertools import groupby
from typing import TYPE_CHECKING, Callable

from ..contention import ContentionManager
from ..core.slotted import form_cohort, shared_store
from ..detectors import EventuallyAccurateDetector
from ..net.messages import Message
from ..net.trace import RoundRecord
from ..types import NodeId, Round, VirtualRound
from .device import _NO_PAYLOADS
from .phases import PhasePosition
from .replica import ReplicaCohort, ReplicaRuntime

if TYPE_CHECKING:
    from .world import VIWorld

_NO_FEEDBACK = ContentionManager.feedback

#: One table row: ``(node, send_at, deliver_at)`` — the device's phase
#: entry points prebound, mirroring the simulator's dispatch tables — or
#: a core phase's cohort row ``(nodes, send, deliver)`` (a node tuple).
Row = tuple[NodeId | tuple[NodeId, ...], Callable, Callable]


class PhaseTable:
    """One virtual round's role tables: who can act at each offset.

    ``senders[offset]`` is a node-ordered tuple of :data:`Row`;
    ``senders[0]`` is unused (the CLIENT round sends through every
    registered device so housekeeping runs everywhere).  Receivers are
    split per offset into ``recv_mandatory[offset]`` — rows that must be
    dispatched even on a quiet reception (no messages, no collision
    flag), because silence itself is meaningful there (ballot phases
    paint red, veto-2 closes the instance, JOIN_ACK/RESET silence drives
    the joiner state machine) or a cohort row steps its members as one
    (the CHA phases, veto-1 included) — and ``recv_skippable[offset]`` —
    rows whose quiet delivery is provably a no-op (CLIENT/VN
    observation, JOIN watching, and *replica* JOIN_ACK watching, which
    only reacts to collisions).  ``contenders`` holds ``(node, cm_name)`` for
    every replica device — replicas contend for their virtual node's
    regional manager every real round.
    """

    __slots__ = ("virtual_round", "senders", "recv_mandatory",
                 "recv_skippable", "contenders")

    def __init__(self, virtual_round: VirtualRound,
                 senders: list[tuple[Row, ...]],
                 recv_mandatory: list[tuple[Row, ...]],
                 recv_skippable: list[tuple[Row, ...]],
                 contenders: tuple[tuple[NodeId, str], ...]) -> None:
        self.virtual_round = virtual_round
        self.senders = senders
        self.recv_mandatory = recv_mandatory
        self.recv_skippable = recv_skippable
        self.contenders = contenders

    def sender_nodes(self, offset: int) -> set[NodeId]:
        """Node ids that may send at ``offset`` (introspection/tests)."""
        return _row_nodes(self.senders[offset])

    def receiver_nodes(self, offset: int) -> set[NodeId]:
        """Node ids that may receive at ``offset`` (introspection/tests)."""
        return (_row_nodes(self.recv_mandatory[offset])
                | _row_nodes(self.recv_skippable[offset]))


def _group(rows) -> tuple[tuple[str, tuple[NodeId, ...]], ...]:
    """``(node, cm_name)`` rows as ``(cm_name, nodes)`` in name order."""
    groups: dict[str, list[NodeId]] = {}
    for node, cm_name in rows:
        groups.setdefault(cm_name, []).append(node)
    return tuple(sorted((name, tuple(nodes))
                        for name, nodes in groups.items()))


def _row_nodes(rows: tuple[Row, ...]) -> set[NodeId]:
    """The node ids of ``rows``, a cohort row's members included."""
    return {node for row in rows for node in
            (row[0] if row[0].__class__ is tuple else (row[0],))}


class VIRoundEngine:
    """Drives a :class:`~repro.vi.world.VIWorld` by whole virtual rounds
    through per-phase role tables."""

    def __init__(self, world: "VIWorld") -> None:
        self.world = world
        self.sim = world.sim
        self.clock = world.clock
        self.schedule = world.schedule
        #: Interned contention-manager names (one string per site, not
        #: one per replica per table rebuild).
        self._cm_names = {site.vn_id: f"vn{site.vn_id}"
                          for site in world.sites}
        self._table: PhaseTable | None = None
        #: Cache key of ``_table``: the world's role-change counter and
        #: the schedule slot it was built for.  While neither moves
        #: (steady state), the CLIENT-round rebuild reuses the table.
        self._role_version = world.role_version
        self._table_epoch = -1
        self._table_slot = -1
        self._group_rows = self._groups = ()  # contender rows, grouped
        #: ``(groups, advice, advised, min settled_through)`` of the last
        #: advised round (reset by the fallback below).
        self._settled_advice: tuple | None = None

    # ------------------------------------------------------------------
    # Table construction
    # ------------------------------------------------------------------

    def build_table(self, vr: VirtualRound) -> PhaseTable:
        """Build the role tables for virtual round ``vr`` from current
        device state (valid once CLIENT-phase housekeeping has run)."""
        schedule = self.schedule
        slot_of = schedule.slot_of
        cm_names = self._cm_names
        s = schedule.length
        slot_now = vr % s
        replicas: list[Row] = []
        scheduled: list[Row] = []
        core_sched: list[Row] = []
        core_unsched: list[Row] = []
        by_slot: dict[int, list[Row]] = {}
        cohort_rows = self._cohort_rows()
        joiners: list[Row] = []
        client_recv: list[Row] = []
        contenders: list[tuple[NodeId, str]] = []
        for node, device in self.world.devices.items():
            replica = device.replica
            if replica is not None:
                # Replica rows prebind the runtime's own phase handlers:
                # for every non-CLIENT/VN-reception phase the device
                # wrapper provably reduces to them (``_joiner_send`` is
                # an immediate ``None`` while a replica exists, and the
                # client runtime only observes CLIENT/VN receptions,
                # which go through the full ``deliver_at`` row below).
                vn = replica.site.vn_id
                crow = (node, replica.send_for, replica.deliver_for)
                replicas.append(crow)
                client_recv.append((node, device.send_at, device.deliver_at))
                contenders.append((node, cm_names[vn]))
                slot = slot_of(vn)
                # In the core phases a cohort's members are one row, at
                # its first member's place (``None`` at the others').
                core_row = cohort_rows.get(node, crow)
                if slot == slot_now:
                    scheduled.append(crow)
                    if core_row is not None:
                        core_sched.append(core_row)
                elif core_row is not None:
                    core_unsched.append(core_row)
                    by_slot.setdefault(slot, []).append(core_row)
            else:
                if device._join_target is not None:
                    # Joiners receive only in JOIN_ACK/RESET phases,
                    # where ``deliver_at`` reduces to the joiner state
                    # machine (no replica, and the client runtime does
                    # not observe those phases).
                    row = (node, device.send_at, device._joiner_deliver)
                    joiners.append(row)
                if device.client is not None:
                    client_recv.append(
                        (node, device.send_at, device.deliver_at))
        empty: tuple[Row, ...] = ()
        n_offsets = self.clock.rounds_per_virtual_round
        senders: list[tuple[Row, ...]] = [empty] * n_offsets
        mandatory: list[tuple[Row, ...]] = [empty] * n_offsets
        skippable: list[tuple[Row, ...]] = [empty] * n_offsets
        reps = tuple(replicas)
        sched = tuple(scheduled)
        cha_sched = tuple(core_sched)
        unsched = tuple(core_unsched)
        joins = tuple(joiners)
        clients = tuple(client_recv)
        # CLIENT (offset 0): every device sends (housekeeping); clients
        # and replicas observe the round's client messages (quiet
        # observation is a no-op).
        skippable[0] = clients
        # VN: replicas speak for their virtual nodes; clients + replicas
        # listen (again skippable when quiet).
        senders[1] = reps
        skippable[1] = clients
        # Scheduled CHA ballot/veto1/veto2.  Ballot silence paints the
        # instance red and veto-2 silence still closes the instance; a
        # quiet veto-1 is a no-op, but one a cohort row takes in its
        # stride, so all three receptions are mandatory.
        senders[2] = mandatory[2] = cha_sched
        senders[3] = mandatory[3] = cha_sched
        senders[4] = mandatory[4] = cha_sched
        # Unscheduled CHA ballots: one slot per schedule colour (the
        # current colour's slot and the two guard slots stay empty).
        for slot, rows in by_slot.items():
            senders[5 + slot] = mandatory[5 + slot] = tuple(rows)
        senders[s + 7] = mandatory[s + 7] = unsched
        senders[s + 8] = mandatory[s + 8] = unsched
        # JOIN: joiners request, replicas watch for join activity (a
        # quiet JOIN round leaves ``_join_activity`` untouched).
        senders[s + 9] = joins
        skippable[s + 9] = reps
        # JOIN_ACK: scheduled replicas transfer state; waiting joiners
        # adopt it — ack *silence* is what moves them to AWAIT_RESET, so
        # their rows are mandatory — while replicas only watch for ack
        # collisions (quiet reception is a no-op for them).
        senders[s + 10] = sched
        mandatory[s + 10] = joins
        skippable[s + 10] = reps
        # RESET: replicas ping liveness; probing joiners listen, and
        # total silence is exactly the rebirth trigger — mandatory.
        senders[s + 11] = reps
        mandatory[s + 11] = joins
        return PhaseTable(vr, senders, mandatory, skippable,
                          tuple(contenders))

    def _site_runs(self) -> list[list[tuple[NodeId, ReplicaRuntime]]]:
        """The ``(node, replica)`` pairs in node order, in one-site runs."""
        pairs = [(node, device.replica)
                 for node, device in self.world.devices.items()
                 if device.replica is not None]
        return [list(run) for _, run in
                groupby(pairs, key=lambda pair: pair[1].site.vn_id)]

    def _form_cohorts(self) -> None:
        """Put each run of a site's fresh replicas on one cohort store
        if ``init_state()`` gave them one object (a store has one)."""
        for run in self._site_runs():
            cores = [replica.core for _, replica in run]
            if all(core.checkpoint_state is cores[0].checkpoint_state
                   for core in cores):
                form_cohort(cores)

    def _cohort_rows(self) -> dict[NodeId, Row | None]:
        """Core-phase rows ``(nodes, send, deliver)`` of every run of a
        site's replicas holding a shared store, keyed by its first node
        (``None`` at the others).  A store rows once: its members in a
        later run, or a second store's in one run, fork out."""
        rows: dict[NodeId, Row | None] = {}
        used: set[int] = set()
        for run in self._site_runs():
            store = None
            for _, replica in run:
                shared = shared_store(replica.core)
                if shared is None or shared is store:
                    continue
                if store is None and id(shared) not in used:
                    store = shared
                    used.add(id(store))
                else:
                    replica.core.detach()
            if store is not None:
                nodes = tuple(node for node, _ in run)
                cohort = ReplicaCohort([r for _, r in run], nodes, store)
                rows.update(dict.fromkeys(nodes))
                rows[nodes[0]] = (nodes, cohort.send, cohort.deliver)
        return rows

    # ------------------------------------------------------------------
    # Round execution
    # ------------------------------------------------------------------

    def run_virtual_round(self, vr: VirtualRound) -> None:
        """Execute virtual round ``vr`` (``s + 12`` real rounds)."""
        sim = self.sim
        clock = self.clock
        rpv = clock.rounds_per_virtual_round
        first = clock.first_round_of(vr)
        if (sim.switches.engine
                or sim.current_round != first
                or len(self.world.devices) != len(sim._node_list)):
            # The simulator is pinned to its own reference loop, the
            # cursor sits mid-virtual-round (externally stepped), or the
            # simulator carries nodes this world did not register: the
            # per-device dispatch is always safe, so use it.
            self._table = self._settled_advice = None
            for _ in range(rpv):
                sim.step()
            return
        table = self._table
        if table is not None and table.virtual_round == vr - 1:
            # CLIENT-round contention runs before housekeeping can change
            # any role, so last round's replica set is exact.
            contenders = table.contenders
        else:
            # No valid previous table (virtual round 0, or a fallback).
            contenders = tuple((node, self._cm_names[replica.site.vn_id])
                               for run in self._site_runs()
                               for node, replica in run)
        positions = clock.positions_for(vr)
        self._step(first, positions[0], 0, contenders)
        contenders = self._table.contenders
        # Quiet-join fast path: replicas answer in JOIN_ACK only when the
        # JOIN round set ``_join_activity`` (a join request delivered or a
        # collision flagged), and ping in RESET only likewise (JOIN_ACK
        # collisions also set it).  A JOIN round with no broadcast and no
        # collision flag anywhere therefore provably yields an all-``None``
        # JOIN_ACK send sweep, and a quiet JOIN_ACK on top of that an
        # all-``None`` RESET sweep — so those sender loops are skipped.
        quiet_join = quiet_ack = False
        for offset in range(1, rpv):
            skip_senders = (quiet_join if offset == rpv - 2
                            else quiet_join and quiet_ack)
            traffic = self._step(first + offset, positions[offset], offset,
                                 contenders, skip_senders=skip_senders)
            if offset == rpv - 3:
                quiet_join = not traffic
            elif offset == rpv - 2:
                quiet_ack = not traffic

    def _step(self, r: Round, pos: PhasePosition, offset: int,
              contender_rows: tuple[tuple[NodeId, str], ...], *,
              skip_senders: bool = False) -> bool:
        """One real round, mirroring ``Simulator._step_batched`` stage by
        stage with phase-filtered send/deliver dispatch.

        Returns whether the round carried any traffic (a broadcast or a
        collision flag) — the quiet-join fast path's signal.
        ``skip_senders`` omits the sender sweep when the caller has
        proved every send would return ``None`` (quiet-join rounds)."""
        sim = self.sim
        nodes = sim._nodes
        crashes = sim.crashes
        no_crashes = not len(crashes)
        alive = sim.alive
        sends_in = crashes.sends_in

        # -- mobility & liveness ---------------------------------------
        present, positions, unchanged = sim._positions_batched(r)
        relocated = not (unchanged and sim.locations.staleness_bound == 0)
        if relocated:
            # see Simulator._step_batched
            sim.locations.observe(r, positions)
            sim._positions_observed = True
        sim._last_present = present
        sim._batch_prev = (r, present, positions)

        # -- contention ------------------------------------------------
        # Every table contender was present when its role was assigned
        # (roles only change in housekeeping, which only runs on present
        # devices), so with no crash schedule no per-round gate is
        # needed; with one, the aliveness + sends_in gates match the
        # batched engine's candidate filtering exactly.
        cms = sim.cms
        if no_crashes:
            # Regrouped only for another contender tuple; an equal one
            # (a rebuilt table's) keeps the groups object.
            if contender_rows is not self._group_rows \
                    and contender_rows != self._group_rows:
                self._groups = _group(contender_rows)
            self._group_rows = contender_rows
            groups = self._groups
        else:
            groups = _group([row for row in contender_rows
                             if alive(row[0], r) and sends_in(row[0], r)])
        advice: dict[str, frozenset[NodeId]] | None = None
        advised: set[NodeId] | None = None
        last = self._settled_advice
        if (no_crashes and last is not None and last[0] is groups
                and (r <= last[3] or (last[3] >= 0 and not relocated))):
            # Every manager's answer holds (module docstring).
            _, advice, advised, _ = last
        elif groups:
            advice = {}
            advised = set()
            through = float("inf")
            for cm_name, cnodes in groups:
                cm = cms[cm_name]
                granted = cm.advise(r, cnodes).intersection(cnodes)
                advice[cm_name] = granted
                advised.update(granted)
                # An attribute, so a forwarding proxy reads the same.
                through = min(through, cm.settled_through)
            self._settled_advice = (groups, advice, advised, through)

        # -- send --------------------------------------------------------
        broadcasts: dict[NodeId, Message] = {}
        send_list: list[NodeId] = []
        adv = advised if advised else ()
        if offset == 0:
            # CLIENT round: every registered device runs its send step —
            # boundary housekeeping must execute everywhere — and the
            # table for this virtual round is rebuilt from the resulting
            # roles before anything is delivered.
            for node, device in self.world.devices.items():
                if no_crashes:
                    if nodes[node].start_round > r:
                        continue
                elif not (alive(node, r) and sends_in(node, r)):
                    continue
                payload = device.send_at(pos, node in adv)
                if payload is not None:
                    broadcasts[node] = Message(node, payload)
                    send_list.append(node)
            vr_now = pos.virtual_round
            if vr_now == 0 and not self.world.switches.core:
                # Fresh deployed replicas: the one moment a cohort forms.
                self._form_cohorts()
            slot_now = vr_now % self.schedule.length
            epoch = self._role_version[0]
            table = self._table
            if (table is not None and epoch == self._table_epoch
                    and slot_now == self._table_slot):
                # No role changed and the schedule colour repeats: the
                # previous table is exact for this virtual round too.
                table.virtual_round = vr_now
            else:
                table = self._table = self.build_table(vr_now)
                self._table_epoch = epoch
                self._table_slot = slot_now
        else:
            table = self._table
            if not skip_senders:
                for row in table.senders[offset]:
                    node = row[0]
                    if node.__class__ is tuple:
                        # A cohort row: its members that may send, as one.
                        if not no_crashes:
                            node = [n for n in node
                                    if alive(n, r) and sends_in(n, r)]
                        for node, payload in row[1](pos, node, adv):
                            broadcasts[node] = Message(node, payload)
                            send_list.append(node)
                        continue
                    if not no_crashes and not (alive(node, r)
                                               and sends_in(node, r)):
                        continue
                    payload = row[1](pos, node in adv)
                    if payload is not None:
                        broadcasts[node] = Message(node, payload)
                        send_list.append(node)

        # -- channel -----------------------------------------------------
        receptions = sim.channel.deliver_batch(
            r, positions, broadcasts, send_list,
            positions_unchanged=unchanged)

        # -- detect ------------------------------------------------------
        # Flags and delivered tuples are computed for every present node
        # in node order — the adversary/detector call sequences (their
        # RNG streams) and the round record must match the per-device
        # dispatch exactly; only the protocol *dispatch* below is
        # phase-filtered.
        flags: dict[NodeId, bool] = {}
        delivered: dict[NodeId, tuple[Message, ...]] = {}
        adversary = sim.adversary
        benign = adversary.spurious_free
        false_collision = adversary.false_collision
        detector = sim.detector
        fast_detect = (type(detector) is EventuallyAccurateDetector
                       and r >= detector.racc)
        indicate = detector.indicate
        receives_in = crashes.receives_in
        any_flag = False
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

        # -- deliver (phase-filtered) ------------------------------------
        delivered_get = delivered.get
        for row in table.recv_mandatory[offset]:
            node = row[0]
            if node.__class__ is tuple:  # a cohort row
                row[2](pos, delivered, flags)
                continue
            messages = delivered_get(node)
            if messages is None:
                continue  # absent or not receiving this round
            payloads = ([m.payload for m in messages] if messages
                        else _NO_PAYLOADS)
            row[2](pos, payloads, flags[node])
        for row in table.recv_skippable[offset]:
            node = row[0]
            messages = delivered_get(node)
            if messages is None:
                continue  # absent or not receiving this round
            if messages:
                row[2](pos, [m.payload for m in messages], flags[node])
            else:
                flag = flags[node]
                if flag:
                    row[2](pos, _NO_PAYLOADS, flag)
                # else: provably no-op delivery in this phase — skipped

        # -- contention feedback -----------------------------------------
        # Only to managers that override it: the base method is a no-op.
        flags_get = flags.get
        for cm_name, cnodes in groups:
            cm = cms[cm_name]
            if type(cm).feedback is not _NO_FEEDBACK:
                collided = any_flag and any(
                    flags_get(node, False) for node in cnodes)
                cm.feedback(r, active=advice[cm_name], collided=collided)

        # -- record ------------------------------------------------------
        if no_crashes:
            crashed_now: frozenset[NodeId] = frozenset()
        else:
            crashed_now = frozenset(
                node for node in sorted(nodes)
                if alive(node, r) != alive(node, r + 1)
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
        if sim.record_trace:
            sim.trace.append(record)
        for observer in sim._observers:
            observer(record)
        sim._round += 1
        return bool(broadcasts) or any_flag
