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
answer was settled.

Byte-identity with the per-device dispatch is a design constraint, not
an aspiration (the ``vi_differential`` suite pins it):

* The engine supplies three handlers — who contends, sends and is
  delivered to — to the simulator's one round pipeline
  (:meth:`~repro.net.simulator.Simulator.run_round`), which owns the
  rest: mobility, the channel, detect for *every* present node (the
  adversary/detector RNG streams, the round records), feedback.
* Phase rows are *supersets* of the devices that act: a listed device
  whose state machine declines (a joiner not in ``WANT_JOIN`` at JOIN,
  a replica with nothing to veto) runs the same no-op it would have run
  under per-device dispatch, while an unlisted device provably returns
  ``None``/no-ops there — so skipping its call is unobservable.
* Mid-virtual-round role changes cannot happen (housekeeping is the
  only writer of ``device.replica``/``_join_target``), so a table built
  at the CLIENT round stays valid for the whole virtual round.  The
  CLIENT round itself sends through *every* present device
  (housekeeping must run everywhere — that is where joins activate,
  resets rebirth and region exits tear replicas down) and only then
  rebuilds the table; its contention stage reuses the previous virtual
  round's replica set, which housekeeping cannot yet have changed.
  Membership churn (``VIWorld.add_device`` between virtual rounds) is
  covered the same way: new devices have no roles until their first
  CLIENT housekeeping, which the all-device send loop runs before the
  rebuild picks them up.

The seed per-device dispatch survives verbatim behind the ``vi`` axis
of :class:`~repro.switches.Switches` (``spec.switches``).  The engine
also steps aside — per
virtual round, falling back to plain ``Simulator.step`` — whenever the
simulator itself is pinned to its reference engine, the round cursor is
misaligned with a virtual-round boundary (someone drove ``sim.step()``
by hand), or the simulator carries nodes the world does not know about.
"""

from __future__ import annotations

from itertools import groupby
from typing import TYPE_CHECKING, Callable

from ..core.slotted import form_cohort, shared_store
from ..net.messages import Message
from ..types import NodeId, Round, VirtualRound
from .device import _NO_PAYLOADS
from .phases import PhasePosition
from .replica import ReplicaCohort, ReplicaRuntime

if TYPE_CHECKING:
    from .world import VIWorld

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
        #: The round the handlers are called for (run_virtual_round).
        self._rows: tuple[tuple[NodeId, str], ...] = ()
        self._pos: PhasePosition | None = None
        self._offset = 0
        self._skip_senders = False

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
                or len(self.world.devices) != len(sim.node_ids)):
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
            self._rows = table.contenders
        else:
            # No valid previous table (virtual round 0, or a fallback).
            self._rows = tuple((node, self._cm_names[replica.site.vn_id])
                               for run in self._site_runs()
                               for node, replica in run)
        positions = clock.positions_for(vr)
        # Quiet-join fast path: replicas answer in JOIN_ACK only when the
        # JOIN round set ``_join_activity`` (a join request delivered or a
        # collision flagged), and ping in RESET only likewise (JOIN_ACK
        # collisions also set it).  A JOIN round with no broadcast and no
        # collision flag anywhere therefore provably yields an all-``None``
        # JOIN_ACK send sweep, and a quiet JOIN_ACK on top of that an
        # all-``None`` RESET sweep — so those sender loops are skipped.
        quiet_join = quiet_ack = False
        for offset in range(rpv):
            self._pos = positions[offset]
            self._offset = offset
            self._skip_senders = (quiet_join if offset == rpv - 2
                                  else quiet_join and quiet_ack)
            _, traffic = sim.run_round(self._contend, self._send,
                                       self._deliver)
            if offset == 0:
                self._rows = self._table.contenders
            elif offset == rpv - 3:
                quiet_join = not traffic
            elif offset == rpv - 2:
                quiet_ack = not traffic

    # -- the three handlers of Simulator.run_round ------------------------

    def _contend(self, r: Round, present, relocated: bool) -> tuple:
        """The table's replica contenders, grouped per manager; with no
        crash schedule the last advice while it is settled (module
        docstring)."""
        sim = self.sim
        crashes = sim.crashes
        rows = self._rows
        if not len(crashes):
            # Every table contender was present when its role was
            # assigned (roles only change in housekeeping, which only runs
            # on present devices), so no per-round gate is needed.
            # Regrouped only for another contender tuple; an equal one
            # (a rebuilt table's) keeps the groups object.
            if rows is not self._group_rows and rows != self._group_rows:
                self._groups = _group(rows)
            self._group_rows = rows
            groups = self._groups
            last = self._settled_advice
            if (last is not None and last[0] is groups
                    and (r <= last[3] or (last[3] >= 0 and not relocated))):
                return groups, last[1], last[2]
        else:
            # The batched engine's candidate filtering, exactly.
            alive = sim.alive
            sends_in = crashes.sends_in
            groups = _group([row for row in rows
                             if alive(row[0], r) and sends_in(row[0], r)])
        if not groups:
            return groups, None, None
        advice, advised = sim.advise(r, groups)
        # An attribute, so a forwarding proxy reads the same.
        through = min(sim.cms[name].settled_through for name, _ in groups)
        self._settled_advice = (groups, advice, advised, through)
        return groups, advice, advised

    def _send(self, r: Round, present, advised) -> tuple[dict, list]:
        """The phase's sender rows.  At the CLIENT round every present
        device sends — boundary housekeeping must execute everywhere —
        and the table for this virtual round is then rebuilt from the
        resulting roles, before anything is delivered."""
        broadcasts: dict[NodeId, Message] = {}
        senders: list[NodeId] = []
        pos = self._pos
        alive = self.sim.alive
        sends_in = self.sim.crashes.sends_in
        gated = len(self.sim.crashes) > 0
        if self._offset == 0:
            devices = self.world.devices
            rows = [(node, devices[node].send_at) for node in present]
        else:
            rows = () if self._skip_senders else self._table.senders[
                self._offset]
        for row in rows:
            node = row[0]
            if node.__class__ is tuple:
                # A cohort row: its members that may send, as one.
                if gated:
                    node = [n for n in node if alive(n, r) and sends_in(n, r)]
                for node, payload in row[1](pos, node, advised):
                    broadcasts[node] = Message(node, payload)
                    senders.append(node)
                continue
            if gated and not (alive(node, r) and sends_in(node, r)):
                continue
            payload = row[1](pos, node in advised)
            if payload is not None:
                broadcasts[node] = Message(node, payload)
                senders.append(node)
        if self._offset == 0:
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
                self._table = self.build_table(vr_now)
                self._table_epoch = epoch
                self._table_slot = slot_now
        return broadcasts, senders

    def _deliver(self, r: Round, present, broadcasts, delivered, flags,
                 uniform: bool) -> None:
        """The phase's receiver rows: mandatory ones always, skippable
        ones unless their reception is quiet."""
        pos = self._pos
        offset = self._offset
        table = self._table
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
