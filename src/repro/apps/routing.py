"""Geographic routing over a virtual-node overlay ([12, 16, 17, 40]).

Virtual nodes form a static overlay (they never move), which turns ad hoc
routing into routing on a fixed graph — the paper's motivating
observation.  This module builds mailbox virtual nodes wired with static
next-hop tables computed by shortest paths on the overlay graph, plus the
sender/receiver client programs.

Delivery semantics: a packet hops one virtual node per *scheduled emit*
along its path and is finally broadcast as ``("deliver", dest_vn, body)``
in the destination's region.  Hops ride the collision-prone virtual
channel — lost relays are lost packets, exactly like real radio.
"""

from __future__ import annotations

from typing import Any

from ..geometry import Point
from ..types import VirtualRound
from ..vi.client import ClientProgram
from ..vi.program import MailboxProgram, VirtualObservation
from ..vi.schedule import VNSite, proximity_graph


class DeliveringMailboxProgram(MailboxProgram):
    """A mailbox that announces arrivals: inbox items are broadcast as
    ``("deliver", vn_id, body)`` (and then dropped), so receiver clients
    in the region can pick them up."""

    def emit(self, state, vr):
        if not self.is_my_slot(vr):
            return None
        inbox, outbox = state
        if inbox:
            _, body = inbox[0]
            return ("deliver", self.vn_id, body)
        return super().emit(state, vr)

    def step(self, state, vr, observation: VirtualObservation):
        inbox, outbox = state
        emitted = self.emit(state, vr)
        if emitted is not None and emitted[0] == "deliver":
            state = (inbox[1:], outbox)
        inbox, outbox = state
        if emitted is not None and emitted[0] == "relay":
            outbox = outbox[1:]

        def accept(dest, body):
            nonlocal inbox, outbox
            if dest == self.vn_id:
                inbox = inbox + ((dest, body),)
            elif dest in self.next_hop:
                outbox = outbox + ((dest, body),)

        for item in observation.messages:
            if item[0] == "cl":
                payload = item[1]
                if (isinstance(payload, tuple) and len(payload) == 4
                        and payload[0] == "send" and payload[1] == self.vn_id):
                    accept(payload[2], payload[3])
            elif item[0] == "vn":
                payload = item[2]
                if (isinstance(payload, tuple) and len(payload) == 4
                        and payload[0] == "relay" and payload[1] == self.vn_id):
                    accept(payload[2], payload[3])
        return (inbox, outbox)


def overlay_graph(sites: list[VNSite], *, virtual_range: float
                  ) -> dict[int, list[int]]:
    """The overlay: ``{vn_id: [ids of the sites within mutual virtual
    range]}``, the keys and every neighbour list in site order."""
    return proximity_graph(sites, virtual_range)


def build_routing_programs(sites: list[VNSite], *, virtual_range: float = 0.5,
                           ) -> dict[int, DeliveringMailboxProgram]:
    """One mailbox program per site, with shortest-path next-hop tables.

    Each table comes from a level-order BFS that visits neighbours in
    site order — the order in which networkx's
    ``single_source_shortest_path`` discovers them — so ties between
    equal-length paths break the same way.
    """
    adjacency = overlay_graph(sites, virtual_range=virtual_range)
    programs = {}
    for site in sites:
        source = site.vn_id
        table: dict[int, int] = {}
        frontier = [source]
        for node in frontier:           # grows as it goes: a FIFO queue
            for neighbour in adjacency[node]:
                if neighbour != source and neighbour not in table:
                    table[neighbour] = (neighbour if node == source
                                        else table[node])
                    frontier.append(neighbour)
        programs[source] = DeliveringMailboxProgram(source, table)
    return programs


class SenderClient(ClientProgram):
    """Deposits scripted packets at a named ingress virtual node:
    ``sends[vr] = (dest_vn, body)`` enter the overlay at ``ingress``."""

    def __init__(self, ingress: int,
                 sends: dict[VirtualRound, tuple[int, Any]]) -> None:
        self.ingress = ingress
        self.sends = dict(sends)

    def on_round(self, vr, observation):
        target = vr + 1
        if target in self.sends:
            dest, body = self.sends[target]
            return ("send", self.ingress, dest, body)
        return None


class ReceiverClient(ClientProgram):
    """Collects ``("deliver", vn, body)`` announcements it overhears."""

    def __init__(self) -> None:
        self.received: list[tuple[VirtualRound, int, Any]] = []

    def on_round(self, vr, observation):
        for item in observation.messages:
            if item[0] == "vn" and isinstance(item[2], tuple) \
                    and item[2][0] == "deliver":
                _, vn, body = item[2]
                self.received.append((vr, vn, body))
        return None
