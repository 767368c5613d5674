"""A VI world where nothing moves pays nothing per round for what did
not move, counted (CI's proportionality gate runs these tests).

Each device looks its region up once over the whole run, because its
memo is keyed by the located ``Point`` object and a static device's
never changes.  Once every region's leader is seated the phase-table
engine reuses the managers' settled advice and asks none of them again,
until a round where that advice could differ: before the managers'
``stable_round`` every round is asked, and the first stable round is
asked anew.
"""

from __future__ import annotations

import math

from _cores import count_calls
from _worlds import static_world
from repro.contention import ContentionManager, RegionalCM
from repro.geometry import Point
from repro.switches import Switches
from repro.vi import SiteIndex


def test_each_device_looks_its_region_up_once(monkeypatch):
    counts: dict[str, int] = {}
    count_calls(monkeypatch, SiteIndex, ("nearest_in_region",), counts)
    world = static_world(4)
    world.run_virtual_rounds(12)
    assert counts == {"nearest_in_region": len(world.devices)}
    assert all(world.availability(site.vn_id) == 1.0 for site in world.sites)


def test_steady_rounds_ask_no_manager(monkeypatch):
    counts: dict[str, int] = {}
    count_calls(monkeypatch, RegionalCM, ("advise",), counts)
    world = static_world(4)
    world.run_virtual_rounds(2)
    assert counts["advise"] > 0
    counts.clear()
    world.run_virtual_rounds(20)
    assert counts == {}
    assert all(world.availability(site.vn_id) == 1.0 for site in world.sites)


def advised_rounds(monkeypatch) -> list[int]:
    """Record the round of every ``RegionalCM.advise`` call."""
    rounds: list[int] = []
    original = RegionalCM.advise

    def advise(self, r, contenders):
        rounds.append(r)
        return original(self, r, contenders)

    monkeypatch.setattr(RegionalCM, "advise", advise)
    return rounds


def test_pre_stability_rounds_are_asked_and_the_first_stable_round_anew(
        monkeypatch):
    """``stable_round`` mid virtual round 1: every round with contenders
    up to it is asked (pre-stability answers are not settled), the
    first stable round elects, the next one seats the leader (settled),
    and no round after that is asked."""
    rounds = advised_rounds(monkeypatch)
    probe = static_world(4)
    rpv = probe.clock.rounds_per_virtual_round
    stable = rpv + rpv // 2
    world = static_world(4, cm_stable_round=stable)
    world.run_virtual_rounds(6)
    sites = len(world.sites)
    # Round 0 has no contenders: replicas deploy in its housekeeping.
    assert rounds == [r for r in range(1, stable + 2) for _ in range(sites)]


class NewestContender(ContentionManager):
    """Grants the highest contender id: its answer depends on the
    contenders alone, so every answer is settled.  It logs its feedback,
    which must arrive whether or not its advice was reused."""

    settled_through = math.inf

    def __init__(self, log: list) -> None:
        self.log = log

    def advise(self, r, contenders):
        return frozenset({max(contenders)})

    def feedback(self, r, *, active, collided):
        self.log.append((r, active, collided))


def contention_per_round(switches: Switches) -> tuple[list, list]:
    world = static_world(2, switches=switches)
    rpv = world.clock.rounds_per_virtual_round
    joiner = world.add_device(Point(0.05, 0.05), start_round=2 * rpv)
    feedback: list = []
    for name in world.sim.cms:
        world.sim.cms[name] = NewestContender(feedback)
    world.run_virtual_rounds(8)
    advice = [record.advised_active for record in world.sim.trace]
    assert any(joiner in advised for advised in advice)
    return advice, feedback


def test_changed_contenders_are_asked_anew():
    """A joiner's activation changes site 0's contenders while nothing
    moves.  Settled advice is reused only for the same contenders, so
    the engine asks again and grants the joiner in the same round as
    the per-device dispatch, which asks every round; feedback reaches
    the manager every round either way."""
    assert contention_per_round(Switches()) == contention_per_round(
        Switches(vi=True))
