"""Unit tests for the quasi-unit-disk collision channel."""

import pytest

from repro.errors import ConfigurationError
from repro.geometry import Point
from repro.net import Message, RadioSpec, ScriptedAdversary
from repro.net.channel import Channel
from repro.switches import Switches


def deliver(channel, r, positions, broadcasts):
    msgs = {s: Message(s, p) for s, p in broadcasts.items()}
    return channel.deliver(r, positions, msgs)


@pytest.fixture
def spec():
    return RadioSpec(r1=1.0, r2=2.0, rcf=0)


class TestRadioSpec:
    def test_rejects_r2_below_r1(self):
        with pytest.raises(ConfigurationError):
            RadioSpec(r1=2.0, r2=1.0)

    def test_rejects_nonpositive_r1(self):
        with pytest.raises(ConfigurationError):
            RadioSpec(r1=0.0, r2=1.0)

    def test_rejects_negative_rcf(self):
        with pytest.raises(ConfigurationError):
            RadioSpec(r1=1.0, r2=1.0, rcf=-1)


class TestBasicDelivery:
    def test_single_sender_reaches_r1_neighbor(self, spec):
        ch = Channel(spec)
        rec = deliver(ch, 0, {0: Point(0, 0), 1: Point(0.5, 0)}, {0: "m"})
        assert [m.payload for m in rec[1].messages] == ["m"]
        assert not rec[1].lost_within_r1
        assert not rec[1].lost_within_r2

    def test_sender_hears_itself(self, spec):
        ch = Channel(spec)
        rec = deliver(ch, 0, {0: Point(0, 0), 1: Point(0.5, 0)}, {0: "m"})
        assert [m.payload for m in rec[0].messages] == ["m"]

    def test_out_of_r1_no_delivery(self, spec):
        ch = Channel(spec)
        rec = deliver(ch, 0, {0: Point(0, 0), 1: Point(1.5, 0)}, {0: "m"})
        assert rec[1].messages == ()
        # The sender is within R2, so the loss licences a collision report.
        assert not rec[1].lost_within_r1
        assert rec[1].lost_within_r2

    def test_out_of_r2_silence(self, spec):
        ch = Channel(spec)
        rec = deliver(ch, 0, {0: Point(0, 0), 1: Point(5, 0)}, {0: "m"})
        assert rec[1].messages == ()
        assert not rec[1].lost_within_r1
        assert not rec[1].lost_within_r2

    def test_delivery_on_r1_boundary(self, spec):
        ch = Channel(spec)
        rec = deliver(ch, 0, {0: Point(0, 0), 1: Point(1.0, 0)}, {0: "m"})
        assert [m.payload for m in rec[1].messages] == ["m"]

    def test_no_broadcasts_all_quiet(self, spec):
        ch = Channel(spec)
        rec = deliver(ch, 0, {0: Point(0, 0), 1: Point(0.5, 0)}, {})
        assert rec[0].messages == () and rec[1].messages == ()
        assert not rec[0].lost_within_r2


class TestContention:
    def test_two_senders_in_r2_destroy_each_other(self, spec):
        ch = Channel(spec)
        positions = {0: Point(0, 0), 1: Point(0.5, 0), 2: Point(0.25, 0)}
        rec = deliver(ch, 0, positions, {0: "a", 1: "b"})
        assert rec[2].messages == ()
        assert rec[2].lost_within_r1  # both senders within R1 of node 2

    def test_far_apart_senders_both_deliver(self, spec):
        # Senders more than 2*R2 apart cannot interfere anywhere.
        positions = {0: Point(0, 0), 1: Point(10, 0),
                     2: Point(0.5, 0), 3: Point(10.5, 0)}
        ch = Channel(spec)
        rec = deliver(ch, 0, positions, {0: "a", 1: "b"})
        assert [m.payload for m in rec[2].messages] == ["a"]
        assert [m.payload for m in rec[3].messages] == ["b"]

    def test_interference_from_r2_ring_sender(self, spec):
        # Sender 1 is outside R1 but inside R2 of the receiver: its
        # presence destroys sender 0's message at the receiver.
        positions = {0: Point(0, 0), 1: Point(2.4, 0), 2: Point(0.5, 0)}
        ch = Channel(spec)
        rec = deliver(ch, 0, positions, {0: "a", 1: "b"})
        assert rec[2].messages == ()
        assert rec[2].lost_within_r1

    def test_broadcaster_misses_concurrent_sender(self, spec):
        positions = {0: Point(0, 0), 1: Point(0.5, 0)}
        ch = Channel(spec)
        rec = deliver(ch, 0, positions, {0: "a", 1: "b"})
        # Each hears only itself and has lost the other's message in-R1.
        assert [m.payload for m in rec[0].messages] == ["a"]
        assert rec[0].lost_within_r1
        assert [m.payload for m in rec[1].messages] == ["b"]
        assert rec[1].lost_within_r1

    def test_non_uniform_reception(self, spec):
        # Node 2 is close to both senders (collision); node 3 only hears
        # sender 1 because sender 0 is beyond its R2.  "A message may be
        # received by some nodes, but not others."
        positions = {0: Point(0, 0), 1: Point(4, 0),
                     2: Point(2, 0), 3: Point(4.5, 0)}
        ch = Channel(spec)
        rec = deliver(ch, 0, positions, {0: "a", 1: "b"})
        assert rec[2].messages == ()
        assert [m.payload for m in rec[3].messages] == ["b"]


class TestAdversary:
    def test_adversarial_drop_before_rcf(self):
        spec = RadioSpec(r1=1.0, r2=2.0, rcf=10)
        adv = ScriptedAdversary(drop_script={(0, 1): "all"})
        ch = Channel(spec, adv)
        rec = deliver(ch, 0, {0: Point(0, 0), 1: Point(0.5, 0)}, {0: "m"})
        assert rec[1].messages == ()
        assert rec[1].lost_within_r1

    def test_adversary_silenced_after_rcf(self):
        spec = RadioSpec(r1=1.0, r2=2.0, rcf=5)
        adv = ScriptedAdversary(drop_script={(7, 1): "all"})
        ch = Channel(spec, adv)
        rec = deliver(ch, 7, {0: Point(0, 0), 1: Point(0.5, 0)}, {0: "m"})
        assert [m.payload for m in rec[1].messages] == ["m"]

    def test_selective_drop(self):
        spec = RadioSpec(r1=10.0, r2=10.0, rcf=10)
        adv = ScriptedAdversary(drop_script={(0, 2): [0]})
        ch = Channel(spec, adv)
        positions = {0: Point(0, 0), 1: Point(50, 0), 2: Point(1, 0)}
        # Only node 0 broadcasts; node 1 is far away and irrelevant.
        rec = deliver(ch, 0, positions, {0: "a"})
        assert rec[2].messages == ()
        assert rec[2].lost_within_r1

    def test_unpositioned_broadcaster_rejected(self, spec):
        ch = Channel(spec)
        with pytest.raises(ConfigurationError):
            ch.deliver(0, {1: Point(0, 0)}, {0: Message(0, "m")})


class TestSaturatingRecord:
    """The indexed path's per-receiver record saturates: work on a
    crowded round is bounded by receivers, not senders x receivers."""

    class CountingDict(dict):
        writes = 0

        def __setitem__(self, key, value):
            self.writes += 1
            super().__setitem__(key, value)

    @staticmethod
    def cluster(first_id, x, y, n=100):
        """``n`` nodes on a 10-wide lattice 0.05 apart: all inside one
        grid cell and inside R1 of each other."""
        return {first_id + i: Point(x + 0.05 * (i % 10), y + 0.05 * (i // 10))
                for i in range(n)}

    def test_record_writes_bounded_by_receivers(self):
        spec = RadioSpec(r1=1.0, r2=1.5)
        positions = self.cluster(0, 0.2, 0.2)
        # Ten listeners in the next cell, in every sender's R1-R2 annulus:
        # contended by the second sender and never final, so all fifty
        # senders test them — and must not write their entry again.
        positions.update({100 + i: Point(1.675, 0.425) for i in range(10)})
        broadcasts = dict.fromkeys(range(0, 100, 2), "veto")
        ch = Channel(spec, switches=Switches())
        record = ch._heard = self.CountingDict()
        got = deliver(ch, 0, positions, broadcasts)
        # one sender -> contended -> final, at most; the list-per-receiver
        # bookkeeping this replaced did 2 x 50 x 99 appends on the cluster.
        assert 0 < record.writes <= 3 * len(positions)
        assert not got[100].lost_within_r1 and got[100].lost_within_r2
        assert got == deliver(Channel(spec, switches=Switches(channel=True)),
                              0, positions, broadcasts)

    def test_saturation_in_one_cell_does_not_silence_another(self):
        # Four crowded clusters out of each other's earshot: each must be
        # walked even after the others' cells are full of final nodes.
        spec = RadioSpec(r1=1.0, r2=1.5)
        positions = {}
        for k, (x, y) in enumerate([(0.2, 0.2), (30.2, 0.2),
                                    (0.2, 30.2), (30.2, 30.2)]):
            positions.update(self.cluster(100 * k, x, y, n=20))
        broadcasts = {s: "veto" for s in positions if s % 100 < 6}
        got = deliver(Channel(spec, switches=Switches()), 0, positions, broadcasts)
        assert got == deliver(Channel(spec, switches=Switches(channel=True)),
                              0, positions, broadcasts)
        assert all(rec.lost_within_r1 and rec.lost_within_r2
                   for rec in got.values())
