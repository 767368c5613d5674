"""Unit tests for channel adversaries."""

import pytest

from repro.net import (
    ComposedAdversary,
    Message,
    NoAdversary,
    PartitionAdversary,
    RandomLossAdversary,
    ScriptedAdversary,
    WindowAdversary,
)


def tentative(**receivers):
    """Build a tentative-delivery map: receiver -> messages by sender."""
    return {
        recv: tuple(Message(s, f"m{s}") for s in senders)
        for recv, senders in receivers.items()
    }


class TestNoAdversary:
    def test_no_drops(self):
        adv = NoAdversary()
        assert adv.drops(0, tentative(**{"1": [0]})) == {}

    def test_no_false_collisions(self):
        assert not NoAdversary().false_collision(0, 1)


class TestRandomLoss:
    def test_p_zero_drops_nothing(self):
        adv = RandomLossAdversary(p_drop=0.0, seed=1)
        assert adv.drops(0, tentative(**{"1": [0, 2]})) == {}

    def test_p_one_drops_everything(self):
        adv = RandomLossAdversary(p_drop=1.0, seed=1)
        t = {1: (Message(0, "a"), Message(2, "b"))}
        assert adv.drops(0, t) == {1: frozenset({0, 2})}

    def test_deterministic_given_seed(self):
        t = {r: (Message(0, "a"), Message(2, "b")) for r in range(5)}
        a = RandomLossAdversary(p_drop=0.5, seed=9)
        b = RandomLossAdversary(p_drop=0.5, seed=9)
        assert [a.drops(r, t) for r in range(10)] == [b.drops(r, t) for r in range(10)]

    def test_empty_receptions_draw_nothing(self):
        """Receivers whose tentative tuple is empty are skipped: the drops
        and the RNG stream are those of a loop that visits them all."""
        def visiting_every_receiver(adv, tentative):
            out = {}
            for receiver in sorted(tentative):
                doomed = frozenset(
                    msg.sender for msg in tentative[receiver]
                    if adv._rng.random() < adv._p_drop)
                if doomed:
                    out[receiver] = doomed
            return out

        mixed = {r: tuple(Message(s, f"m{s}") for s in range(r % 4))
                 for r in range(12)}
        adv = RandomLossAdversary(p_drop=0.4, seed=3)
        old = RandomLossAdversary(p_drop=0.4, seed=3)
        for r in range(5):
            drops = adv.drops(r, mixed)
            assert drops == visiting_every_receiver(old, mixed)
            assert adv._rng.getstate() == old._rng.getstate()
        assert drops and all(mixed[receiver] for receiver in drops)

    def test_false_collisions_rate(self):
        adv = RandomLossAdversary(p_drop=0.0, p_false=1.0, seed=4)
        assert adv.false_collision(0, 0)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            RandomLossAdversary(p_drop=1.5)


class TestScripted:
    def test_drop_all(self):
        adv = ScriptedAdversary(drop_script={(3, 1): "all"})
        t = {1: (Message(0, "a"), Message(2, "b"))}
        assert adv.drops(3, t) == {1: frozenset({0, 2})}

    def test_drop_specific_senders(self):
        adv = ScriptedAdversary(drop_script={(0, 1): [2]})
        t = {1: (Message(0, "a"), Message(2, "b"))}
        assert adv.drops(0, t) == {1: frozenset({2})}

    def test_unlisted_rounds_untouched(self):
        adv = ScriptedAdversary(drop_script={(0, 1): "all"})
        assert adv.drops(5, {1: (Message(0, "a"),)}) == {}

    def test_false_collision_script(self):
        adv = ScriptedAdversary(false_script=[(2, 7)])
        assert adv.false_collision(2, 7)
        assert not adv.false_collision(2, 8)
        assert not adv.false_collision(3, 7)


class TestPartition:
    def test_cross_group_messages_dropped(self):
        adv = PartitionAdversary([[0, 1], [2, 3]])
        t = {0: (Message(1, "a"), Message(2, "b"))}
        assert adv.drops(0, t) == {0: frozenset({2})}

    def test_partition_heals_when_its_window_closes(self):
        adv = WindowAdversary(PartitionAdversary([[0], [1]]), until=5)
        t = {0: (Message(1, "a"),)}
        assert adv.drops(5, t) == {}
        assert adv.drops(4, t) == {0: frozenset({1})}

    def test_unknown_nodes_form_their_own_group(self):
        adv = PartitionAdversary([[0]])
        t = {0: (Message(9, "a"),)}
        # Node 9 is in no group: treated as a different group from node 0.
        assert adv.drops(0, t) == {0: frozenset({9})}

    def test_duplicate_membership_rejected(self):
        with pytest.raises(ValueError):
            PartitionAdversary([[0, 1], [1, 2]])


class TestComposed:
    def test_drops_union(self):
        a = ScriptedAdversary(drop_script={(0, 1): [0]})
        b = ScriptedAdversary(drop_script={(0, 1): [2]})
        both = ComposedAdversary(a, b)
        t = {1: (Message(0, "a"), Message(2, "b"))}
        assert both.drops(0, t) == {1: frozenset({0, 2})}

    def test_false_collision_any(self):
        a = ScriptedAdversary(false_script=[(1, 1)])
        b = ScriptedAdversary()
        assert ComposedAdversary(a, b).false_collision(1, 1)
        assert not ComposedAdversary(a, b).false_collision(0, 0)
