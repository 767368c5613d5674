"""Tests for the atomic register over a virtual node."""

from repro.apps import ReaderClient, RegisterProgram, WriterClient
from repro.geometry import Point
from repro.net import CrashSchedule
from repro.vi import VIWorld
from repro.workloads import single_region


def register_world(**kwargs):
    sites, devices = single_region(3)
    world = VIWorld(sites, {0: RegisterProgram()}, **kwargs)
    for pos in devices:
        world.add_device(pos)
    return world


class TestRegisterProgram:
    def test_initial_state_silent(self):
        p = RegisterProgram()
        assert p.emit(p.init_state(), 0) is None

    def test_write_adopted(self):
        from repro.vi import VirtualObservation
        p = RegisterProgram()
        s = p.step(p.init_state(), 0,
                   VirtualObservation((("cl", ("write", 1, "a")),), False))
        assert s == (1, "a")
        assert p.emit(s, 1) == ("reg", 1, "a")

    def test_last_writer_wins_by_seq(self):
        from repro.vi import VirtualObservation
        p = RegisterProgram()
        s = p.step((5, "old"), 0,
                   VirtualObservation((("cl", ("write", 3, "stale")),), False))
        assert s == (5, "old")

    def test_tie_breaks_deterministically(self):
        from repro.vi import VirtualObservation
        p = RegisterProgram()
        obs = VirtualObservation(
            (("cl", ("write", 2, "a")), ("cl", ("write", 2, "b"))), False,
        )
        assert p.step(p.init_state(), 0, obs) == (2, "b")


class TestEndToEnd:
    def test_write_then_read(self):
        world = register_world()
        writer = WriterClient({1: "hello"})
        reader = ReaderClient()
        world.add_device(Point(0.4, 0), client=writer, initially_active=False)
        world.add_device(Point(0, 0.4), client=reader, initially_active=False)
        world.run_virtual_rounds(6)
        assert reader.reads, "reader saw no register broadcasts"
        assert reader.reads[-1][2] == "hello"

    def test_reader_sees_monotone_sequence(self):
        world = register_world()
        writer = WriterClient({1: "v1", 3: "v2", 5: "v3"})
        reader = ReaderClient()
        world.add_device(Point(0.4, 0), client=writer, initially_active=False)
        world.add_device(Point(0, 0.4), client=reader, initially_active=False)
        world.run_virtual_rounds(10)
        seqs = reader.observed_sequence()
        assert seqs == sorted(seqs), "register went backwards"
        assert seqs[-1] == 3

    def test_register_survives_replica_crash(self):
        world = register_world(crashes=CrashSchedule.of({0: 30}))
        writer = WriterClient({1: "persist"})
        reader = ReaderClient()
        world.add_device(Point(0.4, 0), client=writer, initially_active=False)
        world.add_device(Point(0, 0.4), client=reader, initially_active=False)
        world.run_virtual_rounds(10)
        late_reads = [v for vr, _, v in reader.reads if vr > 4]
        assert late_reads and set(late_reads) == {"persist"}

    def test_two_writers_register_stays_coherent(self):
        world = register_world()
        a = WriterClient({1: "from-a"}, base_seq=1)
        b = WriterClient({3: "from-b"}, base_seq=10)
        reader = ReaderClient()
        world.add_device(Point(0.4, 0), client=a, initially_active=False)
        world.add_device(Point(-0.4, 0), client=b, initially_active=False)
        world.add_device(Point(0, 0.4), client=reader, initially_active=False)
        world.run_virtual_rounds(8)
        assert reader.reads[-1][2] == "from-b"  # higher sequence number
        world.check_replica_consistency(0)
