"""Unit tests for message envelopes and wire-size accounting, and the
sentinel that every wire object a kept trace reaches is frozen."""

import dataclasses
import enum
from collections.abc import Mapping
from dataclasses import dataclass
from typing import NamedTuple

import pytest
from hypothesis import given, strategies as st

from _oracles import chained_wire_size
from _worlds import vi_orbit_spec
from repro import (ClusterWorld, EnvironmentSpec, ExperimentSpec,
                   WorkloadSpec, run)
from repro.baselines.majority_rsm import Ack, Commit, Propose
from repro.baselines.naive_rsm import NaiveBallotPayload
from repro.core.ballot import Ballot, BallotPayload, VetoPayload
from repro.experiment import (CHA, CheckpointCHA, MajorityRSM, NaiveRSM,
                              TwoPhaseCHA)
from repro.geometry import Point
from repro.net import RandomLossAdversary
from repro.net.trace import RoundRecord
from repro.vi.payloads import AlivePing, ClientMsg, JoinAck, JoinRequest, VNMsg
from repro.types import Color
from repro.net.messages import (
    CONTAINER_OVERHEAD,
    INT_SIZE,
    Message,
    NONE_SIZE,
    wire_size,
)


class TestWireSize:
    def test_none(self):
        assert wire_size(None) == NONE_SIZE

    def test_bool_is_one_byte(self):
        assert wire_size(True) == 1
        assert wire_size(False) == 1

    def test_int_constant_regardless_of_magnitude(self):
        assert wire_size(0) == wire_size(10**100) == INT_SIZE

    def test_float(self):
        assert wire_size(1.5) == 8

    def test_str_length_prefixed(self):
        assert wire_size("abc") == CONTAINER_OVERHEAD + 3

    def test_bytes(self):
        assert wire_size(b"abcd") == CONTAINER_OVERHEAD + 4

    def test_tuple_sums_elements(self):
        assert wire_size((1, 2)) == CONTAINER_OVERHEAD + 2 * INT_SIZE

    def test_nested_containers(self):
        inner = wire_size((1,))
        assert wire_size(((1,), (1,))) == CONTAINER_OVERHEAD + 2 * inner

    def test_dict(self):
        assert wire_size({"a": 1}) == CONTAINER_OVERHEAD + wire_size("a") + INT_SIZE

    def test_dataclass_encoded_as_fields(self):
        b = Ballot("v", 3)
        assert wire_size(b) == CONTAINER_OVERHEAD + wire_size("v") + INT_SIZE

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            wire_size(object())

    def test_field_table_sizes_as_fields_did(self):
        # The per-type field-name table must not change a size: slots and
        # plain dataclasses, nesting, and repeat calls on a seen type.
        @dataclass(frozen=True, slots=True)
        class Slotted:
            tag: str
            k: int

        @dataclass
        class Nested:
            inner: Slotted
            extra: tuple
            flag: bool = False

        slotted = CONTAINER_OVERHEAD + wire_size("ab") + INT_SIZE
        nested = (CONTAINER_OVERHEAD + slotted
                  + wire_size((1, None)) + wire_size(False))
        for _ in range(2):  # first sight, then from the table
            assert wire_size(Slotted("ab", 7)) == slotted
            assert wire_size(Nested(Slotted("cd", 0), (1, None))) == nested

    def test_unsupported_types_keep_raising(self):
        @dataclass
        class Holder:
            what: object

        for _ in range(2):
            with pytest.raises(TypeError, match="unsupported payload type"):
                wire_size(Holder(object()))  # the field, not the holder
            with pytest.raises(TypeError, match="unsupported payload type"):
                wire_size(Holder)  # a dataclass *type* is not a payload
            with pytest.raises(TypeError, match="unsupported payload type"):
                wire_size(3 + 4j)

    def test_ballot_payload_size_independent_of_instance(self):
        # Theorem 14: instance pointers are constant size.
        small = BallotPayload("t", 1, Ballot("vv", 0))
        large = BallotPayload("t", 10**9, Ballot("vv", 10**9 - 1))
        assert wire_size(small) == wire_size(large)

    def test_veto_payload_constant(self):
        assert wire_size(VetoPayload("t", 1, 1)) == wire_size(VetoPayload("t", 999, 2))


class _Kind(enum.Enum):
    A = "a"


class _Text(str):
    pass


class _Count(int):
    pass


class _Pair(NamedTuple):
    left: object
    right: object


@dataclass(frozen=True)
class _Box:
    item: object
    k: int = 3


_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.text(max_size=4), st.binary(max_size=4),
    st.integers().map(_Count), st.text(max_size=3).map(_Text),
    st.sampled_from([Color.GREEN, Color.RED, _Kind.A]),
    st.just(3 + 4j))  # unsupported: both sides must raise


def _nest(children):
    return st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.tuples(children, children).map(lambda p: _Pair(*p)),
        st.frozensets(st.integers(), max_size=3),
        st.dictionaries(st.text(max_size=2), children, max_size=2),
        children.map(_Box),
    )


class TestWireSizeAgainstTheChain:
    """The exact-type lookups size every payload as the ``isinstance``
    chain they short-cut (:func:`_oracles.chained_wire_size`)."""

    @given(st.recursive(_leaves, _nest, max_leaves=12))
    def test_nested_payloads_size_as_the_chain(self, payload):
        try:
            expected = chained_wire_size(payload)
        except TypeError:
            with pytest.raises(TypeError, match="unsupported payload type"):
                wire_size(payload)
        else:
            assert wire_size(payload) == expected


class TestMessage:
    def test_size_property_matches_wire_size(self):
        m = Message(sender=3, payload=("x", 1))
        assert m.size == wire_size(("x", 1))

    def test_message_is_frozen(self):
        m = Message(sender=0, payload="p")
        with pytest.raises(Exception):
            m.payload = "q"  # type: ignore[misc]


# ----------------------------------------------------------------------
# Immutability: every wire object a trace reaches is frozen
# ----------------------------------------------------------------------


def _fold(state, k, value):
    return state + 1


def _cluster(protocol):
    """Four nodes, six instances; losses before ``rcf`` make vetoes."""
    return ExperimentSpec(
        protocol=protocol, world=ClusterWorld(n=4, rcf=9),
        environment=EnvironmentSpec(
            adversary=RandomLossAdversary(p_drop=0.3, seed=1)),
        workload=WorkloadSpec(instances=6))


#: One small traced world per protocol family, and the dataclasses its
#: trace must reach (so an empty walk cannot pass).  The VI world's
#: roamers join, so its trace carries join acks whose snapshots hold the
#: ballots a replica's core kept.
_FAMILIES = {
    "cha": (lambda: _cluster(CHA()), {BallotPayload, Ballot, VetoPayload}),
    "checkpoint-cha": (
        lambda: _cluster(CheckpointCHA(reducer=_fold, initial_state=0)),
        {BallotPayload, Ballot, VetoPayload}),
    "two-phase-cha": (lambda: _cluster(TwoPhaseCHA()),
                      {BallotPayload, Ballot, VetoPayload}),
    "naive-rsm": (lambda: _cluster(NaiveRSM()),
                  {NaiveBallotPayload, Ballot, VetoPayload}),
    "majority-rsm": (lambda: _cluster(MajorityRSM()), {Propose, Ack, Commit}),
    "vi-join": (vi_orbit_spec,
                {ClientMsg, VNMsg, JoinRequest, JoinAck, AlivePing,
                 BallotPayload, Ballot}),
}


def _reachable_dataclasses(root) -> set[type]:
    """The classes of every dataclass instance reachable from ``root``
    through dataclass fields and containers."""
    found, seen, stack = set(), set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            found.add(type(obj))
            stack.extend(getattr(obj, field.name)
                         for field in dataclasses.fields(obj))
        elif isinstance(obj, Mapping):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
    return found


@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_every_dataclass_a_trace_reaches_is_frozen(family):
    """Wire objects are immutable: every dataclass instance a kept trace
    reaches (records, messages, payloads, ballots, positions) is of a
    ``frozen=True`` dataclass, so sharing one between receivers, rounds
    or members cannot change what any of them reads."""
    spec_factory, expected = _FAMILIES[family]
    trace = run(spec_factory()).trace
    found = _reachable_dataclasses(list(trace))
    assert expected | {RoundRecord, Message, Point} <= found, found
    mutable = sorted(cls.__qualname__ for cls in found
                     if not cls.__dataclass_params__.frozen)
    assert mutable == []
