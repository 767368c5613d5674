"""Unit tests for message envelopes and wire-size accounting."""

import enum
from dataclasses import dataclass
from typing import NamedTuple

import pytest
from hypothesis import given, strategies as st

from _oracles import chained_wire_size
from repro.core.ballot import Ballot, BallotPayload, VetoPayload
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

    def test_a_pooled_payload_mutated_in_place_is_sized_afresh(self):
        payload = BallotPayload("t", 1, Ballot(("x",), 0))
        before = wire_size(payload)
        object.__setattr__(payload.ballot, "value", ("x", "yz", 3))
        assert wire_size(payload) == chained_wire_size(payload) != before


class TestMessage:
    def test_size_property_matches_wire_size(self):
        m = Message(sender=3, payload=("x", 1))
        assert m.size == wire_size(("x", 1))

    def test_message_is_frozen(self):
        m = Message(sender=0, payload="p")
        with pytest.raises(Exception):
            m.payload = "q"  # type: ignore[misc]
