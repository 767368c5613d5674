"""Boundary fuzzing at the parse layer: ``parse_request`` raises only
``WireError``.

Whatever a client sends — arbitrary bytes or text, a request cut off
mid-line, a line over ``MAX_LINE_BYTES``, invalid UTF-8, nesting deep
enough to exhaust the decoder, or a well-formed object whose fields
have the wrong JSON types for its op — the parser either returns the
request or raises :class:`WireError`, which the service turns into an
``error`` event.  Any other exception would escape the session's read
loop.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.events import MAX_LINE_BYTES, OPS, WireError, parse_request

pytestmark = pytest.mark.fast

#: Any JSON value, nested a few levels.
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)


@st.composite
def requests(draw):
    """A request object for some op: each documented field absent, or
    holding any JSON value (the right type, or a confused one)."""
    op = draw(st.sampled_from(sorted(OPS)) | JSON)
    obj = {"op": op}
    fields = OPS[op].fields if isinstance(op, str) and op in OPS else ()
    for field in fields:
        if draw(st.booleans()):
            obj[field.name] = draw(
                JSON | st.integers(-2, 2) | st.sampled_from(["w1", "", "x"]))
    obj.update(draw(st.dictionaries(st.text(max_size=4), JSON, max_size=2)))
    return obj


def _encoded(obj, as_bytes):
    line = json.dumps(obj, allow_nan=True)
    return line.encode() if as_bytes else line


def _parses_or_refuses(line):
    try:
        request = parse_request(line)
    except WireError:
        return
    assert isinstance(request, dict) and request["op"] in OPS


@settings(max_examples=300)
@given(st.binary(max_size=64) | st.text(max_size=64))
def test_arbitrary_lines(line):
    _parses_or_refuses(line)


@settings(max_examples=300)
@given(requests(), st.booleans())
def test_type_confused_requests_for_every_op(obj, as_bytes):
    _parses_or_refuses(_encoded(obj, as_bytes))


@settings(max_examples=200)
@given(requests(), st.booleans(), st.data())
def test_truncated_requests(obj, as_bytes, data):
    line = _encoded(obj, as_bytes)
    _parses_or_refuses(line[:data.draw(st.integers(0, len(line)))])


@settings(max_examples=200)
@given(requests(), st.sampled_from([b"\xff", b"\xc0\x80", b"\xed\xa0\x80",
                                    b"\xe2\x82", b"\x80", b"\xf8\x88\x80"]),
       st.data())
def test_invalid_utf8(obj, bad, data):
    line = _encoded(obj, True)
    at = data.draw(st.integers(0, len(line)))
    _parses_or_refuses(line[:at] + bad + line[at:])


@settings(max_examples=20)
@given(st.sampled_from(["", '{"op":"propose","value":']),
       st.sampled_from(["[", '{"a":']), st.sampled_from([100, 10_000, 50_000]),
       st.booleans())
def test_deep_nesting(head, opener, depth, as_bytes):
    line = head + opener * depth
    _parses_or_refuses(line.encode() if as_bytes else line)


@settings(max_examples=20)
@given(st.sampled_from(sorted(OPS)), st.integers(1, 8), st.booleans())
def test_lines_over_the_ceiling(op, extra, as_bytes):
    """A line one to eight bytes over the ceiling is refused unparsed,
    however well-formed it is."""
    head = _encoded({"op": op, "value": ""}, False)[:-2]
    line = head + "x" * (MAX_LINE_BYTES - len(head) - 2 + extra) + '"}'
    assert len(line) == MAX_LINE_BYTES + extra
    with pytest.raises(WireError, match="exceeds"):
        parse_request(line.encode() if as_bytes else line)
