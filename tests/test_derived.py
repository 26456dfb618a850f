"""The column codec of the derived/ tables (tcpci.derived.encode/decode)."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from tcpci import derived

#: Every kind of column a table of the package uses.
KINDS = ["<i8", "<f8", "<u4", "<i1", "u1", str]

_TEXT = st.text(st.one_of(st.sampled_from(["\x00", "\r", "\n", "\t", "é", "日", "\U0001f600"]),
                          st.characters(blacklist_categories=("Cs",))), max_size=6)


@st.composite
def _columns(draw):
    """(kinds, columns): empty columns and empty strings among them."""
    kinds = draw(st.lists(st.sampled_from(KINDS), max_size=6))
    columns = [
        draw(st.lists(_TEXT, max_size=5)) if kind is str
        else draw(hnp.arrays(np.dtype(kind), st.integers(0, 5)))
        for kind in kinds
    ]
    return kinds, columns


def _is_column(column, kind) -> bool:
    if kind is str:
        return type(column) is list and all(type(s) is str for s in column)
    return type(column) is np.ndarray and column.ndim == 1 and column.dtype == np.dtype(kind)


@settings(max_examples=300, deadline=None)
@given(drawn=_columns())
def test_columns_round_trip_bit_for_bit(drawn):
    kinds, columns = drawn
    decoded = derived.decode(derived.encode(columns), kinds)
    assert decoded is not None and len(decoded) == len(kinds)
    for kind, column, back in zip(kinds, columns, decoded):
        assert _is_column(back, kind)
        if kind is str:
            assert back == column
        else:
            assert back.tobytes() == column.tobytes()  # NaN payloads and -0.0 too


@settings(max_examples=1000, deadline=None)
@given(drawn=_columns(), edits=st.lists(
    st.tuples(st.sampled_from(["flip", "cut", "extend"]), st.integers(0, 10**6),
              st.integers(1, 255)),
    min_size=1, max_size=3,
))
def test_damaged_payload_gives_none_or_columns_of_its_kinds(drawn, edits):
    kinds, columns = drawn
    payload = derived.encode(columns)
    for kind, at, value in edits:
        if kind == "flip" and payload:
            at %= len(payload)
            payload = payload[:at] + bytes([payload[at] ^ value]) + payload[at + 1:]
        elif kind == "cut":
            payload = payload[:at % (len(payload) + 1)]
        elif kind == "extend":
            payload += bytes([value]) * (at % 16 + 1)
    decoded = derived.decode(memoryview(payload), kinds)
    if decoded is not None:
        assert len(decoded) == len(kinds)
        assert all(map(_is_column, decoded, kinds))


@pytest.mark.parametrize("kind", ["<i8", "u1", str])
@pytest.mark.parametrize("count", [2**24, 2**60, 2**63, 2**64 - 1])
def test_count_past_the_end_allocates_nothing(kind, count):
    payload = struct.pack("<Q", count) + bytes(64)
    tracemalloc.start()
    try:
        assert derived.decode(payload, [kind]) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("payload", [
    struct.pack("<Q", 1) + struct.pack("<q", 1) + struct.pack("<Q", 1) + b"\xff",
    struct.pack("<Q", 2) + struct.pack("<2q", 2, 1) + struct.pack("<Q", 2) + b"ab",
    struct.pack("<Q", 1) + struct.pack("<q", -1) + struct.pack("<Q", 0),
    struct.pack("<Q", 1) + struct.pack("<q", 1) + struct.pack("<Q", 2) + b"ab",
    struct.pack("<Q", 1) + struct.pack("<q", 1) + struct.pack("<Q", 9) + b"a",
    derived.encode([["a"]]) + b"\0",
], ids=["not-utf8", "ends-descending", "end-negative", "text-past-last-end",
        "text-past-the-payload", "trailing-byte"])
def test_bad_string_column_gives_none(payload):
    assert derived.decode(payload, [str]) is None


def test_string_ends_that_wrap_int64_give_none():
    # every step of np.diff over these ends is positive, the second only
    # because it wraps
    ends = np.array([2**62, -(2**62) - 1, 1], "<i8")
    assert (np.diff(ends, prepend=0) > 0).all()
    payload = struct.pack("<Q", 3) + ends.tobytes() + struct.pack("<Q", 1) + b"a"
    assert derived.decode(payload, [str]) is None


@pytest.mark.parametrize("kinds", [["<i8"], ["<i8", str, "u1"], []])
def test_other_kind_count_gives_none(kinds):
    payload = derived.encode([np.arange(3, dtype="<i8"), ["a", "b"]])
    assert derived.decode(payload, ["<i8", str]) is not None
    assert derived.decode(payload, kinds) is None
