"""Differential tests: the tuple Output against the dataclass oracle.

Constructor arguments come from small pools of right and wrong types, so
bool, float and out-of-range quantities, str, bytearray and bytes-subclass
byte strings, duplicate tokens, zero quantities, mappings and pair lists
of every shape are common.  Both classes must accept the same arguments or
raise ValueError with the same message, and build values that agree on
every field, serialized bytes, hash and repr.
"""
import types

from hypothesis import given, settings
from hypothesis import strategies as st

import output_oracle as oracle
from ledgerlab.core import Output, _ser_output


class Tag(bytes):
    """A bytes subclass: in the domain, though not of the exact type."""


def mostly(right, wrong):
    """Draws from ``right`` most of the time, else from ``wrong``."""
    return st.integers(0, 7).flatmap(lambda k: right if k else wrong)


BYTE_STRINGS = mostly(st.binary(max_size=3),
                      st.sampled_from(["", "a", bytearray(b"a"), Tag(b"a"), None, 0]))
QUANTITIES = mostly(st.integers(0, 3), st.sampled_from(
    [-1, 2 ** 64 - 1, 2 ** 64, -2 ** 64, True, False, 1.0, 0.0, None, "1"]))
HASHABLE_TOKENS = mostly(st.sampled_from([b"a", b"b", b""]),
                         st.sampled_from(["a", Tag(b"b"), 1]))
TOKENS = mostly(HASHABLE_TOKENS, st.just(bytearray(b"a")))
PAIRS = st.lists(mostly(
    st.tuples(TOKENS, QUANTITIES),
    st.one_of(st.lists(st.one_of(TOKENS, QUANTITIES), max_size=3),
              st.sampled_from([5, b"ab", None])),
), max_size=4)
VALUES = st.one_of(
    st.dictionaries(HASHABLE_TOKENS, QUANTITIES, max_size=4),
    st.dictionaries(HASHABLE_TOKENS, QUANTITIES, max_size=3).map(types.MappingProxyType),
    PAIRS,
    PAIRS.map(tuple),
    st.sampled_from([5, None, "ab", b"ab"]),
)


def outcome(cls, ser, args, kwargs):
    """What ``cls(*args, **kwargs)`` builds, seen through every reader, or
    its ValueError message."""
    try:
        out = cls(*args, **kwargs)
    except ValueError as exc:
        return "ValueError: %s" % exc
    return (out.address, out.value, out.datum, type(out.address), type(out.datum),
            [out.quantity(t) for t in (b"a", b"b", b"")],
            ser(out), hash(out), repr(out))


@settings(max_examples=1000, deadline=None)
@given(address=BYTE_STRINGS, value=VALUES, datum=BYTE_STRINGS,
       call=st.sampled_from(["positional", "keyword", "address-only", "no-datum"]))
def test_agrees_with_oracle(address, value, datum, call):
    args, kwargs = {
        "positional": ((address, value, datum), {}),
        "keyword": ((), {"address": address, "value": value, "datum": datum}),
        "address-only": ((address,), {}),
        "no-datum": ((address,), {"value": value}),
    }[call]
    assert (outcome(Output, _ser_output, args, kwargs)
            == outcome(oracle.Output, oracle._ser_output, args, kwargs))


def test_accepts_what_the_writers_build():
    """The common case, built both ways, as one sanity anchor."""
    args = (b"addr", {b"coin": 10, b"gem": 0, b"art": 2 ** 64 - 1}, b"d")
    new, old = (outcome(cls, ser, args, {}) for cls, ser in (
        (Output, _ser_output), (oracle.Output, oracle._ser_output)))
    assert new == old and not isinstance(new, str)
