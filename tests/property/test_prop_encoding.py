"""Property-based tests for state encoding conversions and hashing."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.compiler.state_encoding import ASSOCIATIVE, convert, decode, encode
from repro.lang.maps import MapSnapshot
from repro.targets.base import StateEncoding
from repro.util import _avalanche, stable_hash

entries = st.dictionaries(
    st.tuples(st.integers(min_value=0, max_value=2**32 - 1)),
    st.integers(min_value=0, max_value=2**63),
    max_size=40,
)
associative = st.sampled_from(sorted(ASSOCIATIVE, key=lambda e: e.value))


def snapshot_of(contents):
    return MapSnapshot(map_name="m", entries=tuple(contents.items()), version=1)


@given(entries, associative)
def test_associative_encode_decode_identity(contents, encoding):
    snapshot = snapshot_of(contents)
    assert decode(encode(snapshot, encoding)).as_dict() == contents


@given(entries, associative, associative)
def test_associative_conversion_lossless(contents, source, destination):
    arrived, report = convert(snapshot_of(contents), source, destination)
    assert report.lossless
    assert arrived.as_dict() == contents


@given(entries)
def test_register_encoding_bounded_by_slots(contents):
    encoded = encode(snapshot_of(contents), StateEncoding.REGISTER, register_slots=16)
    assert len(encoded) <= 16
    assert len(encoded) + encoded.collisions == len(contents)


@given(st.tuples(st.integers(min_value=0, max_value=2**64)))
def test_stable_hash_deterministic(key):
    assert stable_hash(key) == stable_hash(key)


@given(st.lists(st.integers(min_value=0, max_value=2**32), min_size=2, max_size=6))
def test_stable_hash_order_sensitive(parts):
    forward = stable_hash(tuple(parts))
    backward = stable_hash(tuple(reversed(parts)))
    if parts != list(reversed(parts)):
        assert forward != backward


@given(st.sets(st.integers(min_value=0, max_value=2**32), min_size=50, max_size=200))
def test_stable_hash_low_bits_spread(values):
    """The data plane computes hash % small_n; low bits must carry
    entropy (the FNV-without-finalizer bug this guards against)."""
    buckets = {stable_hash((v,)) % 4 for v in values}
    assert len(buckets) >= 3


def full_width_stable_hash(parts):
    """The original ``stable_hash``: FNV-1a over all 16 little-endian
    bytes of every part, zero padding included."""
    value = 0xCBF29CE484222325
    for part in parts:
        for byte in int(part).to_bytes(16, "little", signed=False):
            value = ((value ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return _avalanche(value)


hash_parts = st.one_of(
    st.integers(min_value=0, max_value=2**128 - 1),
    st.sampled_from([0, 2**64 - 1, 2**64, 2**128 - 1]),
    st.booleans(),
)


@given(st.lists(hash_parts, max_size=6).map(tuple))
def test_stable_hash_matches_full_width_fnv(parts):
    """Skipping the zero bytes above each part's highest nonzero byte
    and folding them into one multiply is bit-exact."""
    assert stable_hash(parts) == full_width_stable_hash(parts)


#: ``stable_hash`` outputs pinned before the zero-run fold: sketches,
#: ECMP, fault-plan RNG seeds and Raft timeouts all derive from them.
GOLDEN_HASHES = [
    ((), 0xEFD01F60BA992926),
    ((0,), 0xA5E0DBA6C385580A),
    ((0, 0, 0, 0, 0), 0xE5A03C58872E64EE),
    ((2**64 - 1, 2**64), 0xFB6FFFFFEDA31D40),
    ((2**128 - 1,), 0xB985182D97D9D96F),
    ((True, False), 0xE1D6389F9CA0C832),
    ((0x0A000001, 0x0A000002, 6, 1234, 80), 0x440B2E70C87AA732),
]


@pytest.mark.parametrize("parts,expected", GOLDEN_HASHES)
def test_stable_hash_golden(parts, expected):
    assert stable_hash(parts) == expected


@pytest.mark.parametrize("part", [-1, 2**128])
def test_stable_hash_rejects_parts_outside_128_bits(part):
    with pytest.raises(OverflowError):
        stable_hash((1, part))
