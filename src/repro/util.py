"""Small shared utilities."""

from __future__ import annotations

import struct

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MAX_PART = (1 << 128) - 1
#: ``_ZERO_RUN[k]`` is ``P ** (16 - k) mod 2**64``: FNV-1a over the
#: ``16 - k`` zero bytes that pad a ``k``-byte part to 16 bytes.
_ZERO_RUN = tuple(pow(_FNV_PRIME, 16 - size, 1 << 64) for size in range(17))


def _fnv64(data: bytes, value: int = _FNV_OFFSET) -> int:
    """64-bit FNV-1a over ``data``, continuing from ``value``."""
    for byte in data:
        value ^= byte
        value = (value * _FNV_PRIME) & _MASK64
    return value


def _avalanche(value: int) -> int:
    """murmur3-style finalizer: FNV-1a's low bits are weakly mixed (they
    only ever see the low bits of the multiplications) and consumers take
    ``hash % small_n``, so spread entropy down before returning."""
    value ^= value >> 33
    value = (value * 0xFF51AFD7ED558CCD) & _MASK64
    value ^= value >> 33
    value = (value * 0xC4CEB9FE1A85EC53) & _MASK64
    value ^= value >> 33
    return value


def stable_hash(parts: tuple[int, ...]) -> int:
    """Deterministic 64-bit FNV-1a over a tuple of ints.

    Python's builtin ``hash`` is salted per process; data plane hashing
    (sketches, ECMP, register indexing) must be reproducible across
    runs and across simulated devices, so everything hashes through
    this function.

    Each part is hashed as its 16-byte little-endian encoding. The loop
    runs only over the ``k`` low bytes up to the highest nonzero one;
    the ``16 - k`` zero bytes above them fold into one multiply by
    ``P ** (16 - k) mod 2**64``, because XOR with a zero byte is the
    identity. The result is bit-exact with the full 16-byte loop. Parts
    outside ``[0, 2**128)`` take that full loop, which raises
    :class:`OverflowError`.
    """
    value = _FNV_OFFSET
    for part in parts:
        part = int(part)
        if 0 <= part <= _MAX_PART:
            size = (part.bit_length() + 7) >> 3
            for byte in part.to_bytes(size, "little"):
                value = ((value ^ byte) * _FNV_PRIME) & _MASK64
            value = (value * _ZERO_RUN[size]) & _MASK64
        else:
            value = _fnv64(part.to_bytes(16, "little", signed=False), value)
    return _avalanche(value)


def _encode(part, out: bytearray) -> None:
    # bool before int: bool subclasses int but must not collide with 0/1.
    if part is None:
        out += b"N;"
    elif isinstance(part, bool):
        out += b"b1;" if part else b"b0;"
    elif isinstance(part, int):
        raw = part.to_bytes(max(1, (part.bit_length() + 8) // 8), "little", signed=True)
        out += b"i" + len(raw).to_bytes(4, "little") + raw
    elif isinstance(part, float):
        out += b"f" + struct.pack("<d", part)
    elif isinstance(part, str):
        raw = part.encode("utf-8")
        out += b"s" + len(raw).to_bytes(4, "little") + raw
    elif isinstance(part, bytes):
        out += b"y" + len(part).to_bytes(4, "little") + part
    elif isinstance(part, (tuple, list)):
        out += b"t" + len(part).to_bytes(4, "little")
        for item in part:
            _encode(item, out)
    else:
        raise TypeError(f"stable_digest cannot encode {type(part).__name__!r}")


def stable_digest(*parts) -> int:
    """Deterministic 64-bit digest of a heterogeneous value tree.

    Accepts ints, floats, bools, strings, bytes, ``None``, and
    arbitrarily nested tuples/lists thereof, encoding each with a type
    tag and length prefix so distinct structures cannot collide by
    concatenation (``("ab", "c")`` vs ``("a", "bc")``). The stable
    replacement for builtin ``hash()`` wherever a digest can reach a
    seed, report, or persisted value — builtin ``hash`` is salted per
    process and diverges across runs.
    """
    out = bytearray()
    for part in parts:
        _encode(part, out)
    return _avalanche(_fnv64(bytes(out)))
