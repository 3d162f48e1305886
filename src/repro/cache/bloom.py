"""Bloom filter behind coverage campaigns' program dedup.

A guided campaign (:mod:`repro.testing.coverage`) draws thousands of
programs and must skip the ones it has already checked without keeping
every digest in its checkpoint.  The filter answers "seen before?" from
a few kilobytes of memory while guaranteeing **no false negatives**: a
key that was ever added always answers "maybe".

The filter is the classic k-hash bit array with Kirsch–Mitzenmacher
double hashing: two 64-bit lanes are carved out of one ``blake2b``
digest of the key and combined as ``h1 + i*h2`` for the *i*-th probe.
Sizing follows the standard formulas — ``m = -n·ln(p)/ln(2)²`` bits and
``k = (m/n)·ln(2)`` hashes for ``n`` expected keys at false-positive
rate ``p``.

``encode``/``decode`` give the checksummed byte serialization stored in
the campaign's ``state.json``; damaged bytes decode to ``None`` rather
than to a filter that could manufacture false negatives.
"""

from __future__ import annotations

import hashlib
import math
import struct

_MAGIC = b"RBLM"  #: encoding magic ("repro bloom")
_VERSION = 1
#: magic, version, hash count, bit count, key count
_HEADER = struct.Struct("!4sBBQQ")
_CRC_SIZE = 8


def _lanes(key: bytes) -> tuple[int, int]:
    digest = hashlib.blake2b(key, digest_size=16).digest()
    h1 = int.from_bytes(digest[:8], "big")
    h2 = int.from_bytes(digest[8:], "big") | 1  # odd => full-period stride
    return h1, h2


class BloomFilter:
    """A fixed-size bloom filter over byte-string keys."""

    def __init__(self, bits: int, hashes: int) -> None:
        if bits <= 0 or hashes <= 0:
            raise ValueError(f"bloom needs positive sizing, got {bits=} {hashes=}")
        self.bits = bits
        self.hashes = hashes
        self.count = 0  #: keys added (an estimate after a union)
        self._array = bytearray((bits + 7) // 8)

    @classmethod
    def sized_for(cls, expected: int, fpr: float = 0.005) -> "BloomFilter":
        """A filter sized for ``expected`` keys at false-positive rate
        ``fpr`` (defaults well under the 1% gate, leaving headroom for
        growth past the estimate)."""
        expected = max(expected, 64)
        bits = int(-expected * math.log(fpr) / (math.log(2) ** 2)) + 1
        hashes = max(1, round((bits / expected) * math.log(2)))
        return cls(bits, hashes)

    def add(self, key: bytes) -> None:
        h1, h2 = _lanes(key)
        for probe in range(self.hashes):
            bit = (h1 + probe * h2) % self.bits
            self._array[bit >> 3] |= 1 << (bit & 7)
        self.count += 1

    def __contains__(self, key: bytes) -> bool:
        h1, h2 = _lanes(key)
        for probe in range(self.hashes):
            bit = (h1 + probe * h2) % self.bits
            if not self._array[bit >> 3] & (1 << (bit & 7)):
                return False
        return True

    def estimated_fpr(self) -> float:
        """The fill-based false-positive estimate ``(set_bits/m)^k`` —
        what a random novel key's "maybe" probability actually is now."""
        set_bits = sum(byte.bit_count() for byte in self._array)
        if set_bits == 0:
            return 0.0
        return (set_bits / self.bits) ** self.hashes

    @property
    def saturated(self) -> bool:
        """Whether the filter has grown past its design point (measured
        FPR above 1%) and should be rebuilt larger."""
        return self.estimated_fpr() > 0.01

    def encode(self) -> bytes:
        header = _HEADER.pack(_MAGIC, _VERSION, self.hashes, self.bits, self.count)
        body = header + bytes(self._array)
        crc = hashlib.blake2b(body, digest_size=_CRC_SIZE).digest()
        return body + crc

    @classmethod
    def decode(cls, raw: bytes) -> "BloomFilter | None":
        """Rebuild a filter from :meth:`encode` output; ``None`` when the
        bytes are damaged in any way (the caller rebuilds from scratch)."""
        if len(raw) < _HEADER.size + _CRC_SIZE:
            return None
        body, crc = raw[:-_CRC_SIZE], raw[-_CRC_SIZE:]
        if hashlib.blake2b(body, digest_size=_CRC_SIZE).digest() != crc:
            return None
        magic, version, hashes, bits, count = _HEADER.unpack_from(body)
        if magic != _MAGIC or version != _VERSION or bits <= 0 or hashes <= 0:
            return None
        if len(body) != _HEADER.size + (bits + 7) // 8:
            return None
        bloom = cls(bits, hashes)
        bloom._array[:] = body[_HEADER.size:]
        bloom.count = count
        return bloom
