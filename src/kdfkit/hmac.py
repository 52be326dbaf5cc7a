"""HMAC-SHA256 per FIPS 198-1.

The key is first normalized to one SHA-256 input block (hash-then-pad if
too long, zero-pad if too short), then combined with the inner/outer pad
constants 0x36 and 0x5C.
"""

import hashlib

from .primitives import SHA256_BLOCK_LEN, sha256

IPAD = 0x36
OPAD = 0x5C

# bytes.translate tables that XOR every byte with the pad constant.
_IPAD_TABLE = bytes(b ^ IPAD for b in range(256))
_OPAD_TABLE = bytes(b ^ OPAD for b in range(256))


def derive_k0(key: bytes) -> bytes:
    """Normalize ``key`` to exactly ``SHA256_BLOCK_LEN`` (64) bytes.

    Keys longer than the block are hashed first; shorter keys (including
    the empty key) are right-padded with zero bytes.
    """
    if len(key) > SHA256_BLOCK_LEN:
        key = sha256(key)
    return key.ljust(SHA256_BLOCK_LEN, b"\x00")


def _padded_keys(key: bytes) -> tuple:
    """(K0 ^ ipad, K0 ^ opad), the prefixes of the inner and outer hash inputs."""
    k0 = derive_k0(key)
    return k0.translate(_IPAD_TABLE), k0.translate(_OPAD_TABLE)


def hmac(key: bytes, msg: bytes) -> bytes:
    """One-shot HMAC-SHA256 tag of ``msg`` under ``key``; 32 bytes."""
    inner_key, outer_key = _padded_keys(key)
    return sha256(outer_key + sha256(inner_key + msg))


class HmacStream:
    """Incremental HMAC-SHA256: feed the message in chunks, then ``final()``.

    Agrees byte-for-byte with the one-shot :func:`hmac`. Single-owner; may
    be handed between threads but not shared mutably.
    """

    def __init__(self, key: bytes):
        inner_key, self._outer = _padded_keys(key)
        self._inner = hashlib.sha256(inner_key)
        self._done = False

    def update(self, chunk: bytes) -> None:
        if self._done:
            raise ValueError("cannot update after final")
        self._inner.update(chunk)

    def final(self) -> bytes:
        self._done = True
        return sha256(self._outer + self._inner.digest())
