"""HMAC per FIPS 198-1, parameterized by a hash specification.

The key is first normalized to one hash input block (hash-then-pad if too
long, zero-pad if too short), then combined with the inner/outer pad
constants 0x36 and 0x5C. Only SHA-256 is wired by default; any other hash
can be supplied through a ``HashSpec``.
"""

from .primitives import SHA256, HashSpec

IPAD = 0x36
OPAD = 0x5C


def derive_k0(key: bytes, spec: HashSpec = SHA256) -> bytes:
    """Normalize ``key`` to exactly ``spec.block_len`` bytes.

    Keys longer than the block are hashed first; shorter keys (including
    the empty key) are right-padded with zero bytes.
    """
    if len(key) > spec.block_len:
        key = spec.digest(key)
    return key.ljust(spec.block_len, b"\x00")


def _padded_keys(key: bytes, spec: HashSpec) -> tuple:
    """(K0 ^ ipad, K0 ^ opad), the prefixes of the inner and outer hash inputs."""
    k0 = derive_k0(key, spec)
    return bytes(b ^ IPAD for b in k0), bytes(b ^ OPAD for b in k0)


def hmac(key: bytes, msg: bytes, spec: HashSpec = SHA256) -> bytes:
    """One-shot HMAC tag of ``msg`` under ``key``; ``spec.digest_len`` bytes."""
    inner_key, outer_key = _padded_keys(key, spec)
    return spec.digest(outer_key + spec.digest(inner_key + msg))


class HmacStream:
    """Incremental HMAC: feed the message in chunks, then ``final()``.

    Agrees byte-for-byte with the one-shot :func:`hmac`. Single-owner; may
    be handed between threads but not shared mutably.
    """

    def __init__(self, key: bytes, spec: HashSpec = SHA256):
        self._spec = spec
        inner_key, self._outer = _padded_keys(key, spec)
        self._inner = spec.new()
        self._inner.update(inner_key)
        self._done = False

    def update(self, chunk: bytes) -> None:
        if self._done:
            raise ValueError("cannot update after final")
        self._inner.update(chunk)

    def final(self) -> bytes:
        self._done = True
        return self._spec.digest(self._outer + self._inner.digest())
