"""HMAC-SHA256 per FIPS 198-1.

The key is first normalized to one SHA-256 input block (hash-then-pad if
too long, zero-pad if too short), then combined with the inner/outer pad
constants 0x36 and 0x5C.

``hmac_key(key)`` builds that key schedule once, as RFC 2104 section 4
suggests: an ``HmacKey`` holds the two SHA-256 states that have absorbed
K0 XOR ipad and K0 XOR opad, and ``hmac`` copies them for each tag.
"""

from .primitives import SHA256_BLOCK_LEN, sha256, sha256_state

IPAD = 0x36
OPAD = 0x5C

# bytes.translate tables that XOR every byte with the pad constant.
_IPAD_TABLE = bytes(b ^ IPAD for b in range(256))
_OPAD_TABLE = bytes(b ^ OPAD for b in range(256))


class HmacKey:
    """HMAC-SHA256's key schedule: SHA-256 states after K0^ipad and K0^opad.

    ``hmac`` only copies the states, so one ``HmacKey`` serves any number of
    tags, and each tag equals the one-shot tag under the same key. A slotted
    class, since a ``NamedTuple``'s Python-level ``__new__`` costs ~0.1 µs
    more per schedule.
    """

    __slots__ = ("inner", "outer")

    def __init__(self, inner, outer):
        self.inner = inner
        self.outer = outer


def hmac_key(key: bytes) -> HmacKey:
    """The ``HmacKey`` of ``key``: K0 and both padded blocks, absorbed once."""
    # The same K0 as ``hmac``'s bytes path, which inlines it to save a call.
    if len(key) > SHA256_BLOCK_LEN:
        key = sha256(key)
    k0 = (b"" + key).ljust(SHA256_BLOCK_LEN, b"\x00")
    return HmacKey(sha256_state(k0.translate(_IPAD_TABLE)),
                   sha256_state(k0.translate(_OPAD_TABLE)))


def hmac(key, msg: bytes) -> bytes:
    """One-shot HMAC-SHA256 tag of ``msg`` under ``key``; 32 bytes.

    ``key`` is the key's bytes or its ``HmacKey``. The bytes path builds no
    schedule: for a single tag, two one-shot digests over the padded blocks
    cost less than building the states and copying them.
    """
    if type(key) is HmacKey:
        return sha256(sha256(msg, key.inner), key.outer)
    if len(key) > SHA256_BLOCK_LEN:
        key = sha256(key)
    # b"" + key is key itself for bytes and a bytes copy of a bytearray or
    # memoryview; bytes(key) costs a type call (~0.15 µs) even for bytes.
    k0 = (b"" + key).ljust(SHA256_BLOCK_LEN, b"\x00")
    return sha256(k0.translate(_OPAD_TABLE) + sha256(k0.translate(_IPAD_TABLE) + msg))
