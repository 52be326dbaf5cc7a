"""HMAC-SHA256 per FIPS 198-1.

The key is first normalized to one SHA-256 input block (hash-then-pad if
too long, zero-pad if too short), then combined with the inner/outer pad
constants 0x36 and 0x5C.
"""

from .primitives import SHA256_BLOCK_LEN, sha256

IPAD = 0x36
OPAD = 0x5C

# bytes.translate tables that XOR every byte with the pad constant.
_IPAD_TABLE = bytes(b ^ IPAD for b in range(256))
_OPAD_TABLE = bytes(b ^ OPAD for b in range(256))


def hmac(key: bytes, msg: bytes) -> bytes:
    """One-shot HMAC-SHA256 tag of ``msg`` under ``key``; 32 bytes."""
    if len(key) > SHA256_BLOCK_LEN:
        key = sha256(key)
    # b"" + key is key itself for bytes and a bytes copy of a bytearray or
    # memoryview; bytes(key) costs a type call (~0.15 µs) even for bytes.
    k0 = (b"" + key).ljust(SHA256_BLOCK_LEN, b"\x00")
    return sha256(k0.translate(_OPAD_TABLE) + sha256(k0.translate(_IPAD_TABLE) + msg))
