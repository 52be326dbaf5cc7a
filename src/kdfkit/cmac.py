"""AES-CMAC per NIST SP 800-38B / RFC 4493.

CMAC is CBC-MAC with a masked last block. ``AesBlockCipher`` is one AES-CBC
context with a zero IV, so the chain runs in OpenSSL, one block per call.
Its first call encrypts 0^128 and gives L, which the chain then holds. The
subkeys come from L by doubling in GF(2^128) (left shift with a conditional
XOR of 0x87 into the last byte): K1 = 2L, and K2 = 2K1, which is built only
for a short or empty last block (RFC 4493 section 2.4). Block 0 is XORed
with L, which cancels that chain value, the middle blocks go in as they are,
and the last block is masked with K1, or padded 10* and masked with K2. The
last ciphertext is the tag.
"""

from .primitives import AES_BLOCK_LEN, AesBlockCipher

_REDUCTION = 0x87  # x^128 + x^7 + x^2 + x + 1
_MASK128 = (1 << 128) - 1
_ZERO_BLOCK = bytes(AES_BLOCK_LEN)
# The 10* padding of a last block of n < 16 bytes: 0x80, then 15 - n zeros.
_PADDING = tuple(b"\x80" + bytes(AES_BLOCK_LEN - 1 - n) for n in range(AES_BLOCK_LEN))


def _dbl(value: int) -> int:
    """Multiply a 128-bit block, held as an int, by x in GF(2^128)."""
    shifted = (value << 1) & _MASK128
    return shifted ^ _REDUCTION if value >> 127 else shifted


def cmac(key: bytes, msg: bytes) -> bytes:
    """AES-CMAC tag of ``msg`` under a 16-byte ``key``; always 16 bytes."""
    encrypt = AesBlockCipher(key).encrypt_block
    l_value = int.from_bytes(encrypt(_ZERO_BLOCK), "big")
    mask = _dbl(l_value)  # K1, for a complete last block
    n = len(msg)
    last = (n - 1) // AES_BLOCK_LEN * AES_BLOCK_LEN if n else 0
    tail = msg[last:]
    if n - last != AES_BLOCK_LEN:
        # A short or empty last block gets 0x80, zero fill and K2. b"" + tail
        # is bytes, also for a memoryview msg.
        tail = b"" + tail + _PADDING[n - last]
        mask = _dbl(mask)
    if last:
        # L XORed into block 0 cancels the chain value L; the context chains
        # every later block itself.
        block0 = l_value ^ int.from_bytes(msg[:AES_BLOCK_LEN], "big")
        encrypt(block0.to_bytes(AES_BLOCK_LEN, "big"))
        if last > AES_BLOCK_LEN:  # a two-block message skips building an empty range
            for start in range(AES_BLOCK_LEN, last, AES_BLOCK_LEN):
                encrypt(msg[start:start + AES_BLOCK_LEN])
    else:
        # The last block is also block 0, so it cancels L too.
        mask ^= l_value
    return encrypt((int.from_bytes(tail, "big") ^ mask).to_bytes(AES_BLOCK_LEN, "big"))
