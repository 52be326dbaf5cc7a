"""AES-CMAC per NIST SP 800-38B / RFC 4493.

CMAC is CBC-MAC with a masked last block. ``AesBlockCipher`` is one AES-CBC
context with a zero IV, so the chain runs in OpenSSL, one block per call.
Its first call encrypts 0^128 and gives L, which the chain then holds. The
two subkeys come from L by doubling in GF(2^128) (left shift with a
conditional XOR of 0x87 into the last byte). Block 0 is XORed with L, which
cancels that chain value, the middle blocks go in as they are, and the last
block is masked with K1, or padded 10* and masked with K2. The last
ciphertext is the tag.
"""

from .primitives import AES_BLOCK_LEN, AesBlockCipher

_REDUCTION = 0x87  # x^128 + x^7 + x^2 + x + 1
_MASK128 = (1 << 128) - 1


def _dbl(value: int) -> int:
    """Multiply a 128-bit block, held as an int, by x in GF(2^128)."""
    shifted = (value << 1) & _MASK128
    return shifted ^ _REDUCTION if value >> 127 else shifted


def _subkeys(l_value: int) -> tuple:
    """(K1, K2) as 128-bit ints from L = AES(key, 0^128), also an int.

    K1 is L doubled, and K2 is K1 doubled.
    """
    k1 = _dbl(l_value)
    return k1, _dbl(k1)


def cmac(key: bytes, msg: bytes) -> bytes:
    """AES-CMAC tag of ``msg`` under a 16-byte ``key``; always 16 bytes."""
    encrypt = AesBlockCipher(key).encrypt_block
    l_value = int.from_bytes(encrypt(bytes(AES_BLOCK_LEN)), "big")
    k1, k2 = _subkeys(l_value)
    # A complete last block is masked with K1; a short or empty one gets
    # 0x80, zero fill and K2.
    last = max(len(msg) - 1, 0) // AES_BLOCK_LEN * AES_BLOCK_LEN
    tail = b"" + msg[last:]  # bytes, also for a memoryview msg
    if len(tail) == AES_BLOCK_LEN:
        mask = k1
    else:
        tail += b"\x80" + bytes(AES_BLOCK_LEN - len(tail) - 1)
        mask = k2
    if last:
        # L XORed into block 0 cancels the chain value L; the context chains
        # every later block itself.
        block0 = l_value ^ int.from_bytes(msg[:AES_BLOCK_LEN], "big")
        encrypt(block0.to_bytes(AES_BLOCK_LEN, "big"))
        for start in range(AES_BLOCK_LEN, last, AES_BLOCK_LEN):
            encrypt(msg[start:start + AES_BLOCK_LEN])
    else:
        # The last block is also block 0, so it cancels L too.
        mask ^= l_value
    return encrypt((int.from_bytes(tail, "big") ^ mask).to_bytes(AES_BLOCK_LEN, "big"))
