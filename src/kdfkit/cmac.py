"""AES-CMAC per NIST SP 800-38B / RFC 4493.

Two subkeys are derived from AES(key, 0^128) by doubling in GF(2^128)
(left shift with a conditional XOR of 0x87 into the last byte), the message
is cut into 16-byte blocks with 10* padding on a short final block, and the
blocks are folded through a CBC-style chain whose last ciphertext is the tag.
"""

from .primitives import AES_BLOCK_LEN, AesBlockCipher

_REDUCTION = 0x87  # x^128 + x^7 + x^2 + x + 1
_MASK128 = (1 << 128) - 1


def _dbl(value: int) -> int:
    """Multiply a 128-bit block, held as an int, by x in GF(2^128)."""
    shifted = (value << 1) & _MASK128
    return shifted ^ _REDUCTION if value >> 127 else shifted


def dbl(block: bytes) -> bytes:
    """Multiply a 16-byte block by x in GF(2^128)."""
    if len(block) != AES_BLOCK_LEN:
        raise ValueError(f"dbl needs a {AES_BLOCK_LEN}-byte block, got {len(block)}")
    return _dbl(int.from_bytes(block, "big")).to_bytes(AES_BLOCK_LEN, "big")


def _subkeys(cipher: AesBlockCipher) -> tuple:
    """(K1, K2) as 128-bit ints for the key ``cipher`` was set up with."""
    k1 = _dbl(int.from_bytes(cipher.encrypt_block(bytes(AES_BLOCK_LEN)), "big"))
    return k1, _dbl(k1)


def derive_subkeys(key: bytes) -> tuple:
    """K1 = dbl(AES(key, 0^128)), K2 = dbl(K1), as the pair of 16-byte blocks (K1, K2)."""
    return tuple(k.to_bytes(AES_BLOCK_LEN, "big") for k in _subkeys(AesBlockCipher(key)))


def cmac(key: bytes, msg: bytes) -> bytes:
    """AES-CMAC tag of ``msg`` under a 16-byte ``key``; always 16 bytes."""
    cipher = AesBlockCipher(key)
    k1, k2 = _subkeys(cipher)
    # Every block before the last chains unmasked. A complete last block is
    # masked with K1; a short or empty one gets 0x80, zero fill and K2.
    last = max(len(msg) - 1, 0) // AES_BLOCK_LEN * AES_BLOCK_LEN
    chain = 0
    for start in range(0, last, AES_BLOCK_LEN):
        block = chain ^ int.from_bytes(msg[start:start + AES_BLOCK_LEN], "big")
        chain = int.from_bytes(cipher.encrypt_block(block.to_bytes(AES_BLOCK_LEN, "big")), "big")
    tail = msg[last:]
    if len(tail) == AES_BLOCK_LEN:
        mask = k1
    else:
        tail += b"\x80" + bytes(AES_BLOCK_LEN - len(tail) - 1)
        mask = k2
    block = chain ^ int.from_bytes(tail, "big") ^ mask
    return cipher.encrypt_block(block.to_bytes(AES_BLOCK_LEN, "big"))
