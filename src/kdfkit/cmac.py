"""AES-CMAC per NIST SP 800-38B / RFC 4493.

Two subkeys are derived from AES(key, 0^128) by doubling in GF(2^128)
(left shift with a conditional XOR of 0x87 into the last byte), the message
is cut into 16-byte blocks with 10* padding on a short final block, and the
blocks are folded through a CBC-style chain whose last ciphertext is the tag.
"""

from .primitives import AES_BLOCK_LEN, AesBlockCipher

_MSB = 0x80
_REDUCTION = 0x87  # x^128 + x^7 + x^2 + x + 1


def dbl(block: bytes) -> bytes:
    """Multiply a 16-byte block by x in GF(2^128)."""
    if len(block) != AES_BLOCK_LEN:
        raise ValueError(f"dbl needs a {AES_BLOCK_LEN}-byte block, got {len(block)}")
    shifted = (int.from_bytes(block, "big") << 1) & ((1 << 128) - 1)
    if block[0] & _MSB:
        shifted ^= _REDUCTION
    return shifted.to_bytes(16, "big")


def _subkeys(cipher: AesBlockCipher) -> tuple:
    """(K1, K2) for the key ``cipher`` was set up with."""
    k1 = dbl(cipher.encrypt_block(bytes(AES_BLOCK_LEN)))
    return k1, dbl(k1)


def derive_subkeys(key: bytes) -> tuple:
    """K1 = dbl(AES(key, 0^128)), K2 = dbl(K1), as the pair (K1, K2)."""
    return _subkeys(AesBlockCipher(key))


def _xor(a: bytes, b: bytes) -> bytes:
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(AES_BLOCK_LEN, "big")


def split_and_pad(msg: bytes, k1: bytes, k2: bytes) -> list:
    """Cut ``msg`` into blocks and mask the final one.

    A complete final block is XORed with K1; a short (or empty) final block
    gets one 0x80 byte, zero fill to 16 bytes, and an XOR with K2. The empty
    message yields the single block (80 00..00) ^ K2.
    """
    complete = len(msg) > 0 and len(msg) % AES_BLOCK_LEN == 0
    n_full = len(msg) // AES_BLOCK_LEN if complete else len(msg) // AES_BLOCK_LEN + 1
    blocks = [msg[i * AES_BLOCK_LEN:(i + 1) * AES_BLOCK_LEN] for i in range(n_full - 1)]
    last = msg[(n_full - 1) * AES_BLOCK_LEN:]
    if complete:
        blocks.append(_xor(last, k1))
    else:
        padded = last + b"\x80" + bytes(AES_BLOCK_LEN - len(last) - 1)
        blocks.append(_xor(padded, k2))
    return blocks


def cmac(key: bytes, msg: bytes) -> bytes:
    """AES-CMAC tag of ``msg`` under a 16-byte ``key``; always 16 bytes."""
    cipher = AesBlockCipher(key)
    chain = bytes(AES_BLOCK_LEN)
    for block in split_and_pad(msg, *_subkeys(cipher)):
        chain = cipher.encrypt_block(_xor(chain, block))
    return chain
