"""Key derivation functions built on the MAC constructions.

Three families:

* counter-mode KDF in the style of NIST SP 800-108, with HMAC-SHA256 or
  AES-128-CMAC as the pluggable PRF
* KMAC-based KDF: KMAC128 with customization string "KDF"
* the IEEE 1609.2.1 counter KDF used for butterfly key expansion, built
  directly on the AES-128 block function of each counter block; its counter
  never wraps, since the base block ends in 32 zero bits and only 1..3 is
  added

All functions are pure; no derived material outlives a call. The counter KDF
with the HMAC PRF builds HMAC's key schedule once per call and drops it on
return.
"""

import enum

from . import cmac as cmac_mod
from . import hmac as hmac_mod
from . import kmac as kmac_mod
from .primitives import AES_BLOCK_LEN, RATE_128, SHA256_DIGEST_LEN, AesBlockCipher

KDF_LABEL = b"KDF"
_LABEL_FIELD = KDF_LABEL + b"\x00"  # opens every counter block's fixed input

# Byte width of the big-endian counter and length fields in each PRF input.
FIELD_WIDTH = 4

PURPOSE_SIGNING = 1
PURPOSE_ENCRYPTION = 2

# Four-byte expansion pads selected by the purpose flag. The encryption pad
# byte is a named constant so a different profile needs only this edit.
SIGNING_PAD = b"\x00" * 4
ENCRYPTION_PAD = b"\x11" * 4

IEEE_INDEX_LEN = 4
IEEE_OUTPUT_LEN = 48


class PrfChoice(enum.Enum):
    """PRF selector for the counter-mode KDF; each value is the PRF's output
    block size in bytes."""

    HMAC_SHA256 = SHA256_DIGEST_LEN
    CMAC_AES128 = AES_BLOCK_LEN


_HMAC = PrfChoice.HMAC_SHA256
_CMAC = PrfChoice.CMAC_AES128


def counter_kdf(prf: PrfChoice, key: bytes, msg: bytes, out_len: int) -> bytes:
    """Counter-mode KDF: concatenated PRF outputs, truncated to ``out_len`` bytes.

    Block i (1-based) is PRF(key, counter(i) || "KDF" || 0x00 || msg || enc(out_len))
    with counter and length as 4-byte big-endian fields. With the HMAC PRF the
    key schedule (K0 and the two padded SHA-256 states, RFC 2104 section 4) is
    built once per call, and each block's ``hmac`` copies it; CMAC still sets
    up its key for every block. Each call looks the MAC up on its module, so a
    wrapper put there is the one called. An unknown ``prf`` raises ``ValueError``.
    """
    try:
        length_field = out_len.to_bytes(FIELD_WIDTH, "big")
    except (OverflowError, AttributeError):  # negative or too large, or not an int
        raise ValueError(f"output length {out_len!r} is not an int that fits in "
                         f"{FIELD_WIDTH} bytes") from None
    if out_len < 1:
        raise ValueError("requested output length must be at least 1 byte")
    # Blocks of 32 or 16 bytes, the PrfChoice values, rounded up.
    if prf is _HMAC:
        mac, key, n_blocks = hmac_mod.hmac, hmac_mod.hmac_key(key), (out_len + 31) >> 5
    elif prf is _CMAC:
        mac, n_blocks = cmac_mod.cmac, (out_len + 15) >> 4
    else:
        raise ValueError(f"unknown PRF {prf!r}; choose a PrfChoice")
    fixed = _LABEL_FIELD + msg + length_field
    out = b"".join([mac(key, i.to_bytes(FIELD_WIDTH, "big") + fixed)
                    for i in range(1, n_blocks + 1)])
    return out if len(out) == out_len else out[:out_len]


def kmac_kdf(key: bytes, msg: bytes, out_len_bits: int) -> bytes:
    """KMAC128 with customization "KDF": one sponge pass for any output length."""
    return kmac_mod.kmac(key, msg, out_len_bits, KDF_LABEL, RATE_128)


def ieee_kdf(key: bytes, i_value: bytes, j_value: bytes, purpose: int) -> bytes:
    """IEEE 1609.2.1-style counter KDF; always 48 bytes.

    The base block is pad(purpose) || i_value || j_value || 0x00000000; for
    i in 1..3 the block plus i (as a 128-bit big-endian integer) is encrypted
    with AES-128 and XORed back onto itself. The sum never wraps: the base's
    low 32 bits are zero, so adding 1..3 cannot carry out of 128 bits. Each
    counter block goes through the AES block function alone, by construction;
    the inputs are public indices, not secrets. ``AesBlockCipher`` chains in
    CBC mode, so each block is sent XORed with the previous ciphertext, which
    cancels the chain.
    """
    if len(i_value) != IEEE_INDEX_LEN or len(j_value) != IEEE_INDEX_LEN:
        raise ValueError(f"i_value and j_value must be {IEEE_INDEX_LEN} bytes each")
    if purpose == PURPOSE_SIGNING:
        pad = SIGNING_PAD
    elif purpose == PURPOSE_ENCRYPTION:
        pad = ENCRYPTION_PAD
    else:
        raise ValueError(f"purpose must be {PURPOSE_SIGNING} or {PURPOSE_ENCRYPTION}")
    encrypt = AesBlockCipher(key).encrypt_block
    base = int.from_bytes(pad + i_value + j_value, "big") << 32
    c1 = int.from_bytes(encrypt((base + 1).to_bytes(AES_BLOCK_LEN, "big")), "big")
    c2 = int.from_bytes(encrypt((base + 2 ^ c1).to_bytes(AES_BLOCK_LEN, "big")), "big")
    c3 = int.from_bytes(encrypt((base + 3 ^ c2).to_bytes(AES_BLOCK_LEN, "big")), "big")
    counters = (base + 1) << 256 | (base + 2) << 128 | base + 3
    return ((c1 << 256 | c2 << 128 | c3) ^ counters).to_bytes(IEEE_OUTPUT_LEN, "big")
