"""Key derivation functions built on the MAC constructions.

Three families:

* counter-mode KDF in the style of NIST SP 800-108, with HMAC-SHA256 or
  AES-128-CMAC as the pluggable PRF
* KMAC-based KDF: KMAC128 with customization string "KDF"
* the IEEE 1609.2.1 counter KDF used for butterfly key expansion, built
  directly on AES-128 in ECB fashion; its counter never wraps, since the
  base block ends in 32 zero bits and only 1..3 is added

All functions are pure; no derived material is cached.
"""

import enum

from . import cmac as cmac_mod
from . import hmac as hmac_mod
from . import kmac as kmac_mod
from .primitives import AES_BLOCK_LEN, SHA256_DIGEST_LEN, AesBlockCipher

KDF_LABEL = b"KDF"

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
    """PRF selector for the counter-mode KDF, with output block size B."""

    HMAC_SHA256 = SHA256_DIGEST_LEN
    CMAC_AES128 = AES_BLOCK_LEN

    @property
    def block_len(self) -> int:
        return self.value

    @property
    def mac(self):
        """The MAC ``(key, msg) -> tag``, looked up at each access so that a
        wrapper put on the module attribute is the one called."""
        return hmac_mod.hmac if self is PrfChoice.HMAC_SHA256 else cmac_mod.cmac


def counter_kdf(prf: PrfChoice, key: bytes, msg: bytes, out_len: int) -> bytes:
    """Counter-mode KDF: concatenated PRF outputs, truncated to ``out_len`` bytes.

    Block i (1-based) is PRF(key, counter(i) || "KDF" || 0x00 || msg || enc(out_len))
    with counter and length as 4-byte big-endian fields.
    """
    if out_len < 1:
        raise ValueError("requested output length must be at least 1 byte")
    try:
        length_field = out_len.to_bytes(FIELD_WIDTH, "big")
    except OverflowError:
        raise ValueError(f"output length {out_len} does not fit in {FIELD_WIDTH} bytes") from None
    mac = prf.mac
    fixed = KDF_LABEL + b"\x00" + msg + length_field
    n_blocks = -(-out_len // prf.block_len)
    return b"".join(mac(key, i.to_bytes(FIELD_WIDTH, "big") + fixed)
                    for i in range(1, n_blocks + 1))[:out_len]


def kmac_kdf(key: bytes, msg: bytes, out_len_bits: int) -> bytes:
    """KMAC128 with customization "KDF": one sponge pass for any output length."""
    return kmac_mod.kmac128(key, msg, out_len_bits, KDF_LABEL)


def ieee_kdf(key: bytes, i_value: bytes, j_value: bytes, purpose: int) -> bytes:
    """IEEE 1609.2.1-style counter KDF; always 48 bytes.

    The base block is pad(purpose) || i_value || j_value || 0x00000000; for
    i in 1..3 the block plus i (as a 128-bit big-endian integer) is encrypted
    with AES-128 and XORed back onto itself. The sum never wraps: the base's
    low 32 bits are zero, so adding 1..3 cannot carry out of 128 bits. AES
    runs in raw ECB fashion here by construction; the inputs are public
    indices, not secrets.
    """
    if len(i_value) != IEEE_INDEX_LEN or len(j_value) != IEEE_INDEX_LEN:
        raise ValueError(f"i_value and j_value must be {IEEE_INDEX_LEN} bytes each")
    if purpose == PURPOSE_SIGNING:
        pad = SIGNING_PAD
    elif purpose == PURPOSE_ENCRYPTION:
        pad = ENCRYPTION_PAD
    else:
        raise ValueError(f"purpose must be {PURPOSE_SIGNING} or {PURPOSE_ENCRYPTION}")
    cipher = AesBlockCipher(key)
    base = int.from_bytes(pad + i_value + j_value + bytes(4), "big")
    out = bytearray()
    for i in (1, 2, 3):
        counter = base + i
        encrypted = cipher.encrypt_block(counter.to_bytes(16, "big"))
        out += (int.from_bytes(encrypted, "big") ^ counter).to_bytes(16, "big")
    return bytes(out)
