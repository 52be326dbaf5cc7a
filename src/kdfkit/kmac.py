"""cSHAKE and KMAC per NIST SP 800-185.

cSHAKE prepends a bytepad-framed function name N and customization string S
to the message and switches the sponge domain byte to 0x04; with N and S
both empty it degrades to plain SHAKE. KMAC is cSHAKE with N = "KMAC" over
the bytepad-framed key, the message, and the right-encoded output bit
length. Outputs are byte-aligned only.

KMAC's N/S prefix is built once per rate, at import, for the two S values
this package passes: "" (the ``kmac128``/``kmac256`` default) and "KDF"
(``kmac_kdf``). Any other S is framed per call. ``kmac`` frames the whole
input in one pass and makes one sponge call; since N is never empty, it
skips ``cshake``'s SHAKE fallback.
"""

from .primitives import (CSHAKE_PAD, RATE_128, RATE_256, SHAKE_PAD, VALID_RATES,
                         sponge_absorb_squeeze)

FUNCTION_NAME = b"KMAC"


def _minimal_bytes(n: int) -> bytes:
    if n < 0 or n >= 1 << 2040:
        raise ValueError(f"value {n} out of encodable range")
    try:
        return n.to_bytes(max(1, (n.bit_length() + 7) // 8), "big")
    except AttributeError:  # a float or other non-int that compared as in range
        raise ValueError(f"value {n!r} is not an int") from None


def left_encode(n: int) -> bytes:
    """Minimal big-endian bytes of ``n`` prefixed with their byte count."""
    body = _minimal_bytes(n)
    return bytes([len(body)]) + body


def right_encode(n: int) -> bytes:
    """Minimal big-endian bytes of ``n`` suffixed with their byte count."""
    body = _minimal_bytes(n)
    return body + bytes([len(body)])


def encode_string(s: bytes) -> bytes:
    """Length-prefixed string encoding: left_encode(bit length) || s."""
    return left_encode(8 * len(s)) + s


def bytepad(x: bytes, w: int) -> bytes:
    """Prefix ``x`` with left_encode(w) and zero-fill to a multiple of w."""
    if w <= 0:
        raise ValueError(f"bytepad width must be positive, got {w}")
    padded = left_encode(w) + x
    remainder = len(padded) % w
    if remainder:
        padded += bytes(w - remainder)
    return padded


def cshake(msg: bytes, out_len_bits: int, n: bytes, s: bytes, rate: int) -> bytes:
    """cSHAKE at the given rate; equals SHAKE when N and S are both empty."""
    if out_len_bits <= 0 or out_len_bits % 8 != 0:
        raise ValueError("output length must be a positive whole number of bytes")
    out_len = out_len_bits // 8
    if not n and not s:
        # The sponge takes bytes only, and this branch alone passes msg unframed;
        # b"" + msg is msg itself for bytes and a copy of any other bytes-like.
        return sponge_absorb_squeeze(b"" + msg, rate, SHAKE_PAD, out_len)
    prefix = bytepad(encode_string(n) + encode_string(s), rate)
    return sponge_absorb_squeeze(prefix + msg, rate, CSHAKE_PAD, out_len)


# bytepad(encode_string("KMAC") || encode_string(S), rate) for each S this
# package passes; "KDF" is kdf.KDF_LABEL, which kdf's import of this module
# keeps from being imported here. Public constants only, never a call input.
_KMAC_PREFIXES = {(s, rate): bytepad(encode_string(FUNCTION_NAME) + encode_string(s), rate)
                  for s in (b"", b"KDF") for rate in VALID_RATES}
# left_encode(rate), which opens bytepad(encode_string(key), rate).
_RATE_HEADERS = {rate: left_encode(rate) for rate in VALID_RATES}


def kmac(key: bytes, msg: bytes, out_len_bits: int, customization: bytes, rate: int) -> bytes:
    """KMAC tag of ``msg`` under ``key`` at the given sponge rate; ``out_len_bits/8`` bytes.

    The output length is absorbed via right_encode, so tags of different
    lengths are unrelated rather than truncations of each other. A length
    that is not a positive whole number of bytes raises ``ValueError``.
    """
    if out_len_bits <= 0 or out_len_bits % 8 != 0:
        raise ValueError("output length must be a positive whole number of bytes")
    try:
        prefix = _KMAC_PREFIXES[customization, rate]
    except (KeyError, TypeError, ValueError):  # another S or rate, or an unhashable S
        prefix = bytepad(encode_string(FUNCTION_NAME) + encode_string(customization), rate)
    key_block = (_RATE_HEADERS.get(rate) or left_encode(rate)) + encode_string(key)
    fill = bytes(-len(key_block) % rate)
    framed = b"".join((prefix, key_block, fill, msg, right_encode(out_len_bits)))
    return sponge_absorb_squeeze(framed, rate, CSHAKE_PAD, out_len_bits // 8)


def kmac128(key: bytes, msg: bytes, out_len_bits: int = 256, customization: bytes = b"") -> bytes:
    return kmac(key, msg, out_len_bits, customization, RATE_128)


def kmac256(key: bytes, msg: bytes, out_len_bits: int = 512, customization: bytes = b"") -> bytes:
    return kmac(key, msg, out_len_bits, customization, RATE_256)
