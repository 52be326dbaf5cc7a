"""Low-level primitives behind narrow, byte-oriented interfaces.

Three primitives back every construction in this package:

* AES-128 forward block cipher (FIPS 197), via the ``cryptography`` package
* SHA-256 (FIPS 180-4), via ``hashlib``
* the Keccak-f[1600] permutation (FIPS 202), implemented here because no
  maintained Python library exposes the bare permutation

Everything above these (sponge framing, padding, MAC and KDF constructions)
lives in the sibling modules. All inputs and outputs are whole bytes;
bit-granular messages are not supported.
"""

import hashlib

from cryptography.hazmat.primitives.ciphers import Cipher
from cryptography.hazmat.primitives.ciphers.algorithms import AES
from cryptography.hazmat.primitives.ciphers.modes import ECB

AES_BLOCK_LEN = 16
AES_KEY_LEN = 16

# SHA-256 input block (the HMAC key block) and digest sizes in bytes.
SHA256_BLOCK_LEN = 64
SHA256_DIGEST_LEN = 32

# Sponge rates in bytes of the 128- and 256-bit SHAKE/cSHAKE/KMAC variants.
RATE_128 = 168
RATE_256 = 136
VALID_RATES = (RATE_128, RATE_256)

# Multi-rate padding domain bytes per FIPS 202 / SP 800-185.
SHAKE_PAD = 0x1F
CSHAKE_PAD = 0x04


# ECB carries no per-key state, so every key setup shares one mode object.
_ECB = ECB()


def sha256(data: bytes) -> bytes:
    """SHA-256 digest of ``data`` (FIPS 180-4)."""
    return hashlib.sha256(data).digest()


class AesBlockCipher:
    """AES-128 forward cipher bound to one key, for repeated block calls."""

    def __init__(self, key: bytes):
        if len(key) != AES_KEY_LEN:
            raise ValueError(f"AES-128 key must be {AES_KEY_LEN} bytes, got {len(key)}")
        # ECB has no chaining state, so one streaming encryptor can serve
        # any number of independent 16-byte blocks. AES and _ECB are bound at
        # import: a lookup on the ``algorithms`` or ``modes`` module per call
        # goes through cryptography's deprecation wrapper, ~2 µs each.
        self._encryptor = Cipher(AES(key), _ECB).encryptor()

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != AES_BLOCK_LEN:
            raise ValueError(f"AES block must be {AES_BLOCK_LEN} bytes, got {len(block)}")
        return self._encryptor.update(block)


# ---------------------------------------------------------------------------
# Keccak-f[1600] permutation (FIPS 202, section 3). State is 25 64-bit lanes,
# lane (x, y) stored little-endian at flat index x + 5*y.
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1

_ROUND_CONSTANTS = (
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A, 0x8000000080008000,
    0x000000000000808B, 0x0000000080000001, 0x8000000080008081, 0x8000000000008009,
    0x000000000000008A, 0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089, 0x8000000000008003,
    0x8000000000008002, 0x8000000000000080, 0x000000000000800A, 0x800000008000000A,
    0x8000000080008081, 0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
)


def keccak_f1600(lanes: list) -> list:
    """One Keccak-f[1600] permutation over 25 64-bit lanes (new list returned)."""
    # Straight-line rounds over 25 local ints, in the shape of XKCP's compact
    # KeccakP-1600 reference. The body was generated once, by a script that wrote
    # out the loop form kept in tests/reference.py (keccak_f1600_reference) lane
    # by lane: theta's column parities c[x] and d[x] = c[x-1] ^ rotl(c[x+1], 1);
    # rho + pi with each lane's source, theta column and rotation as literals;
    # chi along each row, with iota's round constant folded into lane 0. Chi's
    # ~b[x+1] & b[x+2] is written (b[x+1] | b[x+2]) ^ b[x+1]: the same bits with
    # no negative intermediate, which CPython's bitwise operators handle more slowly.
    (a0, a1, a2, a3, a4,
     a5, a6, a7, a8, a9,
     a10, a11, a12, a13, a14,
     a15, a16, a17, a18, a19,
     a20, a21, a22, a23, a24) = lanes
    for rc in _ROUND_CONSTANTS:
        # theta
        c0 = a0 ^ a5 ^ a10 ^ a15 ^ a20
        c1 = a1 ^ a6 ^ a11 ^ a16 ^ a21
        c2 = a2 ^ a7 ^ a12 ^ a17 ^ a22
        c3 = a3 ^ a8 ^ a13 ^ a18 ^ a23
        c4 = a4 ^ a9 ^ a14 ^ a19 ^ a24
        d0 = c4 ^ (((c1 << 1) | (c1 >> 63)) & _MASK64)
        d1 = c0 ^ (((c2 << 1) | (c2 >> 63)) & _MASK64)
        d2 = c1 ^ (((c3 << 1) | (c3 >> 63)) & _MASK64)
        d3 = c2 ^ (((c4 << 1) | (c4 >> 63)) & _MASK64)
        d4 = c3 ^ (((c0 << 1) | (c0 >> 63)) & _MASK64)
        # rho + pi: b[dest] = rotl(a[src] ^ d[src % 5], rho[src])
        b0 = a0 ^ d0
        v = a6 ^ d1
        b1 = ((v << 44) | (v >> 20)) & _MASK64
        v = a12 ^ d2
        b2 = ((v << 43) | (v >> 21)) & _MASK64
        v = a18 ^ d3
        b3 = ((v << 21) | (v >> 43)) & _MASK64
        v = a24 ^ d4
        b4 = ((v << 14) | (v >> 50)) & _MASK64
        v = a3 ^ d3
        b5 = ((v << 28) | (v >> 36)) & _MASK64
        v = a9 ^ d4
        b6 = ((v << 20) | (v >> 44)) & _MASK64
        v = a10 ^ d0
        b7 = ((v << 3) | (v >> 61)) & _MASK64
        v = a16 ^ d1
        b8 = ((v << 45) | (v >> 19)) & _MASK64
        v = a22 ^ d2
        b9 = ((v << 61) | (v >> 3)) & _MASK64
        v = a1 ^ d1
        b10 = ((v << 1) | (v >> 63)) & _MASK64
        v = a7 ^ d2
        b11 = ((v << 6) | (v >> 58)) & _MASK64
        v = a13 ^ d3
        b12 = ((v << 25) | (v >> 39)) & _MASK64
        v = a19 ^ d4
        b13 = ((v << 8) | (v >> 56)) & _MASK64
        v = a20 ^ d0
        b14 = ((v << 18) | (v >> 46)) & _MASK64
        v = a4 ^ d4
        b15 = ((v << 27) | (v >> 37)) & _MASK64
        v = a5 ^ d0
        b16 = ((v << 36) | (v >> 28)) & _MASK64
        v = a11 ^ d1
        b17 = ((v << 10) | (v >> 54)) & _MASK64
        v = a17 ^ d2
        b18 = ((v << 15) | (v >> 49)) & _MASK64
        v = a23 ^ d3
        b19 = ((v << 56) | (v >> 8)) & _MASK64
        v = a2 ^ d2
        b20 = ((v << 62) | (v >> 2)) & _MASK64
        v = a8 ^ d3
        b21 = ((v << 55) | (v >> 9)) & _MASK64
        v = a14 ^ d4
        b22 = ((v << 39) | (v >> 25)) & _MASK64
        v = a15 ^ d0
        b23 = ((v << 41) | (v >> 23)) & _MASK64
        v = a21 ^ d1
        b24 = ((v << 2) | (v >> 62)) & _MASK64
        # chi, then iota on lane 0
        a0 = b0 ^ ((b1 | b2) ^ b1) ^ rc
        a1 = b1 ^ ((b2 | b3) ^ b2)
        a2 = b2 ^ ((b3 | b4) ^ b3)
        a3 = b3 ^ ((b4 | b0) ^ b4)
        a4 = b4 ^ ((b0 | b1) ^ b0)
        a5 = b5 ^ ((b6 | b7) ^ b6)
        a6 = b6 ^ ((b7 | b8) ^ b7)
        a7 = b7 ^ ((b8 | b9) ^ b8)
        a8 = b8 ^ ((b9 | b5) ^ b9)
        a9 = b9 ^ ((b5 | b6) ^ b5)
        a10 = b10 ^ ((b11 | b12) ^ b11)
        a11 = b11 ^ ((b12 | b13) ^ b12)
        a12 = b12 ^ ((b13 | b14) ^ b13)
        a13 = b13 ^ ((b14 | b10) ^ b14)
        a14 = b14 ^ ((b10 | b11) ^ b10)
        a15 = b15 ^ ((b16 | b17) ^ b16)
        a16 = b16 ^ ((b17 | b18) ^ b17)
        a17 = b17 ^ ((b18 | b19) ^ b18)
        a18 = b18 ^ ((b19 | b15) ^ b19)
        a19 = b19 ^ ((b15 | b16) ^ b15)
        a20 = b20 ^ ((b21 | b22) ^ b21)
        a21 = b21 ^ ((b22 | b23) ^ b22)
        a22 = b22 ^ ((b23 | b24) ^ b23)
        a23 = b23 ^ ((b24 | b20) ^ b24)
        a24 = b24 ^ ((b20 | b21) ^ b20)
    return [a0, a1, a2, a3, a4,
            a5, a6, a7, a8, a9,
            a10, a11, a12, a13, a14,
            a15, a16, a17, a18, a19,
            a20, a21, a22, a23, a24]


class KeccakSponge:
    """Incremental Keccak sponge over 25 64-bit lanes.

    Single-owner: absorb in any number of calls, finalize once with a domain
    byte, then squeeze any number of output bytes. Not thread-safe.
    """

    def __init__(self, rate: int):
        if rate not in VALID_RATES:
            raise ValueError(f"sponge rate must be one of {VALID_RATES}, got {rate}")
        self.rate = rate
        self._lanes = [0] * 25
        self._pending = b""  # absorbed bytes short of a full rate block
        self._squeezed = None  # unread output of the current block; set by finalize

    def _absorb_block(self, block: bytes) -> None:
        lanes = self._lanes
        for i in range(self.rate // 8):
            lanes[i] ^= int.from_bytes(block[8 * i:8 * i + 8], "little")
        self._lanes = keccak_f1600(lanes)

    def _output_block(self) -> bytes:
        return b"".join(lane.to_bytes(8, "little") for lane in self._lanes[:self.rate // 8])

    def absorb(self, data: bytes) -> None:
        if self._squeezed is not None:
            raise ValueError("cannot absorb after finalize")
        data = self._pending + data
        rate = self.rate
        end = len(data) - len(data) % rate
        for start in range(0, end, rate):
            self._absorb_block(data[start:start + rate])
        self._pending = data[end:]

    def finalize(self, domain_pad: int) -> None:
        """Apply pad10*1 with the given domain byte and close absorption."""
        if self._squeezed is not None:
            raise ValueError("sponge already finalized")
        # The domain byte follows the pending input; 0x80 lands in the block's last byte.
        padded = int.from_bytes(self._pending + bytes([domain_pad]), "little")
        padded ^= 0x80 << 8 * (self.rate - 1)
        self._absorb_block(padded.to_bytes(self.rate, "little"))
        self._squeezed = self._output_block()

    def squeeze(self, out_len: int) -> bytes:
        if self._squeezed is None:
            raise ValueError("finalize before squeezing")
        if out_len < 0:
            raise ValueError("output length must not be negative")
        out = self._squeezed
        while len(out) < out_len:
            self._lanes = keccak_f1600(self._lanes)
            out += self._output_block()
        self._squeezed = out[out_len:]
        return out[:out_len]


def sponge_absorb_squeeze(data: bytes, rate: int, domain_pad: int, out_len: int) -> bytes:
    """One-shot sponge: pad10*1 with ``domain_pad``, absorb at ``rate``, squeeze.

    ``domain_pad`` is 0x1F for SHAKE and 0x04 for cSHAKE with non-empty
    framing. Output is prefix-stable in ``out_len``.
    """
    if out_len <= 0:
        raise ValueError("output length must be positive")
    sponge = KeccakSponge(rate)
    sponge.absorb(data)
    sponge.finalize(domain_pad)
    return sponge.squeeze(out_len)
