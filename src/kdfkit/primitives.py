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

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

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


def sha256(data: bytes) -> bytes:
    """SHA-256 digest of ``data`` (FIPS 180-4)."""
    return hashlib.sha256(data).digest()


class AesBlockCipher:
    """AES-128 forward cipher bound to one key, for repeated block calls."""

    def __init__(self, key: bytes):
        if len(key) != AES_KEY_LEN:
            raise ValueError(f"AES-128 key must be {AES_KEY_LEN} bytes, got {len(key)}")
        # ECB has no chaining state, so one streaming encryptor can serve
        # any number of independent 16-byte blocks.
        self._encryptor = Cipher(algorithms.AES(key), modes.ECB()).encryptor()

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != AES_BLOCK_LEN:
            raise ValueError(f"AES block must be {AES_BLOCK_LEN} bytes, got {len(block)}")
        return self._encryptor.update(block)


def aes_encrypt_block(key: bytes, plaintext: bytes) -> bytes:
    """AES-128 forward cipher of a single 16-byte block."""
    return AesBlockCipher(key).encrypt_block(plaintext)


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

# Rho rotation offsets, flat index x + 5*y.
_ROTATIONS = (
    0, 1, 62, 28, 27,
    36, 44, 6, 55, 20,
    3, 10, 43, 25, 39,
    41, 45, 15, 21, 8,
    18, 2, 61, 56, 14,
)


# Pi: lane x + 5*y moves to y + 5*((2x + 3y) % 5).
_PI_DEST = tuple(y + 5 * ((2 * x + 3 * y) % 5) for y in range(5) for x in range(5))

# Chi: lane x + 5*y combines with lanes (x+1, y) and (x+2, y).
_CHI_NEIGHBOURS = tuple(((x + 1) % 5 + 5 * y, (x + 2) % 5 + 5 * y)
                        for y in range(5) for x in range(5))


def keccak_f1600(lanes: list) -> list:
    """One Keccak-f[1600] permutation over 25 64-bit lanes (new list returned)."""
    a = lanes
    b = [0] * 25
    for rc in _ROUND_CONSTANTS:
        # theta: c[x - 1] and c[x - 4] are the columns left and right of x.
        c = [a[x] ^ a[x + 5] ^ a[x + 10] ^ a[x + 15] ^ a[x + 20] for x in range(5)]
        d = [c[x - 1] ^ (((c[x - 4] << 1) | (c[x - 4] >> 63)) & _MASK64) for x in range(5)]
        # theta applied per lane, then rho + pi
        for v, dx, dest, r in zip(a, d * 5, _PI_DEST, _ROTATIONS):
            v ^= dx
            b[dest] = ((v << r) | (v >> (64 - r))) & _MASK64
        # chi (into a fresh list, so the caller's lanes are never written)
        a = [bi ^ (~b[j] & b[k]) for bi, (j, k) in zip(b, _CHI_NEIGHBOURS)]
        # iota
        a[0] ^= rc
    return a


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
