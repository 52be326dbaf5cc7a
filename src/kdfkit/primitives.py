"""Low-level primitives behind narrow, byte-oriented interfaces.

Three primitives back every construction in this package:

* AES-128 forward block cipher (FIPS 197) in CBC mode with a zero IV (SP
  800-38A), via the ``cryptography`` package
* SHA-256 (FIPS 180-4), via ``hashlib``, one-shot or from an absorbed prefix
* the Keccak-f[1600] permutation (FIPS 202), via ``nettle_sha3_permute`` in
  the system Nettle (``libnettle.so.8``), bound through ``ctypes``

The Keccak sponge around the permutation is here too. Everything above that
(cSHAKE/KMAC framing, MAC and KDF constructions) lives in the sibling
modules. All inputs and outputs are whole bytes; bit-granular messages are
not supported.
"""

import ctypes
import hashlib
import sys

import cryptography
from cryptography.hazmat.bindings._rust import openssl as _rust_openssl
from cryptography.hazmat.primitives.ciphers.algorithms import AES
from cryptography.hazmat.primitives.ciphers.modes import CBC

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


# Every key setup shares one zero-IV CBC mode object: the context copies the
# IV, and a fresh ``CBC(iv)`` with its IV type check costs ~0.4 µs.
_CBC = CBC(bytes(AES_BLOCK_LEN))

# The factory that ``Cipher(...).encryptor()`` ends in. Missing, it fails the
# import here rather than at the first key setup.
try:
    _create_encryption_ctx = _rust_openssl.ciphers.create_encryption_ctx
except AttributeError:
    raise ImportError(
        "kdfkit needs cryptography>=48, whose Rust bindings expose "
        "openssl.ciphers.create_encryption_ctx; installed is cryptography "
        f"{cryptography.__version__}") from None


# sha256_state(data): a hashlib SHA-256 state that has absorbed ``data``, for
# ``sha256``'s ``prefix``. It is hashlib's constructor itself, with no frame
# around it, and on purpose no wrap point: perfbench's ``sha256`` layer counts
# finished digests, so absorbing a prefix is billed to its caller.
sha256_state = hashlib.sha256


def sha256(data: bytes, prefix=None) -> bytes:
    """SHA-256 digest of ``data`` (FIPS 180-4).

    With ``prefix``, a state from ``sha256_state``, it is the digest of the
    bytes ``prefix`` has absorbed followed by ``data``. ``prefix`` is copied,
    never changed, so one prefix serves any number of digests.
    """
    if prefix is None:
        return sha256_state(data).digest()
    state = prefix.copy()
    state.update(data)
    return state.digest()


class AesBlockCipher:
    """AES-128 in CBC mode with a zero IV, bound to one key, one block per call.

    ``encrypt_block(block)`` returns AES(key, block XOR the previous call's
    output); the first call on a fresh cipher is plain AES. CMAC's chain thus
    runs in OpenSSL; a caller that needs plain AES on a later block XORs the
    previous output into it first, which cancels the chain.
    """

    __slots__ = ("_encryptor",)

    def __init__(self, key: bytes):
        if len(key) != AES_KEY_LEN:
            raise ValueError(f"AES-128 key must be {AES_KEY_LEN} bytes, got {len(key)}")
        # The context comes straight from the factory, skipping only
        # ``Cipher``'s argument checks: the algorithm and mode types, the IV
        # and key sizes and the AEAD tag. The mode and tag checks each look up
        # a class on the ``modes`` module through cryptography's deprecation
        # wrapper (~2.4 µs each), as a per-call ``algorithms.AES`` would. With
        # AES, a 16-byte key and _CBC's 16-byte IV none of the checks can
        # fail; AES(key) still validates the key.
        self._encryptor = _create_encryption_ctx(AES(key), _CBC)

    def encrypt_block(self, block: bytes) -> bytes:
        # The context would buffer a partial block and shift the chain, so
        # anything but one whole block is refused before it gets there.
        if len(block) != AES_BLOCK_LEN:
            raise ValueError(f"AES block must be {AES_BLOCK_LEN} bytes, got {len(block)}")
        return self._encryptor.update(block)


# ---------------------------------------------------------------------------
# Keccak-f[1600] permutation (FIPS 202, section 3). The state is FIPS 202's
# 200-byte state string: lane (x, y) is the little-endian 64-bit word at bytes
# 8*(x + 5*y) .. +7. Nettle's struct sha3_state holds the same 25 lanes as
# host-order uint64_t, so on a little-endian host the two layouts are one, and
# its public nettle_sha3_permute runs the 24 rounds in place on the buffer.
# ---------------------------------------------------------------------------

KECCAK_STATE_LEN = 200

# The state string as one ctypes buffer, the sponge's state for a whole pass.
KeccakState = ctypes.c_ubyte * KECCAK_STATE_LEN

if sys.byteorder != "little":
    raise ImportError("kdfkit needs a little-endian host: its Keccak state string "
                      "is Nettle's host-order lanes as they lie in memory")

# Loaded by soname: ctypes.util.find_library would run ldconfig in a subprocess.
# Both prototypes name KeccakState itself, not a pointer to it, so ctypes
# refuses anything but a 200-byte state (bytes, a shorter array, None) before
# Nettle can read or write past it. keccak_f1600(state) is Nettle's function
# itself: one Keccak-f[1600] permutation of ``state``, in place.
try:
    _nettle = ctypes.CDLL("libnettle.so.8")
    keccak_f1600 = ctypes.CFUNCTYPE(None, KeccakState)(("nettle_sha3_permute", _nettle))
    _memxor = ctypes.CFUNCTYPE(None, KeccakState, ctypes.c_char_p, ctypes.c_size_t)(
        ("nettle_memxor", _nettle))
    # int nettle_version_major(void): ctypes' default restype is already c_int.
    NETTLE_VERSION = f"{_nettle.nettle_version_major()}.{_nettle.nettle_version_minor()}"
except (OSError, AttributeError) as exc:
    raise ImportError(
        "kdfkit needs Nettle 3.x as libnettle.so.8, exporting nettle_sha3_permute "
        f"and nettle_memxor for Keccak-f[1600]: {exc}") from None


class KeccakSponge:
    """One pass of the Keccak sponge over one ``KeccakState``.

    ``sponge_absorb_squeeze`` drives it once, in order: ``absorb`` permutes
    the message's full rate blocks, ``finalize`` pads and permutes the tail,
    and ``squeeze`` reads the output. Each block is XORed into the state in
    place by Nettle's memxor; no input is held between the steps.
    """

    def __init__(self, rate: int):
        if rate not in VALID_RATES:
            raise ValueError(f"sponge rate must be one of {VALID_RATES}, got {rate}")
        self.rate = rate
        self._state = KeccakState()

    def absorb(self, data: bytes) -> bytes:
        """Permute every full rate block of ``data``; return the unabsorbed tail."""
        rate = self.rate
        end = len(data) - len(data) % rate
        state = self._state
        for start in range(0, end, rate):
            _memxor(state, data[start:start + rate], rate)
            keccak_f1600(state)
        return data[end:]

    def finalize(self, tail: bytes, domain_pad: int) -> None:
        """XOR in ``tail`` under pad10*1 with the given domain byte, and permute."""
        rate = self.rate
        # memxor writes len(tail) bytes and the domain byte lands after them, so a
        # longer tail would reach into the capacity or past the state's end.
        if len(tail) >= rate:
            raise ValueError(f"sponge tail must be shorter than the rate {rate}, "
                             f"got {len(tail)} bytes")
        # A c_ubyte item would keep only the low 8 bits of a wider domain byte.
        if not 0 <= domain_pad <= 0xFF:
            raise ValueError(f"domain byte must be in range(256), got {domain_pad}")
        state = self._state
        _memxor(state, tail, len(tail))
        # The domain byte follows the tail; 0x80 lands in the block's last byte.
        state[len(tail)] ^= domain_pad
        state[rate - 1] ^= 0x80
        keccak_f1600(state)

    def squeeze(self, out_len: int) -> bytes:
        """The first ``out_len`` output bytes, one rate block per permutation."""
        rate = self.rate
        state = self._state
        out = bytes(state)[:rate]
        while len(out) < out_len:
            keccak_f1600(state)
            out += bytes(state)[:rate]
        return out[:out_len]


def sponge_absorb_squeeze(data: bytes, rate: int, domain_pad: int, out_len: int) -> bytes:
    """One-shot sponge: pad10*1 with ``domain_pad``, absorb at ``rate``, squeeze.

    ``domain_pad`` is 0x1F for SHAKE and 0x04 for cSHAKE with non-empty
    framing. Output is prefix-stable in ``out_len``. ``data`` must be ``bytes``.
    """
    if out_len <= 0:
        raise ValueError("output length must be positive")
    sponge = KeccakSponge(rate)
    sponge.finalize(sponge.absorb(data), domain_pad)
    return sponge.squeeze(out_len)
