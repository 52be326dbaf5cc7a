"""Property tests: each construction against an independent library, at every
length within 4 bytes of each block edge.

The edges are where padding and framing change: the 64-byte SHA-256 block for
HMAC keys, every 16-byte AES block boundary for CMAC messages (every length
0-80 B and 4080-4112 B), and the 136- and 168-byte sponge rates for SHAKE and
KMAC. A test of two inputs runs every pair of lengths from their windows; the
KMAC test, of four, cycles its windows against each other so that every
length of each runs at least once. Key and message bytes come from
``random.Random`` seeded by the test's name, the input and its length.
HMAC, CMAC and the CMAC counter KDF are also held to Nettle, the SHAKE sponge
to libgcrypt and KMAC to OpenSSL's ``EVP_MAC``, all bound in ``oracles.py``;
Nettle and libgcrypt share no code with the OpenSSL behind hashlib and
cryptography.
"""

import hashlib
import hmac as std_hmac
import itertools
import random

import pytest
from cryptography.hazmat.primitives.ciphers.algorithms import AES
from cryptography.hazmat.primitives.cmac import CMAC as LibCmac

from kdfkit.cmac import cmac
from kdfkit.hmac import hmac
from kdfkit.kdf import PrfChoice, counter_kdf
from kdfkit.kmac import cshake, kmac128, kmac256
from kdfkit.primitives import RATE_128, RATE_256, SHAKE_PAD, sponge_absorb_squeeze
from oracles import (SHAKE128, SHAKE256, gcrypt_shake, load_gcrypt, load_nettle, load_openssl,
                     needs, nettle_cmac, nettle_hmac, openssl_kmac)


def near(*edges, spread=4):
    """Every length within ``spread`` of one of ``edges`` (never negative), ascending."""
    return sorted({n for e in edges for n in range(max(0, e - spread), e + spread + 1)})


@pytest.fixture
def seeded(request):
    """``seeded(role, n)``: n bytes from ``random.Random`` seeded by the test's
    name, ``role`` and n."""
    return lambda role, n: random.Random(f"{request.node.name}/{role}/{n}").randbytes(n)


def hmac_cases(seeded):
    """Every key length by every message length, then the key edges as explicit
    cases: one byte either side of one and two SHA-256 blocks, where a key is
    padded, fills the block, or is hashed first."""
    keys = [seeded("key", n) for n in near(0, 64, 128)]
    msgs = [seeded("msg", n) for n in near(0, 55, 64, 119)]
    yield from itertools.product(keys, msgs)
    for n in (63, 64, 65, 127, 128, 129):
        yield random.Random(n).randbytes(n), b"key edge"


class TestHmac:
    def test_matches_stdlib(self, seeded):
        for key, msg in hmac_cases(seeded):
            assert hmac(key, msg) == std_hmac.new(key, msg, hashlib.sha256).digest(), \
                (len(key), len(msg))

    @needs(load_nettle)
    def test_matches_nettle(self, seeded):
        for key, msg in hmac_cases(seeded):
            assert hmac(key, msg) == nettle_hmac(key, msg), (len(key), len(msg))


def cmac_cases(seeded):
    """A message of every length 0-80 B and 4080-4112 B, each under its own key."""
    for n in [*range(81), *range(4080, 4113)]:
        yield seeded(f"key/{n}", 16), seeded("msg", n)


class TestCmac:
    def test_matches_cryptography(self, seeded):
        for key, msg in cmac_cases(seeded):
            lib = LibCmac(AES(key))
            lib.update(msg)
            assert cmac(key, msg) == lib.finalize(), len(msg)

    @needs(load_nettle)
    def test_matches_nettle(self, seeded):
        for key, msg in cmac_cases(seeded):
            assert cmac(key, msg) == nettle_cmac(key, msg), len(msg)


class TestCmacCounterKdf:
    @needs(load_nettle)
    def test_matches_nettle_blocks(self, seeded):
        for msg_len in near(0, 8, 24):
            key, msg = seeded(f"key/{msg_len}", 16), seeded("msg", msg_len)
            for out_len in [*range(1, 49), *near(1024)]:
                # Block i is CMAC(key, [i]_4 || "KDF" || 0x00 || msg || [out_len]_4).
                fixed = b"KDF\x00" + msg + out_len.to_bytes(4, "big")
                blocks = b"".join(nettle_cmac(key, i.to_bytes(4, "big") + fixed)
                                  for i in range(1, -(-out_len // 16) + 1))
                assert counter_kdf(PrfChoice.CMAC_AES128, key, msg, out_len) == \
                    blocks[:out_len], (msg_len, out_len)


class TestShake:
    @pytest.mark.parametrize("rate, shake", [(RATE_128, hashlib.shake_128),
                                             (RATE_256, hashlib.shake_256)],
                             ids=["shake128", "shake256"])
    def test_matches_hashlib(self, seeded, rate, shake):
        # cSHAKE with empty N and S is plain SHAKE.
        for n in near(0, 136, 168, 272, 336):
            msg = seeded("msg", n)
            for out_len in near(136, 168, 272):
                assert cshake(msg, 8 * out_len, b"", b"", rate) == \
                    shake(msg).digest(out_len), (n, out_len)

    @needs(load_gcrypt)
    @pytest.mark.parametrize("rate, algo", [(RATE_128, SHAKE128), (RATE_256, SHAKE256)],
                             ids=["shake128", "shake256"])
    def test_sponge_matches_libgcrypt(self, seeded, rate, algo):
        # Inputs around 0 and one, two and three blocks at either rate; outputs
        # from a few bytes to across the second squeeze block.
        for n in near(0, 136, 168, 272, 336, 408, 504):
            msg = seeded("msg", n)
            for out_len in [*range(1, 9), *near(136, 168, 272, 336)]:
                assert sponge_absorb_squeeze(msg, rate, SHAKE_PAD, out_len) == \
                    gcrypt_shake(algo, msg, out_len), (n, out_len)


def kmac_cases(seeded):
    """The windows cycled against each other, then the explicit cases."""
    # OpenSSL refuses KMAC keys shorter than 4 bytes. 131 and 163 B make
    # bytepad(encode_string(key)) fill one block exactly at rate 136 and 168.
    windows = (near(8, 131, 136, 163, 168), near(0, 136, 168),
               [*range(1, 9), *near(136, 168)], near(0, 20))
    for i in range(max(map(len, windows))):
        key_len, msg_len, out_len, custom_len = (w[i % len(w)] for w in windows)
        yield (seeded("key", key_len), seeded("msg", msg_len), out_len,
               seeded("custom", custom_len))
    # kmac_kdf's S, whose N/S prefix is built at import, and an S whose prefix
    # spans two blocks at either rate.
    yield bytes(range(16)), bytes(range(32)), 48, b"KDF"
    yield bytes(range(16)), bytes(range(32)), 32, random.Random(170).randbytes(170)


@needs(load_openssl)
class TestKmac:
    @pytest.mark.parametrize("bits, kmac", [(128, kmac128), (256, kmac256)])
    def test_matches_openssl(self, seeded, bits, kmac):
        for key, msg, out_len, custom in kmac_cases(seeded):
            assert kmac(key, msg, 8 * out_len, custom) == \
                openssl_kmac(bits, key, msg, out_len, custom), \
                (len(key), len(msg), out_len, len(custom))
