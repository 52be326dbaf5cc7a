"""Derandomized property tests: each construction against an independent library.

Lengths are drawn around the block edges where padding and framing change:
the 64-byte SHA-256 block for HMAC keys, every 16-byte AES block boundary
for CMAC messages, and the 136- and 168-byte sponge rates for SHAKE and KMAC.
HMAC, CMAC and the CMAC counter KDF are also held to Nettle, and the SHAKE
sponge to libgcrypt; neither shares code with the OpenSSL behind hashlib and
cryptography.
"""

import hashlib
import hmac as std_hmac
import random

import pytest
from cryptography.hazmat.primitives.ciphers.algorithms import AES
from cryptography.hazmat.primitives.cmac import CMAC as LibCmac
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kdfkit.cmac import cmac
from kdfkit.hmac import hmac
from kdfkit.kdf import PrfChoice, counter_kdf
from kdfkit.kmac import cshake, kmac128, kmac256
from kdfkit.primitives import RATE_128, RATE_256, SHAKE_PAD, sponge_absorb_squeeze
from gcrypt_oracles import SHAKE128, SHAKE256, gcrypt_shake
from gcrypt_oracles import load as load_gcrypt
from nettle_oracles import load as load_nettle
from nettle_oracles import nettle_cmac, nettle_hmac
from openssl_kmac import load, openssl_kmac

DERANDOMIZED = settings(derandomize=True, deadline=None, max_examples=150)

_, _NETTLE_MISSING = load_nettle()
NEEDS_NETTLE = pytest.mark.skipif(_NETTLE_MISSING is not None, reason=str(_NETTLE_MISSING))
_, _GCRYPT_MISSING = load_gcrypt()
NEEDS_GCRYPT = pytest.mark.skipif(_GCRYPT_MISSING is not None, reason=str(_GCRYPT_MISSING))


def near(*edges, spread=4):
    """An integer within ``spread`` of one of ``edges`` (never negative)."""
    return st.one_of([st.integers(max(0, e - spread), e + spread) for e in edges])


def sized_bytes(lengths):
    """Bytes of a drawn length; the content comes from a drawn seed, so 4-KiB
    messages cost no more to draw than short ones."""
    return st.builds(lambda n, seed: random.Random(seed).randbytes(n),
                     lengths, st.integers(0, 2**32 - 1))


def hmac_key_edges(test):
    """Always run HMAC keys one byte either side of one and two SHA-256 blocks,
    where a key is padded, fills the block, or is hashed first."""
    for n in (63, 64, 65, 127, 128, 129):
        test = example(key=random.Random(n).randbytes(n), msg=b"key edge")(test)
    return test


class TestHmac:
    @DERANDOMIZED
    @hmac_key_edges
    @given(key=sized_bytes(near(0, 64, 128)), msg=sized_bytes(near(0, 55, 64, 119)))
    def test_matches_stdlib(self, key, msg):
        assert hmac(key, msg) == std_hmac.new(key, msg, hashlib.sha256).digest()

    @NEEDS_NETTLE
    @DERANDOMIZED
    @hmac_key_edges
    @given(key=sized_bytes(near(0, 64, 128)), msg=sized_bytes(near(0, 55, 64, 119)))
    def test_matches_nettle(self, key, msg):
        assert hmac(key, msg) == nettle_hmac(key, msg)


class TestCmac:
    @DERANDOMIZED
    @given(key=sized_bytes(st.just(16)),
           msg=sized_bytes(st.one_of(st.integers(0, 80), st.integers(4080, 4112))))
    def test_matches_cryptography(self, key, msg):
        lib = LibCmac(AES(key))
        lib.update(msg)
        assert cmac(key, msg) == lib.finalize()

    @NEEDS_NETTLE
    @DERANDOMIZED
    @given(key=sized_bytes(st.just(16)),
           msg=sized_bytes(st.one_of(st.integers(0, 80), st.integers(4080, 4112))))
    def test_matches_nettle(self, key, msg):
        assert cmac(key, msg) == nettle_cmac(key, msg)


class TestCmacCounterKdf:
    @NEEDS_NETTLE
    @settings(DERANDOMIZED, max_examples=60)
    @given(key=sized_bytes(st.just(16)), msg=sized_bytes(near(0, 8, 24)),
           out_len=st.one_of(st.integers(1, 48), near(1024)))
    def test_matches_nettle_blocks(self, key, msg, out_len):
        # Block i is CMAC(key, [i]_4 || "KDF" || 0x00 || msg || [out_len]_4).
        fixed = b"KDF\x00" + msg + out_len.to_bytes(4, "big")
        blocks = b"".join(nettle_cmac(key, i.to_bytes(4, "big") + fixed)
                          for i in range(1, -(-out_len // 16) + 1))
        assert counter_kdf(PrfChoice.CMAC_AES128, key, msg, out_len) == blocks[:out_len]


class TestShake:
    @pytest.mark.parametrize("rate, shake", [(RATE_128, hashlib.shake_128),
                                             (RATE_256, hashlib.shake_256)],
                             ids=["shake128", "shake256"])
    @DERANDOMIZED
    @given(msg=sized_bytes(near(0, 136, 168, 272, 336)),
           out_len=near(136, 168, 272))
    def test_matches_hashlib(self, rate, shake, msg, out_len):
        # cSHAKE with empty N and S is plain SHAKE.
        assert cshake(msg, 8 * out_len, b"", b"", rate) == shake(msg).digest(out_len)

    @NEEDS_GCRYPT
    @pytest.mark.parametrize("rate, algo", [(RATE_128, SHAKE128), (RATE_256, SHAKE256)],
                             ids=["shake128", "shake256"])
    @DERANDOMIZED
    # Inputs around 0 and one, two and three blocks at either rate; outputs
    # from a few bytes to across the second squeeze block.
    @given(msg=sized_bytes(near(0, 136, 168, 272, 336, 408, 504)),
           out_len=st.one_of(st.integers(1, 8), near(136, 168, 272, 336)))
    def test_sponge_matches_libgcrypt(self, rate, algo, msg, out_len):
        assert sponge_absorb_squeeze(msg, rate, SHAKE_PAD, out_len) == \
            gcrypt_shake(algo, msg, out_len)


class TestKmac:
    @pytest.fixture(scope="class", autouse=True)
    def _needs_openssl(self):
        _, reason = load()
        if reason is not None:
            pytest.skip(reason)

    @pytest.mark.parametrize("bits, kmac", [(128, kmac128), (256, kmac256)])
    @settings(DERANDOMIZED, max_examples=60)
    # OpenSSL refuses KMAC keys shorter than 4 bytes. 131 and 163 B make
    # bytepad(encode_string(key)) fill one block exactly at rate 136 and 168.
    @given(key=sized_bytes(near(8, 131, 136, 163, 168)),
           msg=sized_bytes(near(0, 136, 168)),
           out_len=st.one_of(st.integers(1, 8), near(136, 168)),
           custom=sized_bytes(near(0, 20)))
    # kmac_kdf's S, whose N/S prefix is built at import, and an S whose prefix
    # spans two blocks at either rate.
    @example(key=bytes(range(16)), msg=bytes(range(32)), out_len=48, custom=b"KDF")
    @example(key=bytes(range(16)), msg=bytes(range(32)), out_len=32,
             custom=random.Random(170).randbytes(170))
    def test_matches_openssl(self, bits, kmac, key, msg, out_len, custom):
        assert kmac(key, msg, 8 * out_len, custom) == \
            openssl_kmac(bits, key, msg, out_len, custom)
