"""cSHAKE/KMAC against the NIST SP 800-185 sample vectors and their invariants."""

import hashlib
import random
import sys

import pytest

from kdfkit import primitives, vectors
from kdfkit import kmac as kmac_mod
from kdfkit.kdf import KDF_LABEL, kmac_kdf
from kdfkit.kmac import (
    FUNCTION_NAME,
    bytepad,
    cshake,
    encode_string,
    kmac,
    kmac128,
    kmac256,
    left_encode,
    right_encode,
)
from kdfkit.primitives import RATE_128, RATE_256, VALID_RATES
from oracles import load_openssl, needs, openssl_kmac

SAMPLE_KEY = bytes(range(0x40, 0x60))
LONG_MSG = bytes(range(200))
EMAIL_SIG = b"Email Signature"
TAGGED_APP = b"My Tagged Application"


class TestEncodings:
    def test_right_encode_zero(self):
        assert right_encode(0).hex() == "0001"

    def test_left_encode_rate_bits(self):
        assert left_encode(168 * 8).hex() == "020540"

    def test_right_encode_256(self):
        assert right_encode(256).hex() == "010002"

    def test_left_encode_zero(self):
        assert left_encode(0).hex() == "0100"

    def test_encode_string_round_trip(self):
        rng = random.Random(0xE5)
        for _ in range(200):
            data = rng.randbytes(rng.randrange(0, 1001))
            encoded = encode_string(data)
            n_len = encoded[0]
            bit_len = int.from_bytes(encoded[1:1 + n_len], "big")
            assert bit_len == 8 * len(data)
            assert encoded[1 + n_len:] == data

    def test_bytepad_alignment(self):
        for w in (168, 136):
            for data_len in (0, 1, w - 3, w, w + 5):
                padded = bytepad(bytes(data_len), w)
                assert len(padded) % w == 0
                assert padded.startswith(left_encode(w))

    @pytest.mark.parametrize("w", [0, -1, -168])
    def test_bytepad_rejects_non_positive_width(self, w):
        with pytest.raises(ValueError, match="bytepad width"):
            bytepad(b"x", w)

    def test_encode_range_check(self):
        with pytest.raises(ValueError):
            left_encode(-1)

    @pytest.mark.parametrize("encode", [left_encode, right_encode])
    def test_encode_rejects_a_float(self, encode):
        with pytest.raises(ValueError, match="not an int"):
            encode(8.0)


class TestCshake:
    def test_empty_framing_falls_back_to_shake(self):
        rng = random.Random(4)
        for data in (b"", b"\x00\x01\x02\x03", rng.randbytes(300)):
            assert cshake(data, 256, b"", b"", 168) == hashlib.shake_128(data).digest(32)
            assert cshake(data, 512, b"", b"", 136) == hashlib.shake_256(data).digest(64)

    def test_nist_sample_1(self):
        out = cshake(bytes.fromhex("00010203"), 256, b"", EMAIL_SIG, 168)
        assert out.hex() == (
            "c1c36925b6409a04f1b504fcbca9d82b4017277cb5ed2b2065fc1d3814d5aaf5")

    def test_nist_sample_2(self):
        out = cshake(LONG_MSG, 256, b"", EMAIL_SIG, 168)
        assert out.hex() == (
            "c5221d50e4f822d96a2e8881a961420f294b7b24fe3d2094baed2c6524cc166b")

    def test_deterministic(self):
        args = (b"msg", 256, b"N", b"S", 168)
        assert cshake(*args) == cshake(*args)

    def test_rejects_partial_bytes(self):
        with pytest.raises(ValueError):
            cshake(b"", 255, b"", b"", 168)

    def test_zero_rate_is_a_value_error(self):
        # With N non-empty, bytepad(..., 0) runs before the sponge's rate check.
        with pytest.raises(ValueError, match="bytepad width"):
            cshake(b"m", 256, b"N", b"", 0)

    @pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
    def test_shake_path_takes_bytes_like_messages(self, wrap):
        # Empty N and S pass the message unframed; cshake's b"" + msg hands the
        # sponge a bytes copy of any other bytes-like input.
        msg = random.Random(5).randbytes(400)
        for rate in VALID_RATES:
            assert cshake(wrap(msg), 256, b"", b"", rate) == cshake(msg, 256, b"", b"", rate)

    @pytest.mark.parametrize("wrap", [bytearray, memoryview])
    def test_cshake_path_takes_bytes_like_messages(self, wrap):
        # With N or S set, the framed prefix + msg is a fresh bytes object.
        msg = random.Random(6).randbytes(400)
        for rate in VALID_RATES:
            assert cshake(wrap(msg), 256, b"N", b"S", rate) == cshake(msg, 256, b"N", b"S", rate)

    def test_shake_path_rejects_an_int_message(self):
        # bytes(5) would be five zero bytes; cshake's b"" + msg refuses the int instead.
        with pytest.raises(TypeError):
            cshake(5, 256, b"", b"", 168)


class TestKmac:
    def test_nist_sample_1(self):
        out = kmac128(SAMPLE_KEY, bytes.fromhex("00010203"), 256)
        assert out.hex() == (
            "e5780b0d3ea6f7d3a429c5706aa43a00fadbd7d49628839e3187243f456ee14e")

    def test_nist_sample_2(self):
        out = kmac128(SAMPLE_KEY, bytes.fromhex("00010203"), 256, TAGGED_APP)
        assert out.hex() == (
            "3b1fba963cd8b0b59e8c1a6d71888b7143651af8ba0a7070c0979e2811324aa5")

    def test_nist_sample_3(self):
        out = kmac128(SAMPLE_KEY, LONG_MSG, 256, TAGGED_APP)
        assert out.hex() == (
            "1f5b4e6cca02209e0dcb5ca635b89a15e271ecc760071dfd805faa38f9729230")

    def test_output_length_sweep(self):
        for bits in range(8, 4097, 8):
            out = kmac128(SAMPLE_KEY, b"m", bits)
            assert len(out) == bits // 8

    def test_length_is_domain_separating(self):
        short = kmac128(SAMPLE_KEY, b"m", 256)
        long = kmac128(SAMPLE_KEY, b"m", 512)
        assert long[:32] != short  # not a truncation relationship

    def test_customization_domain_separation(self):
        plain = kmac128(SAMPLE_KEY, b"m", 256, b"")
        tagged = kmac128(SAMPLE_KEY, b"m", 256, b"KDF")
        assert plain != tagged

    def test_kmac256_rate_and_length(self):
        out = kmac256(SAMPLE_KEY, b"m", 512)
        assert len(out) == 64
        assert RATE_256 == 136
        assert RATE_128 == 168
        assert out == kmac(SAMPLE_KEY, b"m", 512, b"", RATE_256)
        assert kmac128(SAMPLE_KEY, b"m") == kmac(SAMPLE_KEY, b"m", 256, b"", RATE_128)

    def test_variants_disagree(self):
        assert kmac128(SAMPLE_KEY, b"m", 256) != kmac256(SAMPLE_KEY, b"m", 256)

    @pytest.mark.parametrize("bits", [0, -8, 12, 255])
    def test_invalid_output_bits(self, bits):
        with pytest.raises(ValueError, match="whole number of bytes"):
            kmac(SAMPLE_KEY, b"m", bits, b"", RATE_128)
        with pytest.raises(ValueError, match="whole number of bytes"):
            kmac256(SAMPLE_KEY, b"m", bits)
        with pytest.raises(ValueError, match="whole number of bytes"):
            kmac_kdf(SAMPLE_KEY, b"m", bits)

    @pytest.mark.parametrize("bits", [256.0, 384.0])
    def test_float_output_bits_is_a_value_error(self, bits):
        # A float that is a whole number of bytes passes the length check and
        # reaches right_encode, which needs an int.
        with pytest.raises(ValueError, match="not an int"):
            kmac128(SAMPLE_KEY, b"m", bits)
        with pytest.raises(ValueError, match="not an int"):
            kmac_kdf(SAMPLE_KEY, b"m", bits)

    @pytest.mark.parametrize("custom", [b"", b"KDF", b"other"])
    def test_invalid_rate_is_refused_by_the_sponge(self, custom):
        with pytest.raises(ValueError, match="sponge rate"):
            kmac(SAMPLE_KEY, b"m", 256, custom, 100)

    @pytest.mark.parametrize("custom", [b"", b"KDF", b"other"])
    def test_zero_rate_is_a_value_error(self, custom):
        with pytest.raises(ValueError, match="bytepad width"):
            kmac(SAMPLE_KEY, b"m", 256, custom, 0)


class TestFraming:
    """kmac frames its input in one pass over prefixes built at import; SP
    800-185 defines it through cSHAKE, which these tests keep as the reference."""

    def test_prefix_table_entries(self):
        for (custom, rate), prefix in kmac_mod._KMAC_PREFIXES.items():
            assert prefix == bytepad(encode_string(FUNCTION_NAME) + encode_string(custom), rate)

    def test_kdf_label_is_tabled(self):
        # A changed label would still be correct, but framed per call.
        for rate in VALID_RATES:
            assert (KDF_LABEL, rate) in kmac_mod._KMAC_PREFIXES
            assert (b"", rate) in kmac_mod._KMAC_PREFIXES

    @pytest.mark.parametrize("wrap", [bytearray, memoryview])
    def test_bytes_like_key_and_message(self, wrap):
        msg = random.Random(7).randbytes(400)
        assert kmac(wrap(SAMPLE_KEY), wrap(msg), 256, b"", RATE_128) == \
            kmac(SAMPLE_KEY, msg, 256, b"", RATE_128)

    @pytest.mark.parametrize("wrap", [
        bytearray, memoryview,
        pytest.param(lambda s: memoryview(bytearray(s)), id="writable-memoryview")])
    def test_bytes_like_customization(self, wrap):
        for custom in (b"", KDF_LABEL, TAGGED_APP):
            assert kmac(SAMPLE_KEY, b"m", 256, wrap(custom), RATE_128) == \
                kmac(SAMPLE_KEY, b"m", 256, custom, RATE_128)

    @pytest.mark.parametrize("rate", VALID_RATES)
    def test_matches_the_cshake_definition(self, rate):
        # KMAC(K, X, L, S) = cSHAKE(bytepad(encode_string(K), rate) || X ||
        # right_encode(L), L, "KMAC", S). S covers the tabled values, other
        # short strings, and strings whose N/S prefix spans two rate blocks.
        rng = random.Random(rate)
        customs = (b"", KDF_LABEL, b"KDF\x00", b"KD", TAGGED_APP)
        for n in range(120):
            key = rng.randbytes(rng.randrange(0, 2 * rate))
            msg = rng.randbytes(rng.randrange(0, 3 * rate))
            bits = 8 * rng.randrange(1, 2 * rate)
            custom = (customs[n % len(customs)] if n % 3
                      else rng.randbytes(rng.randrange(rate - 12, 2 * rate)))
            framed = bytepad(encode_string(key), rate) + msg + right_encode(bits)
            expected = cshake(framed, bits, FUNCTION_NAME, custom, rate)
            assert kmac(key, msg, bits, custom, rate) == expected, (n, len(custom))


@pytest.fixture
def sponge_counts(monkeypatch):
    """Counts of sponge passes and Keccak-f[1600] permutations while a test runs.

    The sponge is wrapped in every loaded kdfkit module that binds it, since a
    module that did ``from .primitives import sponge_absorb_squeeze`` calls
    its own binding.
    """
    counts = {"sponge": 0, "keccak": 0}
    real_sponge, real_keccak = primitives.sponge_absorb_squeeze, primitives.keccak_f1600

    def sponge(*args):
        counts["sponge"] += 1
        return real_sponge(*args)

    def keccak(state):
        counts["keccak"] += 1
        return real_keccak(state)

    for name, module in list(sys.modules.items()):
        if name.startswith("kdfkit") and \
                getattr(module, "sponge_absorb_squeeze", None) is real_sponge:
            monkeypatch.setattr(module, "sponge_absorb_squeeze", sponge)
    monkeypatch.setattr(primitives, "keccak_f1600", keccak)
    return counts


class TestSpongePasses:
    """One sponge pass per tag; 16-B keys and 32-B messages as in the paper's rows."""

    KEY = bytes(range(16))
    MSG = bytes(range(32))

    @pytest.mark.parametrize("call, permutations", [
        # 168-B N/S prefix, 168-B key block, then message and length in the last block.
        (lambda key, msg: kmac128(key, msg, 256), 3),
        (lambda key, msg: kmac256(key, msg, 512), 3),
        # Two blocks absorbed, one padded tail, and six more squeezed for 1024 B.
        (lambda key, msg: kmac_kdf(key, msg, 8 * 1024), 9),
    ], ids=["kmac128-32B", "kmac256-64B", "kmac_kdf-1024B"])
    def test_one_pass_per_tag(self, sponge_counts, call, permutations):
        call(self.KEY, self.MSG)
        assert sponge_counts == {"sponge": 1, "keccak": permutations}


# Key lengths around OpenSSL's 4-byte minimum, each rate, and the length at which
# bytepad(encode_string(key)) just fills one block (5 framing bytes: 131 B at
# rate 136, 163 B at rate 168).
ORACLE_KEY_LENS = (4, 5, 32, 131, 132, 135, 136, 137, 163, 164, 167, 168, 169)


@needs(load_openssl)
class TestOpensslOracle:
    @pytest.mark.parametrize("name, bits, call", [
        ("kmac128", 128, lambda key, msg, out_len, s: kmac128(key, msg, 8 * out_len, s)),
        ("kmac256", 256, lambda key, msg, out_len, s: kmac256(key, msg, 8 * out_len, s)),
        ("kmac_kdf", 128, lambda key, msg, out_len, s: kmac_kdf(key, msg, 8 * out_len)),
    ])
    def test_random_cases_match(self, name, bits, call):
        rng = random.Random(name)
        for n in range(150):
            key = rng.randbytes(ORACLE_KEY_LENS[n % len(ORACLE_KEY_LENS)])
            msg = rng.randbytes(rng.randrange(401))
            out_len = rng.randrange(1, 501)
            custom = b"KDF" if name == "kmac_kdf" else rng.randbytes(rng.choice((0, 3, 20)))
            expected = openssl_kmac(bits, key, msg, out_len, custom)
            assert call(key, msg, out_len, custom) == expected, (len(key), len(msg), out_len)

    def test_bundled_kmac_vectors_match(self):
        # Every bundled KMAC expectation is confirmed by OpenSSL, not only by kdfkit.
        # kmac_kdf is KMAC128 with S = "KDF".
        kinds = ("kmac128", "kmac256", "kmac_kdf")
        cases = [case for case in vectors.load_vector_file(vectors.bundled_vector_path())
                 if case.construction in kinds]
        assert {case.construction for case in cases} == set(kinds)
        for case in cases:
            bits = 256 if case.construction == "kmac256" else 128
            custom = b"KDF" if case.construction == "kmac_kdf" else bytes.fromhex(case.params["S"])
            got = openssl_kmac(bits, case.key, case.msg, case.params["L"] // 8, custom)
            assert got == case.expect, case.id
