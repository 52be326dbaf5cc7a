"""The three KDF families against in-repo oracles and their invariants."""

import random

import pytest
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from cryptography.hazmat.primitives.kdf.kbkdf import (
    KBKDFCMAC,
    KBKDFHMAC,
    CounterLocation,
    Mode,
)

import kdfkit.hmac as hmac_mod
from kdfkit.cmac import cmac
from kdfkit.hmac import hmac
from kdfkit.kdf import (
    ENCRYPTION_PAD,
    PURPOSE_ENCRYPTION,
    PURPOSE_SIGNING,
    SIGNING_PAD,
    PrfChoice,
    counter_kdf,
    ieee_kdf,
    kmac_kdf,
)
from kdfkit.kmac import kmac128
from reference import aes128_encrypt_block

KEY = bytes(range(16))


def manual_counter_blocks(prf, key, msg, out_len):
    """Reconstruct counter-mode output from standalone PRF calls."""
    mac = hmac if prf is PrfChoice.HMAC_SHA256 else cmac
    blocks = []
    n = -(-out_len // prf.block_len)
    for i in range(1, n + 1):
        block_input = (i.to_bytes(4, "big") + b"KDF" + b"\x00" + msg
                       + out_len.to_bytes(4, "big"))
        blocks.append(mac(key, block_input))
    return b"".join(blocks)[:out_len]


def manual_ieee(key, i_value, j_value, purpose):
    """Unrolled three-block computation over the independent AES reference."""
    pad = SIGNING_PAD if purpose == PURPOSE_SIGNING else ENCRYPTION_PAD
    base = int.from_bytes(pad + i_value + j_value + bytes(4), "big")
    out = b""
    for i in (1, 2, 3):
        block = ((base + i) % (1 << 128)).to_bytes(16, "big")
        out += bytes(a ^ b for a, b in zip(aes128_encrypt_block(key, block), block))
    return out


def aes_ecb_ieee(key, i_value, j_value, purpose):
    """The counter blocks pad || i || j || [1..3]_32 through the library's AES-ECB, XORed back.

    Built by concatenation, so maximal indices also check that the 128-bit
    sum in ``ieee_kdf`` never carries.
    """
    pad = SIGNING_PAD if purpose == PURPOSE_SIGNING else ENCRYPTION_PAD
    blocks = b"".join(pad + i_value + j_value + n.to_bytes(4, "big") for n in (1, 2, 3))
    encrypted = Cipher(algorithms.AES(key), modes.ECB()).encryptor().update(blocks)
    return bytes(a ^ b for a, b in zip(encrypted, blocks))


def counter_fixed(msg, out_len):
    """``counter_kdf``'s fixed input: "KDF" || 0x00 || msg || [L]_32, L in bytes."""
    return b"KDF\x00" + msg + out_len.to_bytes(4, "big")


def kbkdf(prf, key, out_len, label=None, context=None, fixed=None):
    """SP 800-108 counter mode from ``cryptography``: r = 4, counter before the fixed input.

    Pass ``fixed`` for a caller-built fixed input, or ``label``/``context`` for
    the standard's own framing, which appends [L]_2 as the output length in bits.
    """
    llen = None if fixed is not None else 4
    if prf is PrfChoice.HMAC_SHA256:
        kbkdf_cls, prf_arg = KBKDFHMAC, hashes.SHA256()
    else:
        kbkdf_cls, prf_arg = KBKDFCMAC, algorithms.AES
    return kbkdf_cls(prf_arg, Mode.CounterMode, out_len, 4, llen, CounterLocation.BeforeFixed,
                     label, context, fixed).derive(key)


class TestCounterKdf:
    def test_single_block_decomposition(self):
        msg = b"context"
        expect = hmac(KEY, bytes.fromhex("00000001") + b"KDF" + b"\x00" + msg
                      + bytes.fromhex("00000020"))
        assert counter_kdf(PrfChoice.HMAC_SHA256, KEY, msg, 32) == expect

    def test_cmac_three_blocks(self):
        msg = b"abc"
        manual = b"".join(
            cmac(KEY, i.to_bytes(4, "big") + b"KDF\x00" + msg + (48).to_bytes(4, "big"))
            for i in (1, 2, 3))
        assert counter_kdf(PrfChoice.CMAC_AES128, KEY, msg, 48) == manual

    def test_final_block_truncation(self):
        msg = b"trunc"
        out = counter_kdf(PrfChoice.HMAC_SHA256, KEY, msg, 33)
        assert len(out) == 33
        assert out == manual_counter_blocks(PrfChoice.HMAC_SHA256, KEY, msg, 33)

    @pytest.mark.parametrize("prf", list(PrfChoice))
    def test_output_length_sweep(self, prf):
        for out_len in range(1, 201):
            assert len(counter_kdf(prf, KEY, b"ctx", out_len)) == out_len

    @pytest.mark.parametrize("prf", list(PrfChoice))
    def test_blockwise_oracle_equivalence(self, prf):
        rng = random.Random(prf.block_len)
        for _ in range(25):
            key = rng.randbytes(16)
            msg = rng.randbytes(rng.randrange(0, 64))
            out_len = rng.randrange(1, 120)
            assert counter_kdf(prf, key, msg, out_len) == \
                manual_counter_blocks(prf, key, msg, out_len)

    @pytest.mark.parametrize("prf", list(PrfChoice))
    def test_matches_installed_kbkdf(self, prf):
        # kdfkit's [L] is the output length in bytes, so it equals KBKDF only
        # with the fixed input built by hand; the standard's bit-length
        # framing gives different bytes at every length.
        rng = random.Random(0x108 + prf.block_len)
        for out_len in range(1, 97):
            for _ in range(5):
                key = rng.randbytes(16)
                msg = rng.randbytes(rng.randrange(0, 64))
                out = counter_kdf(prf, key, msg, out_len)
                fixed = counter_fixed(msg, out_len)
                assert out == kbkdf(prf, key, out_len, fixed=fixed), (out_len, msg.hex())
                assert out != kbkdf(prf, key, out_len, label=b"KDF", context=msg)

    @pytest.mark.parametrize("out_len", [1023, 1024, 1025])
    @pytest.mark.parametrize("prf", list(PrfChoice))
    def test_long_output_matches_installed_kbkdf(self, prf, out_len):
        # Bulk derivation's shape: 32 HMAC or 64 CMAC blocks, and one
        # byte either side.
        rng = random.Random(out_len + prf.block_len)
        key = rng.randbytes(16)
        msg = rng.randbytes(32)
        fixed = counter_fixed(msg, out_len)
        assert counter_kdf(prf, key, msg, out_len) == kbkdf(prf, key, out_len, fixed=fixed)

    @pytest.mark.parametrize("key_len, out_len", [(16, 1), (16, 48), (64, 33), (16, 1024),
                                                  (65, 64)])
    def test_one_hmac_schedule_per_call(self, monkeypatch, key_len, out_len):
        # What perfbench's hmac and sha256 pins mean: one hmac per block, two
        # digests per block, and one key schedule per call, which hashes a
        # key longer than a block once. No schedule outlives its call.
        calls = {"schedule": [], "hmac": [], "sha256": 0}
        real_key, real_hmac, real_sha256 = hmac_mod.hmac_key, hmac_mod.hmac, hmac_mod.sha256

        def counting_key(key):
            calls["schedule"].append(real_key(key))
            return calls["schedule"][-1]

        def counting_hmac(key, msg):
            calls["hmac"].append(key)
            return real_hmac(key, msg)

        def counting_sha256(data, prefix=None):
            calls["sha256"] += 1
            return real_sha256(data, prefix)

        monkeypatch.setattr(hmac_mod, "hmac_key", counting_key)
        monkeypatch.setattr(hmac_mod, "hmac", counting_hmac)
        monkeypatch.setattr(hmac_mod, "sha256", counting_sha256)
        key = bytes(range(key_len))
        n_blocks = -(-out_len // 32)
        for n_calls in (1, 2):
            calls["hmac"].clear()
            calls["sha256"] = 0
            counter_kdf(PrfChoice.HMAC_SHA256, key, b"ctx", out_len)
            assert len(calls["schedule"]) == n_calls
            assert len(calls["hmac"]) == n_blocks
            assert all(schedule is calls["schedule"][-1] for schedule in calls["hmac"])
            assert calls["sha256"] == 2 * n_blocks + (key_len > 64)
        assert calls["schedule"][0] is not calls["schedule"][1]

    def test_hmac_accepts_any_key_length(self):
        assert len(counter_kdf(PrfChoice.HMAC_SHA256, b"", b"m", 10)) == 10
        assert len(counter_kdf(PrfChoice.HMAC_SHA256, bytes(100), b"m", 10)) == 10

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            counter_kdf(PrfChoice.HMAC_SHA256, KEY, b"", 0)

    def test_cmac_wrong_key_length_rejected(self):
        with pytest.raises(ValueError):
            counter_kdf(PrfChoice.CMAC_AES128, bytes(8), b"", 16)

    def test_oversized_length_field_rejected(self):
        with pytest.raises(ValueError):
            counter_kdf(PrfChoice.HMAC_SHA256, KEY, b"", 1 << 32)

    @pytest.mark.parametrize("prf", list(PrfChoice))
    @pytest.mark.parametrize("out_len", [16.0, 48.0])
    def test_float_length_rejected(self, prf, out_len):
        with pytest.raises(ValueError, match="not an int"):
            counter_kdf(prf, KEY, b"", out_len)


class TestKmacKdf:
    def test_equals_kmac_with_kdf_customization(self):
        rng = random.Random(0x7D)
        for _ in range(100):
            key = rng.randbytes(rng.randrange(1, 40))
            msg = rng.randbytes(rng.randrange(0, 80))
            assert kmac_kdf(key, msg, 384) == kmac128(key, msg, 384, b"KDF")

    def test_differs_from_uncustomized_kmac(self):
        assert kmac_kdf(KEY, b"m", 256) != kmac128(KEY, b"m", 256, b"")

    def test_48_byte_output(self):
        assert len(kmac_kdf(KEY, b"m", 384)) == 48

    def test_invalid_bits_propagate(self):
        with pytest.raises(ValueError):
            kmac_kdf(KEY, b"m", 0)


class TestIeeeKdf:
    def test_all_zero_unrolling(self):
        out = ieee_kdf(KEY, bytes(4), bytes(4), PURPOSE_SIGNING)
        first_block_input = bytes(15) + b"\x01"
        encrypted = aes128_encrypt_block(KEY, first_block_input)
        assert out[:16] == bytes(a ^ b for a, b in zip(encrypted, first_block_input))

    def test_output_always_48_bytes(self):
        rng = random.Random(3)
        for _ in range(20):
            out = ieee_kdf(rng.randbytes(16), rng.randbytes(4), rng.randbytes(4),
                           rng.choice([PURPOSE_SIGNING, PURPOSE_ENCRYPTION]))
            assert len(out) == 48

    def test_purpose_changes_every_block(self):
        signing = ieee_kdf(KEY, b"\x01\x02\x03\x04", b"\x05\x06\x07\x08", PURPOSE_SIGNING)
        encryption = ieee_kdf(KEY, b"\x01\x02\x03\x04", b"\x05\x06\x07\x08", PURPOSE_ENCRYPTION)
        for i in range(3):
            assert signing[16 * i:16 * (i + 1)] != encryption[16 * i:16 * (i + 1)]

    def test_grid_matches_unrolled_oracle(self):
        for i in range(16):
            for j in range(16):
                i_value = i.to_bytes(4, "big")
                j_value = j.to_bytes(4, "big")
                assert ieee_kdf(KEY, i_value, j_value, PURPOSE_SIGNING) == \
                    manual_ieee(KEY, i_value, j_value, PURPOSE_SIGNING)

    def test_grid_injective_and_deterministic(self):
        outputs = set()
        for i in range(16):
            for j in range(16):
                out = ieee_kdf(KEY, i.to_bytes(4, "big"), j.to_bytes(4, "big"),
                               PURPOSE_SIGNING)
                assert out == ieee_kdf(KEY, i.to_bytes(4, "big"),
                                       j.to_bytes(4, "big"), PURPOSE_SIGNING)
                outputs.add(out)
        assert len(outputs) == 256

    def test_counter_tail_increments(self):
        # with zero indices the three block inputs end 01, 02, 03
        out = ieee_kdf(KEY, bytes(4), bytes(4), PURPOSE_SIGNING)
        for i in (1, 2, 3):
            block_input = bytes(15) + bytes([i])
            encrypted = aes128_encrypt_block(KEY, block_input)
            expect = bytes(a ^ b for a, b in zip(encrypted, block_input))
            assert out[16 * (i - 1):16 * i] == expect

    @pytest.mark.parametrize("purpose", [PURPOSE_SIGNING, PURPOSE_ENCRYPTION])
    def test_matches_library_aes_ecb(self, purpose):
        rng = random.Random(1609)
        indices = [(b"\xff" * 4, b"\xff" * 4), (bytes(4), bytes(4))]
        indices += [(rng.randbytes(4), rng.randbytes(4)) for _ in range(20)]
        for i_value, j_value in indices:
            key = rng.randbytes(16)
            assert ieee_kdf(key, i_value, j_value, purpose) == \
                aes_ecb_ieee(key, i_value, j_value, purpose), (i_value, j_value)

    @pytest.mark.parametrize("i_len, j_len", [(3, 4), (4, 3), (0, 4), (4, 8)])
    def test_index_lengths_validated(self, i_len, j_len):
        with pytest.raises(ValueError):
            ieee_kdf(KEY, bytes(i_len), bytes(j_len), PURPOSE_SIGNING)

    @pytest.mark.parametrize("purpose", [0, 3, -1])
    def test_purpose_validated(self, purpose):
        with pytest.raises(ValueError):
            ieee_kdf(KEY, bytes(4), bytes(4), purpose)

    def test_key_length_validated(self):
        with pytest.raises(ValueError):
            ieee_kdf(bytes(24), bytes(4), bytes(4), PURPOSE_SIGNING)

    @pytest.mark.parametrize("purpose", [PURPOSE_SIGNING, PURPOSE_ENCRYPTION])
    def test_one_key_setup_and_three_block_calls(self, aes_calls, purpose):
        # The counts perfbench's IEEE_KDF aes_key_setup and aes_block ledgers pin.
        for n in range(1, 4):
            ieee_kdf(KEY, n.to_bytes(4, "big"), bytes(4), purpose)
            assert aes_calls == {"setup": n, "block": 3 * n}

    @pytest.mark.parametrize("wrap", [bytearray, memoryview])
    def test_bytes_like_key_and_indices(self, wrap):
        rng = random.Random(0x1609)
        for _ in range(8):
            key, i_value, j_value = rng.randbytes(16), rng.randbytes(4), rng.randbytes(4)
            purpose = rng.choice([PURPOSE_SIGNING, PURPOSE_ENCRYPTION])
            expect = ieee_kdf(key, i_value, j_value, purpose)
            assert ieee_kdf(wrap(key), wrap(i_value), wrap(j_value), purpose) == expect
            assert ieee_kdf(wrap(key), i_value, j_value, purpose) == expect
            assert ieee_kdf(key, wrap(i_value), wrap(j_value), purpose) == expect


class TestOutputSmoke:
    def test_pooled_bytes_cover_all_values(self):
        # coarse pseudorandomness check: 10k pooled bytes per family hit
        # every byte value at least once
        rng = random.Random(0xF00D)
        pools = {"ctr_hmac": bytearray(), "ctr_cmac": bytearray(),
                 "kmac": bytearray(), "ieee": bytearray()}
        while len(pools["ieee"]) < 10_000:
            key = rng.randbytes(16)
            msg = rng.randbytes(16)
            pools["ctr_hmac"] += counter_kdf(PrfChoice.HMAC_SHA256, key, msg, 48)
            pools["ctr_cmac"] += counter_kdf(PrfChoice.CMAC_AES128, key, msg, 48)
            pools["kmac"] += kmac_kdf(key, msg, 384)
            pools["ieee"] += ieee_kdf(key, rng.randbytes(4), rng.randbytes(4),
                                      PURPOSE_SIGNING)
        for name, pool in pools.items():
            assert len(pool) >= 10_000
            assert set(pool) == set(range(256)), name
