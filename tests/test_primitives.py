"""Known-answer and property tests for the primitive adapters."""

import hashlib
import random

import pytest

from kdfkit.primitives import (
    SHA256_BLOCK_LEN,
    SHA256_DIGEST_LEN,
    AesBlockCipher,
    KeccakSponge,
    keccak_f1600,
    sha256,
    sponge_absorb_squeeze,
)
from reference import aes128_encrypt_block, keccak_f1600_reference


def _aes(key, block):
    return AesBlockCipher(key).encrypt_block(block)


class TestAes:
    def test_fips197_appendix_c1(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        pt = bytes.fromhex("00112233445566778899aabbccddeeff")
        assert _aes(key, pt).hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"

    @pytest.mark.parametrize("pt_hex, ct_hex", [
        # AESAVS GFSbox vectors, all-zero key
        ("f34481ec3cc627bacd5dc3fb08f273e6", "0336763e966d92595a567cc9ce537f5e"),
        ("9798c4640bad75c7c3227db910174e72", "a9a1631bf4996954ebc093957b234589"),
    ])
    def test_gfsbox(self, pt_hex, ct_hex):
        assert _aes(bytes(16), bytes.fromhex(pt_hex)).hex() == ct_hex

    def test_deterministic(self):
        key, pt = bytes(range(16)), b"\xab" * 16
        assert _aes(key, pt) == _aes(key, pt)

    def test_matches_independent_implementation(self):
        rng = random.Random(0x5EED)
        for _ in range(100):
            key, pt = rng.randbytes(16), rng.randbytes(16)
            assert _aes(key, pt) == aes128_encrypt_block(key, pt)

    def test_interleaved_keys_vs_oracle(self):
        # Every cipher shares one ECB mode object; blocks sent round-robin
        # across live ciphers show that no key's state leaks into another's.
        rng = random.Random(0xEC8)
        keys = [rng.randbytes(16) for _ in range(8)]
        ciphers = [AesBlockCipher(key) for key in keys]
        for i in range(64):
            pt = rng.randbytes(16)
            assert ciphers[i % 8].encrypt_block(pt) == aes128_encrypt_block(keys[i % 8], pt)

    def test_zero_block_random_key_vs_oracle(self):
        key = random.Random(7).randbytes(16)
        assert _aes(key, bytes(16)) == aes128_encrypt_block(key, bytes(16))

    def test_bijection_no_collisions(self):
        rng = random.Random(42)
        key = rng.randbytes(16)
        seen = {}
        for _ in range(1000):
            pt = rng.randbytes(16)
            ct = _aes(key, pt)
            assert seen.setdefault(ct, pt) == pt  # distinct pt never share a ct
        assert len(seen) >= 999  # allows rng to repeat a plaintext

    @pytest.mark.parametrize("key_len", [0, 15, 17, 32])
    def test_bad_key_length(self, key_len):
        with pytest.raises(ValueError):
            _aes(bytes(key_len), bytes(16))

    @pytest.mark.parametrize("block_len", [0, 15, 17])
    def test_bad_block_length(self, block_len):
        with pytest.raises(ValueError):
            _aes(bytes(16), bytes(block_len))


class TestSha256:
    def test_fips180_vectors(self):
        assert sha256(b"").hex() == (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
        assert sha256(b"abc").hex() == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")

    def test_large_buffer_deterministic(self):
        buf = random.Random(3).randbytes(1 << 20)
        assert sha256(buf) == sha256(buf)
        assert sha256(buf) == hashlib.sha256(buf).digest()

    def test_block_and_digest_lengths(self):
        assert SHA256_BLOCK_LEN == 64
        assert len(sha256(b"")) == SHA256_DIGEST_LEN == 32


class TestSponge:
    def test_shake128_empty_vector(self):
        out = sponge_absorb_squeeze(b"", 168, 0x1F, 32)
        assert out.hex() == (
            "7f9c2ba4e88f827d616045507605853ed73b8093f6efbc88eb1a6eacfa66ef26")

    @pytest.mark.parametrize("rate, oracle", [
        (168, hashlib.shake_128),
        (136, hashlib.shake_256),
    ])
    def test_matches_hashlib_shake(self, rate, oracle):
        # Every input length up to three blocks and one byte, so each padding
        # position and absorb boundary is hit; output lengths straddle the
        # squeeze block boundaries.
        rng = random.Random(rate)
        out_lens = (64, rate - 1, rate, rate + 1, 2 * rate)
        for length in range(3 * rate + 2):
            data = rng.randbytes(length)
            long_out = sponge_absorb_squeeze(data, rate, 0x1F, 2 * rate)
            assert long_out == oracle(data).digest(2 * rate)
            if length % rate in (0, 1, rate - 1):
                for out_len in out_lens:
                    assert sponge_absorb_squeeze(data, rate, 0x1F, out_len) == \
                        long_out[:out_len]

    def test_squeeze_prefix_stability(self):
        data = b"prefix stability"
        long_out = sponge_absorb_squeeze(data, 168, 0x1F, 400)  # spans 3 squeeze blocks
        for short_len in [1, 32, 64, 167, 168, 169, 399]:
            assert sponge_absorb_squeeze(data, 168, 0x1F, short_len) == long_out[:short_len]

    def test_truncated_64_equals_direct_32(self):
        data = b"\x01\x02\x03"
        assert sponge_absorb_squeeze(data, 168, 0x1F, 64)[:32] == \
            sponge_absorb_squeeze(data, 168, 0x1F, 32)

    def test_pure_no_state_survives(self):
        data = b"same input"
        first = sponge_absorb_squeeze(data, 136, 0x1F, 48)
        second = sponge_absorb_squeeze(data, 136, 0x1F, 48)
        assert first == second

    @pytest.mark.parametrize("rate", [0, 100, 137, 167, 200])
    def test_invalid_rate(self, rate):
        with pytest.raises(ValueError):
            sponge_absorb_squeeze(b"", rate, 0x1F, 32)

    def test_invalid_out_len(self):
        with pytest.raises(ValueError):
            sponge_absorb_squeeze(b"", 168, 0x1F, 0)
        sponge = KeccakSponge(168)
        sponge.finalize(0x1F)
        with pytest.raises(ValueError):
            sponge.squeeze(-1)

    def test_incremental_absorb_matches_one_shot(self):
        data = random.Random(9).randbytes(1000)
        expected = hashlib.shake_128(data).digest(340)
        for chunk in (1, 7, 97, 168, 169):
            sponge = KeccakSponge(168)
            for start in range(0, 1000, chunk):
                sponge.absorb(data[start:start + chunk])
            sponge.finalize(0x1F)
            # Squeezes continue one stream, across the block boundaries at 168 and 336.
            parts = [sponge.squeeze(n) for n in (64, 104, 0, 1, 168, 3)]
            assert b"".join(parts) == expected, chunk

    def test_permutation_leaves_input_unchanged(self):
        lanes = list(range(25))
        out = keccak_f1600(lanes)
        assert lanes == list(range(25))
        assert out is not lanes and out != lanes

    def test_permutation_matches_reference(self):
        # The straight-line production body against the loop form, lane for lane.
        rng = random.Random(1600)
        states = [[0] * 25, [(1 << 64) - 1] * 25]
        states += [[rng.getrandbits(64) for _ in range(25)] for _ in range(200)]
        for lanes in states:
            assert keccak_f1600(lanes) == keccak_f1600_reference(lanes), lanes
        # Known answer from the Keccak team's KeccakF-1600 intermediate values:
        # lane 0 after one permutation of the zero state.
        assert keccak_f1600([0] * 25)[0] == 0xF1258F7940E1DDE7

    def test_single_owner_lifecycle(self):
        sponge = KeccakSponge(168)
        sponge.absorb(b"abc")
        sponge.finalize(0x1F)
        with pytest.raises(ValueError):
            sponge.absorb(b"more")
        with pytest.raises(ValueError):
            sponge.finalize(0x1F)
        fresh = KeccakSponge(168)
        with pytest.raises(ValueError):
            fresh.squeeze(32)  # must finalize first
