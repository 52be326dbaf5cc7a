"""Known-answer and property tests for the primitive adapters."""

import ctypes
import functools
import hashlib
import os
import random
import struct
import subprocess
import sys
from pathlib import Path

import cryptography.utils
import pytest

from kdfkit.primitives import (
    SHA256_BLOCK_LEN,
    SHA256_DIGEST_LEN,
    AesBlockCipher,
    KeccakSponge,
    KeccakState,
    keccak_f1600,
    sha256,
    sha256_state,
    sponge_absorb_squeeze,
)
from reference import aes128_encrypt_block, keccak_f1600_reference, reference_sponge
from test_properties import near

ROOT = Path(__file__).resolve().parents[1]

def _aes(key, block):
    return AesBlockCipher(key).encrypt_block(block)


def _cbc_reference(key, chain, block):
    """The next CBC output: reference AES of ``block`` XOR the last output."""
    return aes128_encrypt_block(key, bytes(a ^ b for a, b in zip(chain, block)))


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
        # Each cipher is a CBC chain with a zero IV over one shared mode
        # object; blocks sent round-robin across live ciphers, each checked
        # against its own key's reference chain, show that no key's state
        # leaks into another's.
        rng = random.Random(0xEC8)
        keys = [rng.randbytes(16) for _ in range(8)]
        ciphers = [AesBlockCipher(key) for key in keys]
        chains = [bytes(16)] * 8
        for i in range(64):
            pt = rng.randbytes(16)
            chains[i % 8] = _cbc_reference(keys[i % 8], chains[i % 8], pt)
            assert ciphers[i % 8].encrypt_block(pt) == chains[i % 8]

    @pytest.mark.parametrize("block_len", [15, 17])
    def test_bad_block_leaves_chain_intact(self, block_len):
        # The context would buffer a partial block and shift every later
        # output; the length check refuses it before it gets there.
        rng = random.Random(block_len)
        key = rng.randbytes(16)
        cipher = AesBlockCipher(key)
        chain = bytes(16)
        for _ in range(2):
            pt = rng.randbytes(16)
            chain = _cbc_reference(key, chain, pt)
            assert cipher.encrypt_block(pt) == chain
            with pytest.raises(ValueError):
                cipher.encrypt_block(rng.randbytes(block_len))

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

    def test_key_setup_skips_deprecation_wrapper(self, monkeypatch):
        # Every class looked up on cryptography's ``modes`` module goes through
        # this wrapper's __getattr__ (~2.4 µs each). Cipher(...).encryptor()
        # makes two such lookups per key setup; the direct factory none.
        AesBlockCipher(bytes(16))
        wrapper = cryptography.utils._ModuleWithDeprecations
        lookups = []
        original = wrapper.__getattr__

        def counting(module, name):
            lookups.append(name)
            return original(module, name)

        monkeypatch.setattr(wrapper, "__getattr__", counting)
        AesBlockCipher(bytes(range(16)))
        assert lookups == []

    def test_missing_context_factory_fails_import(self):
        code = ("from cryptography.hazmat.bindings._rust import openssl; "
                "del openssl.ciphers.create_encryption_ctx; import kdfkit.primitives")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode != 0
        assert ("ImportError: kdfkit needs cryptography>=48, whose Rust bindings expose "
                "openssl.ciphers.create_encryption_ctx") in proc.stderr


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

    def test_prefix_state_at_block_edges(self):
        # The digest of the prefix's bytes then the data, for both within
        # 4 B of 0, 64 and 128 B; the prefix itself is never advanced.
        rng = random.Random(0x180)
        for prefix_len in near(0, 64, 128):
            prefix = rng.randbytes(prefix_len)
            state = sha256_state(prefix)
            for data_len in near(0, 64, 128):
                data = rng.randbytes(data_len)
                assert sha256(data, state) == hashlib.sha256(prefix + data).digest(), \
                    (prefix_len, data_len)
                assert state.digest() == hashlib.sha256(prefix).digest()


class TestSponge:
    def test_shake128_empty_vector(self):
        out = sponge_absorb_squeeze(b"", 168, 0x1F, 32)
        assert out.hex() == (
            "7f9c2ba4e88f827d616045507605853ed73b8093f6efbc88eb1a6eacfa66ef26")

    # OpenSSL's KECCAK-KMAC-128/256 are the bare sponges with cSHAKE's 0x04
    # pad. hashlib.algorithms_available does not list them, and hashlib.new
    # raises ValueError where the OpenSSL behind hashlib lacks them.
    @pytest.mark.parametrize("rate, pad, oracle", [
        pytest.param(168, 0x1F, hashlib.shake_128, id="168-openssl_shake_128"),
        pytest.param(136, 0x1F, hashlib.shake_256, id="136-openssl_shake_256"),
        pytest.param(168, 0x04, functools.partial(hashlib.new, "KECCAK-KMAC-128"),
                     id="168-KECCAK-KMAC-128"),
        pytest.param(136, 0x04, functools.partial(hashlib.new, "KECCAK-KMAC-256"),
                     id="136-KECCAK-KMAC-256"),
    ])
    def test_matches_hashlib_shake(self, rate, pad, oracle):
        try:
            oracle(b"")
        except ValueError as exc:
            pytest.skip(f"hashlib has no such sponge: {exc}")
        # Every input length up to three blocks and one byte, so each padding
        # position and absorb boundary is hit; output lengths straddle the
        # squeeze block boundaries.
        rng = random.Random(rate)
        out_lens = (64, rate - 1, rate, rate + 1, 2 * rate)
        for length in range(3 * rate + 2):
            data = rng.randbytes(length)
            long_out = sponge_absorb_squeeze(data, rate, pad, 2 * rate)
            assert long_out == oracle(data).digest(2 * rate)
            if length % rate in (0, 1, rate - 1):
                for out_len in out_lens:
                    assert sponge_absorb_squeeze(data, rate, pad, out_len) == \
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

    @pytest.mark.parametrize("wrap", [bytearray, memoryview, lambda data: data.decode("latin-1")],
                             ids=["bytearray", "memoryview", "str"])
    @pytest.mark.parametrize("length", [0, 100, 400])
    def test_absorbs_bytes_only(self, wrap, length):
        # The sponge absorbs its input as given, with no copy to bytes:
        # memxor's c_char_p refuses anything else rather than hash other bytes.
        with pytest.raises((ctypes.ArgumentError, TypeError)):
            sponge_absorb_squeeze(wrap(bytes(length)), 168, 0x1F, 32)

    def test_permutation_runs_in_place(self):
        state = KeccakState.from_buffer_copy(bytes(range(200)))
        assert keccak_f1600(state) is None
        assert bytes(state) != bytes(range(200))

    @pytest.mark.parametrize("length", [199, 201])
    def test_permutation_rejects_wrong_state_length(self, length):
        # Nettle reads and writes 200 bytes, so a shorter buffer would overrun;
        # ctypes refuses any array but KeccakState before the call.
        with pytest.raises(ctypes.ArgumentError):
            keccak_f1600((ctypes.c_ubyte * length)())

    @pytest.mark.parametrize("state", [bytes(200), bytearray(200), None, [0] * 200, "\0" * 200],
                             ids=["bytes", "bytearray", "None", "list", "str"])
    def test_permutation_rejects_anything_but_a_state(self, state):
        # The prototype names KeccakState, not a pointer, so None is no NULL.
        with pytest.raises(ctypes.ArgumentError):
            keccak_f1600(state)

    @pytest.mark.parametrize("rate", [168, 136])
    def test_finalize_rejects_a_tail_of_a_rate_or_more(self, rate):
        # memxor would write the tail and the domain byte past the rate block,
        # and past the state for a long enough tail.
        for length in (rate, rate + 1):
            with pytest.raises(ValueError, match="shorter than the rate"):
                KeccakSponge(rate).finalize(bytes(length), 0x1F)

    @pytest.mark.parametrize("pad", [-1, 0x100, 0x11F])
    def test_domain_byte_out_of_range(self, pad):
        with pytest.raises(ValueError, match="domain byte"):
            sponge_absorb_squeeze(b"", 168, pad, 32)

    def test_big_endian_host_fails_import(self):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; sys.byteorder = 'big'; import kdfkit.primitives"],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0
        assert "ImportError: kdfkit needs a little-endian host" in proc.stderr

    @pytest.mark.parametrize("stand_in", [
        "raise OSError('libnettle.so.8: cannot open shared object file')",
        "return real('libc.so.6')",  # loads, but has no nettle_sha3_permute
    ])
    def test_missing_nettle_fails_import(self, stand_in):
        code = ("import ctypes\n"
                "real = ctypes.CDLL\n"
                "def cdll(name, *args, **kwargs):\n"
                "    if name == 'libnettle.so.8':\n"
                f"        {stand_in}\n"
                "    return real(name, *args, **kwargs)\n"
                "ctypes.CDLL = cdll\n"
                "import kdfkit.primitives")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode != 0
        assert ("ImportError: kdfkit needs Nettle 3.x as libnettle.so.8, exporting "
                "nettle_sha3_permute and nettle_memxor") in proc.stderr

    def test_permutation_matches_reference(self):
        # Nettle's permutation against the loop form, lane for lane, each
        # state packed as FIPS 202's little-endian state string.
        rng = random.Random(1600)
        states = [[0] * 25, [(1 << 64) - 1] * 25]
        states += [[rng.getrandbits(64) for _ in range(25)] for _ in range(200)]
        for lanes in states:
            state = KeccakState.from_buffer_copy(struct.pack("<25Q", *lanes))
            keccak_f1600(state)
            assert bytes(state) == struct.pack("<25Q", *keccak_f1600_reference(lanes)), lanes
        # Known answer from the Keccak team's KeccakF-1600 intermediate values:
        # lane 0 after one permutation of the zero state.
        state = KeccakState()
        keccak_f1600(state)
        assert int.from_bytes(bytes(state)[:8], "little") == 0xF1258F7940E1DDE7

    @pytest.mark.parametrize("rate", [168, 136])
    @pytest.mark.parametrize("pad", [0x1F, 0x04])
    def test_matches_reference_sponge(self, rate, pad):
        # At rate - 1 the domain byte and pad10*1's 0x80 share the block's
        # last byte; at rate the padding takes a block of its own.
        rng = random.Random(rate * pad)
        for length in (rate - 2, rate - 1, rate, rate + 1):
            data = rng.randbytes(length)
            assert sponge_absorb_squeeze(data, rate, pad, 3 * rate) == \
                reference_sponge(data, rate, pad, 3 * rate), length
