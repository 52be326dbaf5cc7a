"""AES-CMAC against RFC 4493 vectors, two independent oracles, and its invariants."""

import random

import pytest
from cryptography.hazmat.primitives.ciphers.algorithms import AES
from cryptography.hazmat.primitives.cmac import CMAC as LibCmac

from kdfkit.cmac import _dbl, cmac
from kdfkit.primitives import AesBlockCipher
from reference import cmac_reference

RFC4493_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
RFC4493_MSG = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710")
RFC4493_EXAMPLES = [
    (0, "bb1d6929e95937287fa37d129b756746"),
    (16, "070a16b46b4d4144f79bdd9dd04a287c"),
    (40, "dfa66747de9ae63030ca32611497c827"),
    (64, "51f0bebf7e3b9d92fc49741779363cfe"),
]
# Empty, short, whole, and one past one and two blocks, then 4 KiB.
EDGE_LENGTHS = [0, 15, 16, 17, 32, 33, 4096]


class TestDbl:
    def test_rfc4493_subkey_chain(self):
        # L = AES-128(key, 0^128) as RFC 4493 section 4 lists it.
        l_value = 0x7df76b0c1ab899b33e42f047b91b546f
        assert AesBlockCipher(RFC4493_KEY).encrypt_block(bytes(16)) == l_value.to_bytes(16, "big")
        # K1 = 2L and K2 = 2K1, the two subkeys cmac builds.
        assert _dbl(l_value) == 0xfbeed618357133667c85e08f7236a8de
        assert _dbl(_dbl(l_value)) == 0xf7ddac306ae266ccf90bc11ee46d513b

    def test_msb_clear_is_plain_shift(self):
        assert _dbl(0x40 << 120) == 0x80 << 120

    def test_msb_set_applies_reduction(self):
        assert _dbl(0x80 << 120) == 0x87

    def test_zero_fixed_point(self):
        assert _dbl(_dbl(0)) == 0


class TestCmac:
    @pytest.mark.parametrize("length, expect", RFC4493_EXAMPLES)
    def test_rfc4493_examples(self, length, expect):
        assert cmac(RFC4493_KEY, RFC4493_MSG[:length]).hex() == expect

    def test_deterministic(self):
        assert cmac(RFC4493_KEY, b"x") == cmac(RFC4493_KEY, b"x")

    def test_every_length_vs_reference(self):
        # in-repo brute-force oracle on an independent AES implementation
        rng = random.Random(0xC3AC)
        key = rng.randbytes(16)
        for length in range(65):
            msg = rng.randbytes(length)
            assert cmac(key, msg) == cmac_reference(key, msg), length

    def test_random_vs_library_oracle(self):
        rng = random.Random(0x11B)
        for _ in range(50):
            key = rng.randbytes(16)
            msg = rng.randbytes(rng.randrange(0, 200))
            lib = LibCmac(AES(key))
            lib.update(msg)
            assert cmac(key, msg) == lib.finalize()

    def test_tag_length_sweep(self):
        key = bytes(range(16))
        for length in range(0, 1001):
            assert len(cmac(key, b"\x5A" * length)) == 16

    def test_last_byte_change_alters_tag(self):
        rng = random.Random(5)
        key = rng.randbytes(16)
        for _ in range(1000):
            msg = bytearray(rng.randbytes(rng.randrange(1, 50)))
            tag = cmac(key, bytes(msg))
            msg[-1] ^= rng.randrange(1, 256)
            assert cmac(key, bytes(msg)) != tag

    @pytest.mark.parametrize("wrap", [bytearray, memoryview])
    @pytest.mark.parametrize("length, expect", RFC4493_EXAMPLES)
    def test_bytes_like_message(self, wrap, length, expect):
        # Empty, one complete block, a short last block, complete last block.
        assert cmac(RFC4493_KEY, wrap(RFC4493_MSG[:length])).hex() == expect

    @pytest.mark.parametrize("wrap", [bytearray, memoryview])
    @pytest.mark.parametrize("length", EDGE_LENGTHS)
    def test_bytes_like_message_at_block_edges(self, wrap, length):
        # Block 0, the middle blocks and the last block are sliced apart.
        msg = random.Random(length).randbytes(length)
        assert cmac(RFC4493_KEY, wrap(msg)) == cmac(RFC4493_KEY, msg)

    @pytest.mark.parametrize("length", EDGE_LENGTHS)
    def test_one_key_setup_and_one_block_call_per_block(self, aes_calls, length):
        # L, then one call per message block (an empty message is one padded
        # block): the count perfbench's aes_block ledger pins.
        cmac(RFC4493_KEY, bytes(length))
        assert aes_calls == {"setup": 1, "block": 1 + max(1, -(-length // 16))}

    @pytest.mark.parametrize("key_len", [0, 15, 24, 32])
    def test_invalid_key_length(self, key_len):
        with pytest.raises(ValueError):
            cmac(bytes(key_len), b"")
